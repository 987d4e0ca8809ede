//! Maps `(method, path)` to a handler and a normalized route label, and
//! decides where the handler runs.
//!
//! The label (e.g. `"GET /v1/jobs/:id"`) is what the per-route metrics
//! key on, so unbounded path segments (job ids) collapse to one
//! counter instead of one counter per id.
//!
//! Routes that only read in-process state answer on the reactor's loop
//! thread. Simulate, recommend and the topology push are entered on the
//! loop too: their handlers answer what they can from memory and admit
//! the rest to the pool themselves (see [`crate::handlers`]). A
//! simulate or recommend body the loop answered before is answered from
//! the [answer memo](crate::answer_memo), keyed by the route label set
//! here, without being decoded; any other body of at most
//! [`crate::handlers::LOOP_BODY_MAX`] bytes is decoded on the loop. Sweep,
//! upload and the peer trace `GET` always run on the pool (see
//! [`crate::queue::admit`]), so nothing that simulates, reads disk or
//! talks to the network holds the loop.
//!
//! `/v1/*` and `/v2/*` dispatch to the same handlers; the
//! [`ApiVersion`] argument selects the response dialect (bare v1
//! document vs. the v2 `{"v": 2, "data": ...}` envelope).

use std::sync::Arc;

use crate::api::ApiVersion;
use crate::handlers;
use crate::http::{Request, Response};
use crate::peer_tier::TRACE_PATH;
use crate::queue;
use crate::reactor::Reply;
use crate::server::AppState;

/// Where a matched route runs.
enum Handler {
    /// Answered on the loop thread.
    Loop(Response),
    /// Called on the loop thread with the request and its reply: the
    /// handler answers from memory where it can and admits the rest of
    /// its work to the pool itself.
    Split(fn(&Arc<AppState>, Request, Reply)),
    /// Submitted to the pool; the handler owns the request and answers
    /// through the reply.
    Pool(fn(&Arc<AppState>, Request, Reply)),
}

/// Routes one request: answers it on the calling (loop) thread, or
/// admits its handler to the pool, or lets the handler choose.
pub fn route(state: &Arc<AppState>, req: Request, mut reply: Reply) {
    use ApiVersion::{V1, V2};
    use Handler::{Loop, Pool, Split};
    let (label, handler) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("GET /healthz", Loop(handlers::healthz())),
        ("GET", "/metrics") => ("GET /metrics", Loop(handlers::metrics(state))),
        ("GET", "/v1/jobs") => ("GET /v1/jobs", Loop(handlers::jobs(state, V1))),
        ("GET", "/v2/jobs") => ("GET /v2/jobs", Loop(handlers::jobs(state, V2))),
        ("GET", path) if path.starts_with("/v1/jobs/") => (
            "GET /v1/jobs/:id",
            Loop(handlers::job(state, &path["/v1/jobs/".len()..], V1)),
        ),
        ("GET", path) if path.starts_with("/v2/jobs/") => (
            "GET /v2/jobs/:id",
            Loop(handlers::job(state, &path["/v2/jobs/".len()..], V2)),
        ),
        ("POST", "/v1/simulate") => ("POST /v1/simulate", Split(handlers::simulate)),
        ("POST", "/v2/simulate") => ("POST /v2/simulate", Split(handlers::simulate)),
        ("POST", "/v1/recommend") => ("POST /v1/recommend", Split(handlers::recommend)),
        ("POST", "/v2/recommend") => ("POST /v2/recommend", Split(handlers::recommend)),
        ("POST", "/v1/sweep") => ("POST /v1/sweep", Pool(handlers::sweep)),
        ("POST", "/v2/sweep") => ("POST /v2/sweep", Pool(handlers::sweep)),
        // Upload is a /v2-only surface: the v1 shim predates content-
        // addressed matrices and stays frozen.
        ("POST", "/v2/matrices") => ("POST /v2/matrices", Pool(handlers::upload_matrix)),
        // Shard-to-shard trace protocol (/v2-only, binary, read only):
        // GET serves one trace from memory.
        ("GET", path) if path.starts_with(TRACE_PATH) => {
            ("GET /v2/cache/trace/:key", Pool(handlers::trace_get))
        }
        (_, path) if path.starts_with(TRACE_PATH) => (
            "method_not_allowed",
            Loop(Response::error(405, "method not allowed for this path")),
        ),
        // Admin surface is /v2-only, like uploads.
        ("POST", "/v2/admin/drain") => ("POST /v2/admin/drain", Loop(handlers::drain(state, V2))),
        ("GET", "/v2/admin/topology") => (
            "GET /v2/admin/topology",
            Loop(handlers::topology_get(state, V2)),
        ),
        ("POST", "/v2/admin/topology") => {
            ("POST /v2/admin/topology", Split(handlers::topology_put))
        }
        // Known admin paths answer wrong-method hits with an enveloped
        // /v2 error (the path exists, only the verb is wrong); the bare
        // data paths below keep their historical unenveloped 405.
        (_, "/v2/admin/drain" | "/v2/admin/topology") => (
            "method_not_allowed",
            Loop(handlers::admin_method_not_allowed()),
        ),
        (
            _,
            "/healthz" | "/metrics" | "/v1/jobs" | "/v1/simulate" | "/v1/recommend" | "/v1/sweep"
            | "/v2/jobs" | "/v2/simulate" | "/v2/recommend" | "/v2/sweep" | "/v2/matrices",
        ) => (
            "method_not_allowed",
            Loop(Response::error(405, "method not allowed for this path")),
        ),
        _ => ("not_found", Loop(Response::error(404, "no such endpoint"))),
    };
    reply.set_route(label);
    match handler {
        Loop(response) => reply.send(response),
        Split(handler) => handler(state, req, reply),
        Pool(handler) => {
            let st = Arc::clone(state);
            queue::admit(&state.pool, reply, move |reply| handler(&st, req, reply));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer_memo::AnswerMemoStats;
    use crate::http::{Parsed, RequestParser};
    use crate::{start, ServeConfig};
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    /// Blanks the digits after every `key` so wall-clock noise
    /// (`sim_ms`, and the `content-length` it shifts) can't fail a byte
    /// comparison.
    fn zero_field(text: &str, key: &str) -> String {
        let mut parts = text.split(key);
        let mut out = parts.next().unwrap_or_default().to_string();
        for part in parts {
            out.push_str(key);
            out.push_str(part.trim_start_matches(|c: char| {
                c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')
            }));
        }
        out
    }

    fn normalize(raw: &[u8]) -> String {
        let text = zero_field(&String::from_utf8_lossy(raw), "\"sim_ms\":");
        zero_field(&text, "content-length: ")
    }

    fn request(method: &str, target: &str, body: &str) -> Vec<u8> {
        format!(
            "{method} {target} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// The bytes `route` renders for `raw` with no reactor in between.
    fn in_process(state: &Arc<AppState>, raw: &[u8]) -> Vec<u8> {
        let mut parser = RequestParser::new();
        parser.feed(raw);
        let Parsed::Request(req) = parser.next_request() else {
            panic!("test request must parse");
        };
        let (reply, answers) = Reply::detached(ApiVersion::of_path(&req.path));
        route(state, *req, reply);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let [answer] = answers().as_slice() {
                return answer.clone().into_bytes();
            }
            assert!(Instant::now() < deadline, "no answer");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn reactor_wire_bytes_match_in_process_route() {
        let server = start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("server boots");
        let over_the_wire = |raw: &[u8]| {
            let mut stream = std::net::TcpStream::connect(server.addr).expect("connect");
            let limit = Some(Duration::from_secs(60));
            stream.set_read_timeout(limit).expect("read timeout");
            stream.write_all(raw).expect("write request");
            let mut out = Vec::new();
            stream.read_to_end(&mut out).expect("read response");
            out
        };
        let sim = r#"{"kernel": "spmspv", "matrix": "R09", "config_name": "baseline"}"#;
        let typo = r#"{"kernel": "spmspv", "matrix": "R09", "confg_name": "maximum"}"#;
        let traffic: &[(&str, &str, &str)] = &[
            // Warms the process-wide trace cache so every later pass
            // sees the same `cached` flag.
            ("POST", "/v1/simulate", sim),
            ("GET", "/healthz", ""),
            ("GET", "/nope", ""),
            ("POST", "/healthz", "{}"),
            ("POST", "/v1/simulate", "not json"),
            ("POST", "/v2/simulate", "not json"),
            ("POST", "/v1/simulate", sim),
            ("POST", "/v2/simulate", sim),
            ("POST", "/v2/simulate", typo),
            ("GET", "/v1/jobs", ""),
            ("GET", "/v2/jobs/999999", ""),
        ];
        for (i, (method, target, body)) in traffic.iter().enumerate() {
            let raw = request(method, target, body);
            let wire = normalize(&over_the_wire(&raw));
            let direct = normalize(&in_process(&server.state, &raw));
            if i > 0 {
                assert_eq!(wire, direct, "the reactor altered {method} {target}");
            }
        }
        server.shutdown();
    }

    #[test]
    fn memo_answers_match_the_decode_path_byte_for_byte() {
        let boot = || {
            start(ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                ..ServeConfig::default()
            })
            .expect("server boots")
        };
        let sim = r#"{"kernel": "spmv", "matrix": "R09", "config_name": "maximum"}"#;
        let rec = format!(
            r#"{{"kernel": "spmspv", "mode": "PowerPerformance", "telemetry": {}, "current": {}, "policy": null}}"#,
            serde_json::to_string(&transmuter::counters::Telemetry::default()).unwrap(),
            serde_json::to_string(&transmuter::config::TransmuterConfig::maximum()).unwrap(),
        );
        let traffic = [
            ("/v1/simulate", sim),
            ("/v2/simulate", sim),
            ("/v1/recommend", rec.as_str()),
            ("/v2/recommend", rec.as_str()),
        ];
        // One daemon simulates the trace and loads the model, both
        // process-wide; a second one, whose memo is empty, answers each
        // body on the decode path first and from the memo after.
        let warm = boot();
        for (target, body) in traffic {
            in_process(&warm.state, &request("POST", target, body));
        }
        let server = boot();
        let memo = &server.state.answers;
        // Sends `raw` until the memo's `counter` moves: a probe that
        // finds the trace cache's lock held by a concurrent test gives
        // up, and the pool answers instead.
        let until = |raw: &[u8], counter: fn(&AnswerMemoStats) -> u64| {
            for _ in 0..100 {
                let before = counter(&memo.stats());
                let answer = in_process(&server.state, raw);
                if counter(&memo.stats()) > before {
                    return answer;
                }
            }
            panic!("the answer memo never moved");
        };
        for (target, body) in traffic {
            let raw = request("POST", target, body);
            let decoded = until(&raw, |s| s.fills);
            let remembered = until(&raw, |s| s.hits);
            assert_eq!(
                normalize(&remembered),
                normalize(&decoded),
                "POST {target}: memo vs decode path"
            );
            assert!(normalize(&decoded).starts_with("HTTP/1.1 200 OK"));
        }
        server.shutdown();
        warm.shutdown();
    }
}
