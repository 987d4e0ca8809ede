//! Memory hits answered on the reactor's loop thread.
//!
//! With the only pool worker held and the only queue slot full, a
//! request that needs the pool is refused with 429 at once. So a 200 in
//! that state can only come from the loop: warm simulate keys and
//! recommend bodies for a loaded model answer 200, while a cold key, a
//! body past the loop's decode bound and an uploaded-matrix id get 429.
//! The loop's answers must equal the pool's, byte for byte, apart from
//! `cached` and `sim_ms`.
//!
//! One sequential `#[test]`: the trace cache and model memo are
//! process-wide, so this file runs in its own process.

use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serve::handlers::LOOP_BODY_MAX;
use serve::http::{read_response, write_request, Response};
use serve::{start, ServeConfig, ServerHandle};

fn post(addr: &SocketAddr, target: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", target, Some(body)).expect("write");
    read_response(&stream).expect("read")
}

fn body_str(resp: &Response) -> &str {
    std::str::from_utf8(&resp.body).expect("UTF-8 body")
}

/// Replaces the value after every `key` up to the next `,` or `}` with
/// `_`, so fields that legitimately differ between two answers drop out
/// of a byte comparison.
fn blank(text: &str, key: &str) -> String {
    let mut parts = text.split(key);
    let mut out = parts.next().unwrap_or_default().to_string();
    for part in parts {
        out.push_str(key);
        out.push('_');
        out.push_str(&part[part.find([',', '}']).unwrap_or(part.len())..]);
    }
    out
}

/// A simulate body without its server-side timing and cache flag.
fn stable(resp: &Response) -> String {
    blank(&blank(body_str(resp), "\"sim_ms\":"), "\"cached\":")
}

fn assert_cached(resp: &Response, cached: bool) {
    let flag = format!("\"cached\":{cached}");
    assert!(
        body_str(resp).contains(&flag),
        "want {flag}: {}",
        body_str(resp)
    );
}

fn assert_queue_full(resp: &Response, what: &str) {
    assert_eq!(
        resp.status,
        429,
        "{what} must go to the pool: {}",
        body_str(resp)
    );
    assert!(
        body_str(resp).contains("\"queue_full\""),
        "{what}: {}",
        body_str(resp)
    );
}

fn simulate_body(matrix: &str, config_name: &str) -> String {
    format!(r#"{{"kernel": "spmspv", "matrix": "{matrix}", "config_name": "{config_name}"}}"#)
}

/// `body` with whitespace after its opening brace, so it still decodes
/// to the same request but is larger than the loop decodes.
fn padded(body: &str) -> String {
    let pad = " ".repeat(LOOP_BODY_MAX);
    body.replacen('{', &format!("{{{pad}"), 1)
}

fn wait_until_idle(server: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.state.pool.in_flight() > 0 || server.state.pool.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "the pool never went idle");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn memory_hits_answer_on_the_loop_while_the_pool_is_full() {
    let server = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .expect("server boots");
    let addr = server.addr;

    // -- cold answers, computed on the pool --------------------------
    let warm_v1 = simulate_body("R09", "baseline");
    let warm_v2 = simulate_body("R09", "best_avg_cache");
    let cold_v1 = post(&addr, "/v1/simulate", &warm_v1);
    assert_eq!(cold_v1.status, 200, "{}", body_str(&cold_v1));
    assert_cached(&cold_v1, false);
    let cold_v2 = post(&addr, "/v2/simulate", &warm_v2);
    assert_eq!(cold_v2.status, 200, "{}", body_str(&cold_v2));
    assert_cached(&cold_v2, false);
    let rec_body = format!(
        r#"{{"kernel": "spmspv", "telemetry": {}, "current": {}, "policy": null, "last_epoch_time_s": 0.01}}"#,
        serde_json::to_string(&transmuter::counters::Telemetry::default()).unwrap(),
        serde_json::to_string(&transmuter::config::TransmuterConfig::baseline()).unwrap(),
    );
    // The first recommend loads the model on the pool.
    let rec_loaded = post(&addr, "/v2/recommend", &rec_body);
    assert_eq!(rec_loaded.status, 200, "{}", body_str(&rec_loaded));
    let topology = r#"{"epoch": 1, "shards": []}"#;
    assert!(topology.len() <= LOOP_BODY_MAX && padded(topology).len() > LOOP_BODY_MAX);
    wait_until_idle(&server);

    // -- hold the only worker and fill the only queue slot -----------
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    server
        .state
        .pool
        .try_submit(move || {
            started_tx.send(()).expect("signal start");
            let _ = release_rx.recv();
        })
        .expect("the holding job is admitted");
    started_rx.recv().expect("the worker is held");
    server
        .state
        .pool
        .try_submit(|| {})
        .expect("the queue slot takes one job");
    assert_eq!(server.state.pool.queue_depth(), 1);
    let hits_before = sparseadapt::trace_cache::TraceCache::global().stats().hits;

    // -- memory hits answer on the loop ------------------------------
    let loop_v1 = post(&addr, "/v1/simulate", &warm_v1);
    assert_eq!(loop_v1.status, 200, "{}", body_str(&loop_v1));
    assert_cached(&loop_v1, true);
    assert_eq!(stable(&loop_v1), stable(&cold_v1), "v1 loop vs pool answer");
    let loop_v2 = post(&addr, "/v2/simulate", &warm_v2);
    assert_eq!(loop_v2.status, 200, "{}", body_str(&loop_v2));
    assert_cached(&loop_v2, true);
    assert_eq!(stable(&loop_v2), stable(&cold_v2), "v2 loop vs pool answer");
    // The same trace in the other dialect: the envelope wraps the bare
    // document the loop serves on /v1.
    let loop_v2_of_v1 = post(&addr, "/v2/simulate", &warm_v1);
    assert_eq!(loop_v2_of_v1.status, 200, "{}", body_str(&loop_v2_of_v1));
    assert_eq!(
        stable(&loop_v2_of_v1),
        format!("{{\"v\": 2, \"data\": {}}}", stable(&loop_v1))
    );
    let hits = sparseadapt::trace_cache::TraceCache::global().stats().hits - hits_before;
    assert_eq!(hits, 3, "each loop answer counts one trace-cache hit");
    let rec = post(&addr, "/v2/recommend", &rec_body);
    assert_eq!(rec.status, 200, "{}", body_str(&rec));
    assert_eq!(
        body_str(&rec),
        body_str(&rec_loaded),
        "loop vs pool recommend"
    );
    let rec_v1 = post(&addr, "/v1/recommend", &rec_body);
    assert_eq!(rec_v1.status, 200, "{}", body_str(&rec_v1));
    // Bodies that do not decode are answered where they were decoded.
    assert_eq!(post(&addr, "/v2/simulate", "not json").status, 400);
    assert_eq!(post(&addr, "/v2/recommend", "{}").status, 400);

    // -- everything else goes to the pool, which is full -------------
    let cold = simulate_body("R11", "maximum");
    assert_queue_full(&post(&addr, "/v2/simulate", &cold), "a cold key");
    assert_queue_full(
        &post(&addr, "/v2/simulate", &padded(&warm_v2)),
        "a warm key past the loop's body bound",
    );
    assert_queue_full(
        &post(
            &addr,
            "/v2/simulate",
            r#"{"kernel": "spmv", "matrix": "mtx:0000000000000000"}"#,
        ),
        "an uploaded-matrix id",
    );
    assert_queue_full(
        &post(&addr, "/v2/recommend", &padded(&rec_body)),
        "a recommend body past the loop's body bound",
    );
    assert_queue_full(
        &post(&addr, "/v2/admin/topology", &padded(topology)),
        "an oversized topology push",
    );
    assert_eq!(
        server.state.pool.in_flight(),
        1,
        "the holding job must still hold the worker, or the test proved nothing"
    );

    // -- once the worker is free, the pool answers again -------------
    release_tx.send(()).expect("release the worker");
    wait_until_idle(&server);
    let cold_answer = post(&addr, "/v2/simulate", &cold);
    assert_eq!(cold_answer.status, 200, "{}", body_str(&cold_answer));
    assert_cached(&cold_answer, false);
    let pushed = post(&addr, "/v2/admin/topology", &padded(topology));
    assert_eq!(pushed.status, 200, "{}", body_str(&pushed));
    assert!(
        body_str(&pushed).contains("\"accepted\":true"),
        "{}",
        body_str(&pushed)
    );
    server.shutdown();
}
