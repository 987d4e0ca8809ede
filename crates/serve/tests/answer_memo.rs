//! The answer memo gives a remembered simulate answer only while the
//! trace it summarizes is still in memory.
//!
//! One sequential `#[test]`: it clears the process-wide trace cache, so
//! this file runs in its own process.

use std::net::{SocketAddr, TcpStream};

use serve::answer_memo::AnswerMemoStats;
use serve::http::{read_response, write_request, Response};
use serve::{start, ServeConfig, ServerHandle};
use sparseadapt::trace_cache::TraceCache;

fn post(addr: &SocketAddr, target: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", target, Some(body)).expect("write");
    read_response(&stream).expect("read")
}

/// Sends `body` and checks the answer's status and `cached` flag.
fn simulate(server: &ServerHandle, body: &str, cached: bool) -> String {
    let resp = post(&server.addr, "/v2/simulate", body);
    let text = String::from_utf8(resp.body).expect("UTF-8 body");
    assert_eq!(resp.status, 200, "{text}");
    assert!(text.contains(&format!("\"cached\":{cached}")), "{text}");
    text
}

/// A body without its `sim_ms` value and its `cached` flag.
fn stable(text: &str) -> String {
    let cut = text.rfind("\"cached\":").expect("a simulate answer");
    text[..cut].to_string()
}

fn memo(server: &ServerHandle) -> AnswerMemoStats {
    server.state.answers.stats()
}

#[test]
fn a_remembered_body_goes_back_to_the_pool_once_its_trace_is_gone() {
    let server = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("server boots");
    let body = r#"{"kernel": "sptrsv", "matrix": "R09", "config_name": "best_avg_cache"}"#;
    let traces = || TraceCache::global().stats();

    // Simulated on the pool, then decoded on the loop twice (the first
    // loop answer is only noted, the second remembered), then answered
    // from the memo.
    let cold = simulate(&server, body, false);
    assert_eq!(memo(&server).fills, 0, "a pool answer is not remembered");
    simulate(&server, body, true);
    assert_eq!(memo(&server).fills, 0, "a first loop answer is only noted");
    let decoded = simulate(&server, body, true);
    assert_eq!(memo(&server).fills, 1);
    let hits = traces().hits;
    let remembered = simulate(&server, body, true);
    assert_eq!(memo(&server).hits, 1);
    assert_eq!(traces().hits, hits + 1, "a memo hit is a trace-cache hit");
    assert_eq!(stable(&remembered), stable(&decoded));
    assert_eq!(stable(&remembered), stable(&cold));

    // With the trace gone, the remembered body is simulated again on
    // the pool, and the memo is not counted.
    TraceCache::global().clear();
    let again = simulate(&server, body, false);
    assert_eq!(stable(&again), stable(&cold));
    assert_eq!((traces().hits, traces().misses), (0, 1));
    assert_eq!((memo(&server).hits, memo(&server).fills), (1, 1));

    // Once the pool has the trace in memory again, the remembered body
    // is answered from the memo again.
    let back = simulate(&server, body, true);
    assert_eq!(stable(&back), stable(&cold));
    assert_eq!((memo(&server).hits, memo(&server).fills), (2, 1));
    assert_eq!(traces().hits, 1);
    server.shutdown();
}
