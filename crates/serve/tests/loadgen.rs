//! The load generator against a stub server whose timing it controls:
//! a request that queues behind a slow one keeps its wait.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use serve::http::{response_bytes, Parsed, RequestParser, Response};
use serve::loadgen::{run, LoadgenConfig};

/// Answers every request on `stream` with `200 {}`, holding the first
/// response for `hold`.
fn answer(stream: TcpStream, mut hold: Duration) {
    let mut parser = RequestParser::new();
    let mut buf = [0u8; 4096];
    loop {
        match parser.next_request() {
            Parsed::Request(_) => {
                std::thread::sleep(std::mem::take(&mut hold));
                let wire = response_bytes(&Response::json(200, "{}"), true);
                if (&stream).write_all(&wire).is_err() {
                    return;
                }
            }
            Parsed::Incomplete => match (&stream).read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => parser.feed(&buf[..n]),
            },
            Parsed::Malformed(_) => return,
        }
    }
}

/// A stub daemon: the first connection's first response is held for
/// `hold`; every later connection (the closing `/metrics` scrape) is
/// answered at once.
fn stub(hold: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let mut hold = hold;
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let hold = std::mem::take(&mut hold);
            std::thread::spawn(move || answer(stream, hold));
        }
    });
    addr
}

#[test]
fn replayed_request_queued_behind_a_slow_one_keeps_its_wait() {
    let addr = stub(Duration::from_millis(50));
    let dir = std::env::temp_dir().join(format!("sa_loadgen_lateness_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("replay.jsonl");
    std::fs::write(
        &log,
        "{\"ts_ms\": 0, \"method\": \"POST\", \"target\": \"/v2/simulate\", \"body\": \"{}\"}\n\
         {\"ts_ms\": 5, \"method\": \"POST\", \"target\": \"/v2/simulate\", \"body\": \"{}\"}\n",
    )
    .expect("write log");
    let report = run(&LoadgenConfig {
        addr: addr.to_string(),
        connections: 1,
        replay: Some(log),
        ..LoadgenConfig::default()
    })
    .expect("replay runs");
    let _ = std::fs::remove_dir_all(dir);
    let warm = &report.warm;
    assert_eq!((warm.requests, warm.ok, warm.errors), (2, 2, 0));
    assert_eq!(warm.stalled, 1, "the second record waited for the first");
    // The second request was due at 5 ms but could only go out when the
    // first answered at ~50 ms: its latency counts from 5 ms. With two
    // samples, p50 is the smaller one.
    assert!(
        warm.p50_ms >= 40.0,
        "queued request lost its wait: latencies p50 {} / max {} ms",
        warm.p50_ms,
        warm.max_ms
    );
}
