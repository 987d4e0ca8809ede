//! Adversarial-client tests for the reactor serve core: slow clients,
//! oversized heads, mid-body disconnects, half-closed peers,
//! connection-cap shedding, graceful drain, a loop thread that keeps
//! answering while every pool worker is busy, and the fixed per-request
//! cost of a loop answer (wakeups, timer hints).
//!
//! Each test boots its own server on an ephemeral port. The trace
//! cache is process-wide, so only two tests simulate, each on a matrix
//! no other test here touches: the busy-pool sweep (R16) and the
//! half-closed cold simulate (R09). Every other test sticks to
//! cache-free endpoints.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serve::http::{read_response, ResponseParser};
use serve::{start, ServeConfig};

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_cap: 16,
        ..ServeConfig::default()
    }
}

/// One self-framing request: `connection: close` makes the raw
/// response bytes exactly "everything until EOF".
fn close_request(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nhost: reactor-test\r\nconnection: close\r\n\
         content-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends raw bytes, returns everything the server sends back before
/// closing (tolerating a reset after partial data — some adversarial
/// exchanges end in one).
fn raw_roundtrip(addr: &SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(raw).expect("write request");
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) if !out.is_empty() => break,
            Err(e) => panic!("read: {e}"),
        }
    }
    out
}

/// A keep-alive connection with a generous read timeout.
fn keep_alive(addr: &SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// A keep-alive `GET` with no body.
fn get_request(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: reactor-test\r\ncontent-length: 0\r\n\r\n").into_bytes()
}

/// Writes `raw`, shuts the write side (the FIN follows the request at
/// once) and returns everything the server sends before it closes.
fn half_closed_roundtrip(addr: &SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream.write_all(raw).expect("write request");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream
        .read_to_end(&mut out)
        .expect("read until the server closes");
    out
}

fn status_of(raw: &[u8]) -> u16 {
    let text = String::from_utf8_lossy(raw);
    let line = text.lines().next().unwrap_or_default();
    line.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in: {line:?}"))
}

/// The start of an error envelope carrying `code`.
fn envelope(code: &str) -> String {
    format!(r#"{{"v": 2, "data": null, "error": {{"code":"{code}","message":"#)
}

/// Digs a field out of a JSON object tree.
fn field(value: &serde::Value, path: &[&str]) -> Option<serde::Value> {
    let mut cur = value.clone();
    for key in path {
        let serde::Value::Obj(pairs) = cur else {
            return None;
        };
        cur = pairs.into_iter().find(|(k, _)| k == key)?.1;
    }
    Some(cur)
}

fn metrics_doc(addr: &SocketAddr) -> serde::Value {
    let raw = raw_roundtrip(addr, &close_request("GET", "/metrics", ""));
    let text = String::from_utf8_lossy(&raw);
    let body = text.split("\r\n\r\n").nth(1).expect("metrics body");
    serde_json::parse_value_str(body).expect("metrics is JSON")
}

fn metric_u64(doc: &serde::Value, path: &[&str]) -> u64 {
    match field(doc, path) {
        Some(serde::Value::UInt(u)) => u,
        Some(serde::Value::Int(i)) => u64::try_from(i).expect("non-negative"),
        other => panic!("expected integer at {path:?}, got {other:?}"),
    }
}

#[test]
fn reactor_serves_pipelined_requests_in_order() {
    let server = start(config()).expect("server boots");
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    // Two requests in one write; the second carries `connection: close`
    // so the full exchange self-frames.
    let mut wire = Vec::new();
    wire.extend_from_slice(b"GET /healthz HTTP/1.1\r\nhost: pipeline\r\ncontent-length: 0\r\n\r\n");
    wire.extend_from_slice(&close_request("GET", "/nope", ""));
    stream.write_all(&wire).expect("write pipelined pair");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read both responses");
    let text = String::from_utf8_lossy(&out);
    let first = text.find("HTTP/1.1 200 OK").expect("healthz answered");
    let second = text.find("HTTP/1.1 404").expect("404 answered");
    assert!(first < second, "responses out of order: {text}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Adversarial clients
// ---------------------------------------------------------------------------

#[test]
fn slowloris_connection_hits_idle_timeout() {
    let mut cfg = config();
    cfg.idle_timeout_ms = 250;
    let server = start(cfg).expect("server boots");

    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // A partial request line, then silence: the idle deadline is set on
    // entering the read state and never refreshed by dribbled bytes.
    stream.write_all(b"GET /heal").expect("partial write");
    let started = Instant::now();
    let mut buf = [0u8; 64];
    let n = stream
        .read(&mut buf)
        .expect("server should close, not stall");
    assert_eq!(n, 0, "expected clean EOF, got {n} bytes");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "idle close took {:?}",
        started.elapsed()
    );

    let doc = metrics_doc(&server.addr);
    assert!(metric_u64(&doc, &["reactor", "idle_closed_total"]) >= 1);
    server.shutdown();
}

#[test]
fn oversized_request_line_gets_431() {
    let server = start(config()).expect("server boots");
    // More than MAX_HEAD_BYTES with no terminator: the parser must give
    // up with 431, not buffer forever.
    let raw = vec![b'A'; serve::http::MAX_HEAD_BYTES + 1024];
    let resp = raw_roundtrip(&server.addr, &raw);
    let text = String::from_utf8_lossy(&resp);
    assert_eq!(status_of(&resp), 431, "got: {text}");
    assert!(
        text.contains(&envelope("payload_too_large")),
        "body: {text}"
    );
    server.shutdown();
}

#[test]
fn mid_body_disconnect_leaves_server_healthy() {
    let server = start(config()).expect("server boots");
    for _ in 0..4 {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream
            .write_all(
                b"POST /v2/simulate HTTP/1.1\r\nhost: quitter\r\ncontent-length: 1000\r\n\r\npartial",
            )
            .expect("partial body");
        drop(stream);
    }
    // The reactor must fold those in without wedging a slot or a worker.
    let health = raw_roundtrip(&server.addr, &close_request("GET", "/healthz", ""));
    assert_eq!(status_of(&health), 200);
    server.shutdown();
}

#[test]
fn connection_cap_overflow_sheds_503() {
    let mut cfg = config();
    cfg.max_conns = 2;
    let server = start(cfg).expect("server boots");

    // Two held keep-alive connections, each confirmed accepted by a
    // round-trip (connect() alone only proves the SYN queue took us).
    let mut held = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(server.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: holder\r\ncontent-length: 0\r\n\r\n")
            .expect("write");
        let mut buf = [0u8; 4096];
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0 && buf.starts_with(b"HTTP/1.1 200"));
        held.push(stream);
    }

    // The third connection is over the cap: best-effort 503 then close.
    let resp = raw_roundtrip(&server.addr, &close_request("GET", "/healthz", ""));
    assert_eq!(
        status_of(&resp),
        503,
        "got: {}",
        String::from_utf8_lossy(&resp)
    );
    let text = String::from_utf8_lossy(&resp);
    assert!(text.contains(&envelope("overloaded")), "body: {text}");
    assert!(text.contains("retry_after_ms"), "body: {text}");

    drop(held);
    // With the held slots released, service resumes and the counters
    // recorded the shed. The probe itself can still catch a 503 while
    // the held sockets tear down, so retry until it lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let raw = raw_roundtrip(&server.addr, &close_request("GET", "/metrics", ""));
        if status_of(&raw) == 200 {
            let text = String::from_utf8_lossy(&raw);
            let body = text.split("\r\n\r\n").nth(1).expect("metrics body");
            let doc = serde_json::parse_value_str(body).expect("metrics is JSON");
            if metric_u64(&doc, &["reactor", "shed_503_total"]) >= 1
                && metric_u64(&doc, &["reactor", "accept_overflows_total"]) >= 1
            {
                break;
            }
        }
        assert!(Instant::now() < deadline, "shed counters never appeared");
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
}

#[test]
fn reactor_metrics_report_gauges() {
    let server = start(config()).expect("server boots");
    let health = raw_roundtrip(&server.addr, &close_request("GET", "/healthz", ""));
    assert_eq!(status_of(&health), 200);
    let doc = metrics_doc(&server.addr);
    assert!(metric_u64(&doc, &["reactor", "accepted_total"]) >= 2);
    assert!(metric_u64(&doc, &["reactor", "epoll_wakeups_total"]) >= 1);
    server.shutdown();
}

#[test]
fn health_and_metrics_answer_while_every_worker_is_busy() {
    let mut cfg = config();
    cfg.workers = 1;
    let server = start(cfg).expect("server boots");
    // A sweep of many configurations holds the only pool worker (about
    // a second in release builds) once its 202 is out.
    let accepted = raw_roundtrip(
        &server.addr,
        &close_request(
            "POST",
            "/v2/sweep",
            r#"{"kernel": "spmspv", "matrix": "R16", "sampled": 256}"#,
        ),
    );
    assert_eq!(
        status_of(&accepted),
        202,
        "got: {}",
        String::from_utf8_lossy(&accepted)
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.state.pool.in_flight() == 0 {
        assert!(Instant::now() < deadline, "the sweep never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    for target in ["/healthz", "/metrics"] {
        let asked = Instant::now();
        let resp = raw_roundtrip(&server.addr, &close_request("GET", target, ""));
        let took = asked.elapsed();
        assert_eq!(status_of(&resp), 200, "{target}");
        assert!(took < Duration::from_secs(1), "{target} took {took:?}");
    }
    assert_eq!(
        server.state.pool.in_flight(),
        1,
        "the sweep must still hold the worker, or the test proved nothing"
    );
    // Let the sweep finish so the server shuts down with an idle pool.
    while server.state.pool.in_flight() > 0 {
        assert!(
            Instant::now() < deadline + Duration::from_secs(120),
            "sweep never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

#[test]
fn drain_endpoint_stops_reactor_engine() {
    let server = start(config()).expect("server boots");
    let addr = server.addr;
    let resp = raw_roundtrip(&addr, &close_request("POST", "/v2/admin/drain", ""));
    assert_eq!(
        status_of(&resp),
        200,
        "got: {}",
        String::from_utf8_lossy(&resp)
    );
    assert!(
        server.state.drain.wait_completed(Duration::from_secs(30)),
        "drain never completed"
    );
    // The listener is gone: new connects are refused.
    assert!(
        TcpStream::connect(addr).is_err(),
        "drained server still accepting"
    );
}

// ---------------------------------------------------------------------------
// Half-closed peers
// ---------------------------------------------------------------------------

#[test]
fn requests_sent_with_the_clients_fin_are_answered() {
    let server = start(config()).expect("server boots");
    let answered = (0..100)
        .filter(|_| {
            let resp = half_closed_roundtrip(&server.addr, &get_request("/healthz"));
            !resp.is_empty() && status_of(&resp) == 200
        })
        .count();
    assert_eq!(answered, 100, "half-closed requests left unanswered");
    // Two pipelined requests, then the FIN: both answers, in order.
    let mut wire = get_request("/v2/jobs/1");
    wire.extend_from_slice(&get_request("/v2/jobs/2"));
    let resp = half_closed_roundtrip(&server.addr, &wire);
    let text = String::from_utf8_lossy(&resp);
    let first = text.find("no such job 1").expect("first answered");
    let second = text.find("no such job 2").expect("second answered");
    assert!(first < second, "answers out of order: {text}");
    server.shutdown();
}

#[test]
fn cold_simulate_sent_with_the_clients_fin_gets_its_200() {
    let server = start(config()).expect("server boots");
    // A cold key: the trace is simulated on a pool worker, and the
    // answer reaches the reactor after the FIN did.
    let body = r#"{"kernel": "spmspv", "matrix": "R09", "config_name": "baseline"}"#;
    let raw = format!(
        "POST /v2/simulate HTTP/1.1\r\nhost: reactor-test\r\ncontent-length: {}\r\n\
         content-type: application/json\r\n\r\n{body}",
        body.len()
    );
    let resp = half_closed_roundtrip(&server.addr, raw.as_bytes());
    let text = String::from_utf8_lossy(&resp);
    assert!(!resp.is_empty(), "closed without an answer");
    assert_eq!(status_of(&resp), 200, "got: {text}");
    assert!(
        text.contains(r#""cached":false"#),
        "not a pool answer: {text}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Per-request cost of a loop answer
// ---------------------------------------------------------------------------

/// Sends `n` sequential keep-alive `GET /healthz`, each answered before
/// the next is written.
fn sequential_healthz(stream: &mut TcpStream, n: usize) {
    let request = get_request("/healthz");
    for _ in 0..n {
        stream.write_all(&request).expect("write");
        let resp = read_response(stream).expect("answer");
        assert_eq!(resp.status, 200);
    }
}

#[test]
fn loop_answers_cost_one_wakeup_each() {
    let server = start(config()).expect("server boots");
    let mut stream = keep_alive(&server.addr);
    sequential_healthz(&mut stream, 10);
    let before = metric_u64(
        &metrics_doc(&server.addr),
        &["reactor", "epoll_wakeups_total"],
    );
    const N: usize = 2_000;
    sequential_healthz(&mut stream, N);
    let after = metric_u64(
        &metrics_doc(&server.addr),
        &["reactor", "epoll_wakeups_total"],
    );
    // The two /metrics connections add a few wakeups of their own.
    let per_request = (after - before) as f64 / N as f64;
    assert!(
        per_request <= 1.1,
        "{per_request:.3} epoll wakeups per loop-answered request"
    );
    server.shutdown();
}

#[test]
fn timer_wheel_holds_one_hint_per_connection() {
    let server = start(config()).expect("server boots");
    let mut stream = keep_alive(&server.addr);
    sequential_healthz(&mut stream, 10_000);
    // The keep-alive connection and this /metrics connection are the
    // only connections the server ever saw.
    let doc = metrics_doc(&server.addr);
    let hints = metric_u64(&doc, &["reactor", "timer_entries"]);
    assert!(hints <= 2, "{hints} timer hints for 2 connections");
    assert_eq!(metric_u64(&doc, &["reactor", "accepted_total"]), 2);
    server.shutdown();
}

#[test]
fn pipelined_burst_past_one_read_is_answered_in_order() {
    let server = start(config()).expect("server boots");
    let mut stream = keep_alive(&server.addr);
    const N: usize = 400;
    let wire: Vec<u8> = (0..N)
        .flat_map(|i| get_request(&format!("/v2/jobs/{i}")))
        .collect();
    assert!(
        wire.len() > 16 * 1024,
        "the burst must take more than one read"
    );
    stream.write_all(&wire).expect("write the burst");
    let mut parser = ResponseParser::new();
    let mut buf = [0u8; 16 * 1024];
    for i in 0..N {
        let resp = loop {
            if let Some(resp) = parser.next_response().expect("well-formed answers") {
                break resp;
            }
            let n = stream.read(&mut buf).expect("read answers");
            assert!(n > 0, "closed after {i} of {N} answers");
            parser.feed(&buf[..n]);
        };
        assert_eq!(resp.status, 404);
        let body = String::from_utf8_lossy(&resp.body);
        assert!(
            body.contains(&format!("no such job {i}\"")),
            "answer {i}: {body}"
        );
    }
    server.shutdown();
}

#[test]
fn request_written_one_byte_per_write_is_answered() {
    let server = start(config()).expect("server boots");
    let mut stream = keep_alive(&server.addr);
    for byte in get_request("/healthz") {
        stream.write_all(&[byte]).expect("write one byte");
        std::thread::sleep(Duration::from_millis(1));
    }
    let resp = read_response(&stream).expect("answer");
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn idle_connection_closes_at_the_timeout_after_serving_requests() {
    let mut cfg = config();
    cfg.idle_timeout_ms = 300;
    let server = start(cfg).expect("server boots");
    let mut stream = keep_alive(&server.addr);
    // Busy for twice the timeout: the hint set at accept fires while
    // the connection is active and must reschedule, not close it.
    let busy_until = Instant::now() + Duration::from_millis(600);
    while Instant::now() < busy_until {
        sequential_healthz(&mut stream, 1);
        std::thread::sleep(Duration::from_millis(50));
    }
    sequential_healthz(&mut stream, 1);
    let idle_since = Instant::now();
    let n = stream
        .read(&mut [0u8; 64])
        .expect("server should close, not stall");
    let idle = idle_since.elapsed();
    assert_eq!(n, 0, "expected clean EOF, got {n} bytes");
    assert!(
        idle >= Duration::from_millis(250) && idle < Duration::from_secs(5),
        "closed {idle:?} after the last answer, timeout 300 ms"
    );
    let doc = metrics_doc(&server.addr);
    assert!(metric_u64(&doc, &["reactor", "idle_closed_total"]) >= 1);
    server.shutdown();
}
