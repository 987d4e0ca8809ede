//! End-to-end test of the daemon over real sockets.
//!
//! One sequential `#[test]` (not several): the trace cache and model
//! memo are process-wide, so concurrent test functions would race on
//! cache counters and make the herd and caching assertions flaky.

use std::net::TcpStream;
use std::sync::Barrier;

use serve::http::{read_response, write_request, Response};
use serve::{start, ServeConfig};

fn post(addr: &std::net::SocketAddr, target: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", target, Some(body.as_bytes())).expect("write");
    read_response(&stream).expect("read")
}

fn get(addr: &std::net::SocketAddr, target: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "GET", target, None).expect("write");
    read_response(&stream).expect("read")
}

fn body_str(resp: &Response) -> &str {
    std::str::from_utf8(&resp.body).expect("UTF-8 body")
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

fn parse(resp: &Response) -> serde::Value {
    serde_json::parse_value_str(body_str(resp)).expect("response is JSON")
}

fn as_u64(v: &serde::Value) -> u64 {
    match v {
        serde::Value::UInt(u) => *u,
        serde::Value::Int(i) => u64::try_from(*i).expect("non-negative"),
        other => panic!("expected integer, got {other:?}"),
    }
}

fn as_f64(v: &serde::Value) -> f64 {
    match v {
        serde::Value::Float(f) => *f,
        serde::Value::UInt(u) => *u as f64,
        serde::Value::Int(i) => *i as f64,
        other => panic!("expected number, got {other:?}"),
    }
}

/// The `data` document of a success envelope.
fn data_of(resp: &Response) -> serde::Value {
    let doc = parse(resp);
    assert_eq!(
        field(&doc, &["v"]),
        Some(serde::Value::UInt(2)),
        "{}",
        body_str(resp)
    );
    field(&doc, &["data"]).expect("enveloped data")
}

/// Asserts `resp` is `status` with the error envelope
/// `{"v": 2, "data": null, "error": {code, message, ...}}`.
fn assert_error(resp: &Response, status: u16, code: &str) {
    assert_eq!(resp.status, status, "body: {}", body_str(resp));
    let doc = parse(resp);
    assert_eq!(field(&doc, &["v"]), Some(serde::Value::UInt(2)));
    assert_eq!(field(&doc, &["data"]), Some(serde::Value::Null));
    assert_eq!(
        field(&doc, &["error", "code"]),
        Some(serde::Value::Str(code.to_string())),
        "body: {}",
        body_str(resp)
    );
    assert!(matches!(
        field(&doc, &["error", "message"]),
        Some(serde::Value::Str(_))
    ));
}

/// The status string of a job document.
fn status_of(job: &serde::Value) -> String {
    match field(job, &["status"]) {
        Some(serde::Value::Str(s)) => s,
        other => panic!("a job carries a status, got {other:?}"),
    }
}

#[test]
fn daemon_end_to_end() {
    let server = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_cap: 16,
        ..ServeConfig::default()
    })
    .expect("server boots");
    let addr = server.addr;

    // -- health and routing basics ------------------------------------
    let health = get(&addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(body_str(&health), "{\"ok\": true}");
    assert_error(&get(&addr, "/nope"), 404, "not_found");
    assert_error(&post(&addr, "/healthz", "{}"), 405, "method_not_allowed");
    assert_error(&get(&addr, "/v2/simulate"), 405, "method_not_allowed");
    assert_error(&get(&addr, "/v2/admin/drain"), 405, "method_not_allowed");
    // The retired /v1 dialect is an unknown path like any other.
    let sim_body = r#"{"kernel": "spmspv", "matrix": "R09", "config_name": "baseline"}"#;
    for (target, body) in [
        ("/v1/simulate", sim_body),
        ("/v1/recommend", "{}"),
        ("/v1/sweep", "{}"),
    ] {
        assert_error(&post(&addr, target, body), 404, "not_found");
    }
    for target in ["/v1/jobs", "/v1/jobs/1"] {
        assert_error(&get(&addr, target), 404, "not_found");
    }
    // Errors are one structured shape, in the envelope.
    assert_error(&post(&addr, "/v2/simulate", "not json"), 400, "bad_request");
    assert_error(
        &post(
            &addr,
            "/v2/simulate",
            r#"{"kernel": "gemm", "matrix": "R01"}"#,
        ),
        400,
        "bad_request",
    );
    let not_utf8 = {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_request(
            &mut stream,
            "POST",
            "/v2/simulate",
            Some(b"{\"kernel\": \"\xff\"}"),
        )
        .expect("write");
        read_response(&stream).expect("read")
    };
    assert_error(&not_utf8, 400, "bad_request");
    assert!(body_str(&not_utf8).contains("not UTF-8"));

    // -- every POST rejects an unknown top-level field ----------------
    let typo_body = r#"{"kernel": "spmspv", "matrix": "R09", "confg_name": "maximum"}"#;
    let strict = post(&addr, "/v2/simulate", typo_body);
    assert_error(&strict, 400, "unknown_field");
    let strict_msg = match field(&parse(&strict), &["error", "message"]) {
        Some(serde::Value::Str(s)) => s,
        other => panic!("expected error message, got {other:?}"),
    };
    assert!(
        strict_msg.contains("confg_name") && strict_msg.contains("config_name"),
        "message should name the offender and the known fields: {strict_msg}"
    );
    // Same contract on the other POST endpoints (a sweep is rejected
    // before any job is created).
    for (target, body) in [
        (
            "/v2/sweep",
            r#"{"kernel": "spmspv", "matrix": "R09", "samples": 4}"#,
        ),
        ("/v2/recommend", r#"{"kernel": "spmspv", "telemtry": {}}"#),
        ("/v2/matrices", r#"{"mtx": "x", "name": "wing"}"#),
    ] {
        assert_error(&post(&addr, target, body), 400, "unknown_field");
    }
    // A non-object body is a plain bad_request, not unknown_field.
    assert_error(&post(&addr, "/v2/sweep", "[1, 2]"), 400, "bad_request");

    // -- simulate: cold then cached -----------------------------------
    let first = post(&addr, "/v2/simulate", sim_body);
    assert_eq!(first.status, 200, "body: {}", body_str(&first));
    let first_doc = data_of(&first);
    assert_eq!(
        field(&first_doc, &["cached"]),
        Some(serde::Value::Bool(false))
    );
    assert!(as_f64(&field(&first_doc, &["summary", "gflops"]).expect("gflops")) > 0.0);
    assert!(as_u64(&field(&first_doc, &["summary", "epochs"]).expect("epochs")) > 0);

    let second = post(&addr, "/v2/simulate", sim_body);
    assert_eq!(second.status, 200);
    let second_doc = data_of(&second);
    assert_eq!(
        field(&second_doc, &["cached"]),
        Some(serde::Value::Bool(true)),
        "repeat of an identical request must be served from the trace cache"
    );
    // Identical inputs -> identical physics, whatever the cache did.
    assert_eq!(
        field(&first_doc, &["summary"]),
        field(&second_doc, &["summary"])
    );

    // -- a herd of identical cold requests: one simulation ------------
    // A fresh (matrix, config) pair, so the simulation is cold. The
    // first request to reach the trace cache simulates; every other one
    // waits on that key's slot (or, once the trace lands, hits it on
    // the loop) and renders its own answer from the same trace.
    let herd_body = r#"{"kernel": "spmspv", "matrix": "R10", "config_name": "best_avg_cache"}"#;
    let misses = || {
        let m = parse(&get(&addr, "/metrics"));
        as_u64(&field(&m, &["trace_cache", "misses"]).expect("misses"))
    };
    let misses_before = misses();
    let herd = 16;
    let barrier = Barrier::new(herd);
    let docs: Vec<serde::Value> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..herd)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    post(&addr, "/v2/simulate", herd_body)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let resp = h.join().expect("herd thread");
                assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
                data_of(&resp)
            })
            .collect()
    });
    let summary = field(&docs[0], &["summary"]).expect("summary");
    assert!(
        docs.iter()
            .all(|d| field(d, &["summary"]).as_ref() == Some(&summary)),
        "one summary for the whole herd"
    );
    let simulated = docs
        .iter()
        .filter(|d| field(d, &["cached"]) == Some(serde::Value::Bool(false)))
        .count();
    assert_eq!(simulated, 1, "exactly one answer simulates");
    assert_eq!(
        misses() - misses_before,
        1,
        "a herd of identical cold requests must cost one simulation"
    );

    // -- recommend ----------------------------------------------------
    let rec_body = format!(
        r#"{{"kernel": "spmspv", "telemetry": {}, "current": {}, "policy": null, "last_epoch_time_s": 0.01}}"#,
        serde_json::to_string(&transmuter::counters::Telemetry::default()).unwrap(),
        serde_json::to_string(&transmuter::config::TransmuterConfig::baseline()).unwrap(),
    );
    let rec = post(&addr, "/v2/recommend", &rec_body);
    assert_eq!(rec.status, 200, "body: {}", body_str(&rec));
    let rec_doc = data_of(&rec);
    assert!(field(&rec_doc, &["predicted"]).is_some());
    assert!(field(&rec_doc, &["chosen", "clock"]).is_some());
    assert!(matches!(
        field(&rec_doc, &["changed"]),
        Some(serde::Value::Arr(_))
    ));

    // -- async sweep job ----------------------------------------------
    let sweep = post(
        &addr,
        "/v2/sweep",
        r#"{"kernel": "spmspv", "matrix": "R09", "sampled": 3}"#,
    );
    assert_eq!(sweep.status, 202, "body: {}", body_str(&sweep));
    let accepted = data_of(&sweep);
    let job_id = as_u64(&field(&accepted, &["job_id"]).expect("job_id"));
    assert_eq!(
        field(&accepted, &["poll"]),
        Some(serde::Value::Str(format!("/v2/jobs/{job_id}")))
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let result = loop {
        let poll = get(&addr, &format!("/v2/jobs/{job_id}"));
        assert_eq!(poll.status, 200);
        let doc = data_of(&poll);
        match status_of(&doc).as_str() {
            "done" => break doc,
            "failed" => panic!("sweep failed: {}", body_str(&poll)),
            _ => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "sweep did not finish in time"
                );
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }
    };
    assert_eq!(
        as_u64(&field(&result, &["result", "configs"]).expect("configs")),
        3
    );
    assert!(
        as_f64(&field(&result, &["result", "best_perf", "gflops"]).expect("best gflops")) > 0.0
    );
    let listing = get(&addr, "/v2/jobs");
    assert_eq!(listing.status, 200);
    assert!(matches!(
        field(&data_of(&listing), &["jobs"]),
        Some(serde::Value::Arr(jobs)) if jobs.len() == 1
    ));
    assert_error(&get(&addr, "/v2/jobs/nope"), 400, "bad_request");
    assert_error(
        &get(&addr, &format!("/v2/jobs/{}", job_id + 1)),
        404,
        "not_found",
    );

    // -- matrix upload: content-addressed, deduplicated, usable -------
    let mtx_text = "%%MatrixMarket matrix coordinate real general\n\
                    4 4 7\n1 1 4.0\n2 1 -1.0\n2 2 5.0\n3 3 6.0\n4 2 1.5\n4 4 3.0\n3 1 2.0\n";
    let upload_body = serde_json::to_string(&serve::api::UploadMatrixRequest {
        mtx: mtx_text.to_string(),
    })
    .expect("upload body serializes");
    let up = post(&addr, "/v2/matrices", &upload_body);
    assert_eq!(up.status, 200, "body: {}", body_str(&up));
    let up_doc = parse(&up);
    let mtx_id = match field(&up_doc, &["data", "matrix"]) {
        Some(serde::Value::Str(id)) => id,
        other => panic!("upload must return a matrix id, got {other:?}"),
    };
    assert!(mtx_id.starts_with("mtx:"), "id: {mtx_id}");
    assert_eq!(
        field(&up_doc, &["data", "rows"]),
        Some(serde::Value::UInt(4))
    );
    assert_eq!(
        field(&up_doc, &["data", "cols"]),
        Some(serde::Value::UInt(4))
    );
    assert_eq!(
        field(&up_doc, &["data", "nnz"]),
        Some(serde::Value::UInt(7))
    );
    assert_eq!(
        field(&up_doc, &["data", "deduplicated"]),
        Some(serde::Value::Bool(false))
    );
    // The same canonical matrix with different formatting — comments,
    // entry order — dedups to the same content id.
    let reordered = "%%MatrixMarket matrix coordinate real general\n\
                     % same matrix, shuffled\n\
                     4 4 7\n3 1 2.0\n4 4 3.0\n1 1 4.0\n4 2 1.5\n2 2 5.0\n2 1 -1.0\n3 3 6.0\n";
    let up2 = post(
        &addr,
        "/v2/matrices",
        &serde_json::to_string(&serve::api::UploadMatrixRequest {
            mtx: reordered.to_string(),
        })
        .unwrap(),
    );
    assert_eq!(up2.status, 200);
    let up2_doc = parse(&up2);
    assert_eq!(
        field(&up2_doc, &["data", "matrix"]),
        Some(serde::Value::Str(mtx_id.clone()))
    );
    assert_eq!(
        field(&up2_doc, &["data", "deduplicated"]),
        Some(serde::Value::Bool(true))
    );
    // Upload-specific failure modes.
    assert_error(
        &post(&addr, "/v2/matrices", r#"{"mtx": "not a matrix"}"#),
        400,
        "bad_request",
    );
    assert_error(&get(&addr, "/v2/matrices"), 405, "method_not_allowed");

    // -- solver kernels against the uploaded matrix -------------------
    for kernel in ["spmv", "sptrsv", "symgs"] {
        let body = format!(r#"{{"kernel": "{kernel}", "matrix": "{mtx_id}"}}"#);
        let cold = post(&addr, "/v2/simulate", &body);
        assert_eq!(cold.status, 200, "{kernel} body: {}", body_str(&cold));
        let cold_doc = parse(&cold);
        assert_eq!(
            field(&cold_doc, &["data", "matrix"]),
            Some(serde::Value::Str(mtx_id.clone()))
        );
        assert!(as_f64(&field(&cold_doc, &["data", "summary", "gflops"]).expect("gflops")) > 0.0);
        let warm = post(&addr, "/v2/simulate", &body);
        assert_eq!(
            field(&parse(&warm), &["data", "cached"]),
            Some(serde::Value::Bool(true)),
            "repeat {kernel} simulate against an uploaded matrix must cache-hit"
        );
    }
    // A sweep accepts the uploaded id too.
    let mtx_sweep = post(
        &addr,
        "/v2/sweep",
        &format!(r#"{{"kernel": "spmv", "matrix": "{mtx_id}", "sampled": 2}}"#),
    );
    assert_eq!(mtx_sweep.status, 202, "body: {}", body_str(&mtx_sweep));
    // Rectangular uploads run SpMV but are rejected for solver kernels.
    let rect = "%%MatrixMarket matrix coordinate real general\n\
                3 4 3\n1 1 1.0\n2 2 2.0\n3 4 -1.0\n";
    let rect_up = post(
        &addr,
        "/v2/matrices",
        &serde_json::to_string(&serve::api::UploadMatrixRequest {
            mtx: rect.to_string(),
        })
        .unwrap(),
    );
    assert_eq!(rect_up.status, 200);
    let rect_id = match field(&parse(&rect_up), &["data", "matrix"]) {
        Some(serde::Value::Str(id)) => id,
        other => panic!("upload must return a matrix id, got {other:?}"),
    };
    let rect_solve = post(
        &addr,
        "/v2/simulate",
        &format!(r#"{{"kernel": "sptrsv", "matrix": "{rect_id}"}}"#),
    );
    assert_error(&rect_solve, 400, "bad_request");
    let rect_msg = match field(&parse(&rect_solve), &["error", "message"]) {
        Some(serde::Value::Str(s)) => s,
        other => panic!("expected error message, got {other:?}"),
    };
    assert!(rect_msg.contains("square"), "message: {rect_msg}");
    let rect_spmv = post(
        &addr,
        "/v2/simulate",
        &format!(r#"{{"kernel": "spmv", "matrix": "{rect_id}"}}"#),
    );
    assert_eq!(rect_spmv.status, 200, "body: {}", body_str(&rect_spmv));

    // -- /metrics -----------------------------------------------------
    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let m = parse(&metrics);
    assert!(as_u64(&field(&m, &["requests_total"]).expect("requests_total")) >= 8);
    // No request shares another's answer; the benchmark reads the field.
    assert_eq!(
        as_u64(&field(&m, &["coalesced_total"]).expect("coalesced_total")),
        0
    );
    assert!(as_u64(&field(&m, &["latency", "count"]).expect("latency count")) >= 8);
    assert!(as_u64(&field(&m, &["trace_cache", "hits"]).expect("cache hits")) >= 1);
    assert!(as_f64(&field(&m, &["trace_cache", "hit_ratio"]).expect("hit ratio")) > 0.0);
    assert_eq!(
        as_u64(&field(&m, &["queue", "workers"]).expect("workers")),
        4
    );
    let by_route = field(&m, &["requests_by_route"]).expect("by-route map");
    let serde::Value::Obj(routes) = by_route else {
        panic!("requests_by_route should be an object");
    };
    assert!(routes.iter().any(|(k, _)| k == "POST /v2/simulate 200"));
    assert!(routes.iter().any(|(k, _)| k == "not_found 404"));
    assert!(routes.iter().all(|(k, _)| !k.contains("/v1")), "{routes:?}");

    server.shutdown();

    // -- admission control: tiny pool, concurrent distinct requests ----
    let small = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .expect("second server boots");
    let small_addr = small.addr;
    // Distinct cold simulations (fresh matrices) so nothing shares a
    // simulation or cache-hits: with one worker and one queue slot, at
    // least one of six concurrent requests must bounce with 429.
    let bodies: Vec<String> = ["R11", "R12", "R13", "R14", "R15", "R16"]
        .iter()
        .map(|m| format!(r#"{{"kernel": "spmspv", "matrix": "{m}", "config_name": "maximum"}}"#))
        .collect();
    let gate = Barrier::new(bodies.len());
    let answers: Vec<(Response, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| {
                let gate = &gate;
                scope.spawn(move || {
                    gate.wait();
                    let resp = post(&small_addr, "/v2/simulate", body);
                    let retry = resp.header("retry-after").map(|v| v.to_string());
                    (resp, retry)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request thread"))
            .collect()
    });
    let statuses: Vec<u16> = answers.iter().map(|(r, _)| r.status).collect();
    assert!(
        statuses.iter().all(|s| *s == 200 || *s == 429),
        "statuses: {statuses:?}"
    );
    let rejected: Vec<_> = answers.iter().filter(|(r, _)| r.status == 429).collect();
    assert!(
        !rejected.is_empty(),
        "a saturated 1-worker/1-slot pool must reject some of 6 concurrent requests"
    );
    for (resp, retry) in rejected {
        assert!(retry.is_some(), "429 responses must carry Retry-After");
        assert_error(resp, 429, "queue_full");
        assert!(
            field(&parse(resp), &["error", "retry_after_ms"]).is_some(),
            "{}",
            body_str(resp)
        );
    }
    assert!(small.state.metrics.rejected_429_total() >= 1);
    small.shutdown();
}
