//! End-to-end test of cluster mode: three real shard processes (the
//! `serve` binary on ephemeral ports) sharing one disk cache tier,
//! fronted by an in-process consistent-hash router.
//!
//! One sequential `#[test]`: the shards are OS processes and the boot
//! cost is amortized across every assertion (routing, caching,
//! cross-process disk tier, job polling, failover, record/replay,
//! merged metrics, byte-exact proxying).

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serve::http::{read_response, write_request, Response};
use serve::loadgen::{self, LoadgenConfig};
use serve::shard::{routing_key, spawn_shards, start_router, Ring, RouterConfig, ShardSpawn};
use serve::{start, ServeConfig};

fn post(addr: &std::net::SocketAddr, target: &str, body: &str) -> Response {
    post_bytes(addr, target, body.as_bytes())
}

fn post_bytes(addr: &std::net::SocketAddr, target: &str, body: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", target, Some(body)).expect("write");
    read_response(&stream).expect("read")
}

/// [`post`] that also appends the body to `sent`.
fn post_logged(
    sent: &mut Vec<String>,
    addr: &std::net::SocketAddr,
    target: &str,
    body: &str,
) -> Response {
    sent.push(body.to_string());
    post(addr, target, body)
}

fn get(addr: &std::net::SocketAddr, target: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "GET", target, None).expect("write");
    read_response(&stream).expect("read")
}

fn body_str(resp: &Response) -> &str {
    std::str::from_utf8(&resp.body).expect("UTF-8 body")
}

fn parse(resp: &Response) -> serde::Value {
    serde_json::parse_value_str(body_str(resp)).expect("response is JSON")
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

fn as_u64(v: &serde::Value) -> u64 {
    match v {
        serde::Value::UInt(u) => *u,
        serde::Value::Int(i) => u64::try_from(*i).expect("non-negative"),
        other => panic!("expected integer, got {other:?}"),
    }
}

fn as_str(v: &serde::Value) -> &str {
    match v {
        serde::Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
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

/// Asserts `resp` is `status` with the error envelope and `code`.
fn assert_error(resp: &Response, status: u16, code: &str) {
    assert_eq!(resp.status, status, "body: {}", body_str(resp));
    let doc = parse(resp);
    assert_eq!(field(&doc, &["v"]), Some(serde::Value::UInt(2)));
    assert_eq!(field(&doc, &["data"]), Some(serde::Value::Null));
    assert_eq!(
        field(&doc, &["error", "code"]).as_ref().map(as_str),
        Some(code),
        "body: {}",
        body_str(resp)
    );
}

fn cached_flag(resp: &Response) -> bool {
    field(&data_of(resp), &["cached"]) == Some(serde::Value::Bool(true))
}

fn sim_body(matrix: &str) -> String {
    format!(r#"{{"kernel": "spmspv", "matrix": "{matrix}", "config_name": "baseline"}}"#)
}

/// A job poll whose id no shard can parse gets the shard's own 400
/// through the router, not a 404 after asking every shard.
#[test]
fn router_answers_a_malformed_job_poll_like_its_shard() {
    let shard = start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_cap: 4,
        ..ServeConfig::default()
    })
    .expect("shard boots");
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: vec![shard.addr],
        weights: Vec::new(),
        record: None,
        allow_admin: false,
    })
    .expect("router boots");
    for addr in [shard.addr, router.addr] {
        let resp = get(&addr, "/v2/jobs/nope");
        assert_error(&resp, 400, "bad_request");
        assert_eq!(
            field(&parse(&resp), &["error", "message"])
                .as_ref()
                .map(as_str),
            Some("job id must be an integer")
        );
    }
    // A well-formed id that no shard knows is still the router's 404.
    assert_error(&get(&router.addr, "/v2/jobs/12345"), 404, "not_found");
    router.shutdown();
    shard.shutdown();
}

#[test]
fn cluster_end_to_end() {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let base = std::env::temp_dir().join(format!("sa_cluster_{}_{nanos}", std::process::id()));
    let cache_dir = base.join("cache");
    let record_path = base.join("record.jsonl");
    std::fs::create_dir_all(&cache_dir).expect("cache dir");

    let mut shards = spawn_shards(&ShardSpawn {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_serve")),
        count: 3,
        workers: 2,
        queue_cap: 32,
        cache_dir: Some(cache_dir.clone()),
        cache_mem_cap: None,
        peer_fetch: false,
        peer_fetch_budget_ms: 25,
        run_dir: base.join("run"),
    })
    .expect("shards boot");
    let shard_addrs: Vec<_> = shards.iter().map(|s| s.addr).collect();
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shard_addrs.clone(),
        weights: Vec::new(),
        record: Some(record_path.clone()),
        allow_admin: false,
    })
    .expect("router boots");
    let addr = router.addr;

    // -- router health ------------------------------------------------
    let health = get(&addr, "/healthz");
    assert_eq!(health.status, 200);
    assert!(body_str(&health).contains("\"router\""));
    assert_error(&get(&addr, "/nope"), 404, "not_found");
    assert_error(&post(&addr, "/healthz", "{}"), 405, "method_not_allowed");
    assert_error(&get(&addr, "/v2/simulate"), 405, "method_not_allowed");
    assert_error(&get(&addr, "/v2/admin/shards"), 405, "method_not_allowed");
    // The retired /v1 dialect is an unknown path on the router too.
    assert_error(
        &post(&addr, "/v1/simulate", &sim_body("R01")),
        404,
        "not_found",
    );
    assert_error(&get(&addr, "/v1/jobs"), 404, "not_found");

    // -- cold pass then warm pass through the router ------------------
    // Each workload routes to one owner shard; the repeat must be a
    // memory hit on that same shard (disjoint hot key ranges).
    let matrices = ["R01", "R02", "R03", "R04"];
    // Body of every POST routed to a shard, in order.
    let mut sent: Vec<String> = Vec::new();
    for m in &matrices {
        let body = sim_body(m);
        let cold = post_logged(&mut sent, &addr, "/v2/simulate", &body);
        assert_eq!(cold.status, 200, "body: {}", body_str(&cold));
        assert!(!cached_flag(&cold), "fresh cluster must simulate {m} cold");
    }
    for m in &matrices {
        let warm = post_logged(&mut sent, &addr, "/v2/simulate", &sim_body(m));
        assert_eq!(warm.status, 200);
        assert!(
            cached_flag(&warm),
            "repeat of {m} must hit the owner shard's cache"
        );
    }

    // -- zero cross-shard cache pollution -----------------------------
    // Cluster-wide, each workload simulated exactly once: per-shard
    // misses sum to the distinct workload count, and every miss was
    // published to the shared tier.
    let mut total_misses = 0;
    let mut total_disk_writes = 0;
    for shard_addr in &shard_addrs {
        let m = parse(&get(shard_addr, "/metrics"));
        total_misses += as_u64(&field(&m, &["trace_cache", "misses"]).expect("misses"));
        total_disk_writes += as_u64(&field(&m, &["trace_cache", "disk_writes"]).expect("writes"));
    }
    assert_eq!(
        total_misses,
        matrices.len() as u64,
        "each workload must be simulated on exactly one shard"
    );
    assert_eq!(
        total_disk_writes,
        matrices.len() as u64,
        "every simulation must be published to the shared disk tier"
    );

    // -- async sweeps + job polling through the router ----------------
    // Two sweeps whose workloads live on different shards. The router
    // does not know which shard holds a job, so it fans each poll out
    // to every shard; each poll must still come back with its own job.
    let ring = Ring::new(3);
    let owner = |body: &[u8]| ring.assign(&routing_key(body));
    let sweep_body = |m: &str| format!(r#"{{"kernel": "spmspv", "matrix": "{m}", "sampled": 2}}"#);
    let first_owner = owner(sweep_body("R01").as_bytes());
    let other = ["R02", "R03", "R04", "R05"]
        .into_iter()
        .find(|m| owner(sweep_body(m).as_bytes()) != first_owner)
        .expect("some matrix routes to another shard");
    let mut jobs = Vec::new();
    for m in ["R01", other] {
        let sweep = post_logged(&mut sent, &addr, "/v2/sweep", &sweep_body(m));
        assert_eq!(sweep.status, 202, "body: {}", body_str(&sweep));
        let job_id = as_u64(&field(&data_of(&sweep), &["job_id"]).expect("job_id"));
        jobs.push((m, job_id));
    }
    assert_ne!(jobs[0].1, jobs[1].1, "job ids must be unique across shards");
    let deadline = Instant::now() + Duration::from_secs(120);
    for (m, job_id) in &jobs {
        loop {
            let poll = get(&addr, &format!("/v2/jobs/{job_id}"));
            assert_eq!(poll.status, 200, "body: {}", body_str(&poll));
            let job = data_of(&poll);
            assert_eq!(field(&job, &["job_id"]).as_ref().map(as_u64), Some(*job_id));
            let desc = field(&job, &["desc"]).expect("desc");
            assert!(
                as_str(&desc).contains(&format!("spmspv/{m} ")),
                "the poll for job {job_id} ({m}) answered {}",
                body_str(&poll)
            );
            match field(&job, &["status"]).as_ref().map(as_str) {
                Some("done") => break,
                Some("failed") => panic!("sweep failed: {}", body_str(&poll)),
                _ => {
                    assert!(Instant::now() < deadline, "sweep did not finish in time");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    }
    let listing = data_of(&get(&addr, "/v2/jobs"));
    let jobs_doc = field(&listing, &["jobs"]).expect("jobs array");
    let serde::Value::Arr(entries) = jobs_doc else {
        panic!("jobs should be an array");
    };
    assert_eq!(entries.len(), jobs.len());
    let shard_of = |e: &serde::Value| field(e, &["shard"]).as_ref().map(as_u64);
    assert!(
        entries.iter().all(|e| shard_of(e).is_some()),
        "merged listing entries must carry their shard id"
    );
    assert_ne!(shard_of(&entries[0]), shard_of(&entries[1]));

    // -- matrix upload through the router -----------------------------
    // The upload routes by body content hash to one shard; the
    // simulate for the returned id routes by workload key, usually to
    // a *different* shard — which must resolve the matrix through the
    // shared spill tier under the cluster cache dir.
    let mtx_text = "%%MatrixMarket matrix coordinate real general\n\
                    5 5 8\n1 1 4.0\n2 1 -1.0\n2 2 5.0\n3 3 6.0\n4 2 1.5\n4 4 3.0\n5 5 2.5\n5 3 1.0\n";
    let upload_body = serde_json::to_string(&serve::api::UploadMatrixRequest {
        mtx: mtx_text.to_string(),
    })
    .expect("upload body serializes");
    let up = post_logged(&mut sent, &addr, "/v2/matrices", &upload_body);
    assert_eq!(up.status, 200, "body: {}", body_str(&up));
    let up_doc = data_of(&up);
    let mtx_id = match field(&up_doc, &["matrix"]) {
        Some(serde::Value::Str(id)) => id,
        other => panic!("upload must return a matrix id, got {other:?}"),
    };
    assert!(mtx_id.starts_with("mtx:"), "id: {mtx_id}");
    assert_eq!(
        field(&up_doc, &["deduplicated"]),
        Some(serde::Value::Bool(false))
    );
    assert!(
        cache_dir
            .join("matrices")
            .read_dir()
            .is_ok_and(|mut d| d.next().is_some()),
        "the upload must spill into the shared cache tier"
    );
    // Identical body → same routing key → same shard → dedup.
    let up2 = post_logged(&mut sent, &addr, "/v2/matrices", &upload_body);
    assert_eq!(up2.status, 200);
    assert_eq!(
        field(&data_of(&up2), &["deduplicated"]),
        Some(serde::Value::Bool(true)),
        "re-uploading identical content must deduplicate on its shard"
    );
    for kernel in ["spmv", "sptrsv", "symgs"] {
        let body = format!(r#"{{"kernel": "{kernel}", "matrix": "{mtx_id}"}}"#);
        let cold = post_logged(&mut sent, &addr, "/v2/simulate", &body);
        assert_eq!(
            cold.status,
            200,
            "{kernel} against an uploaded matrix must resolve on any shard: {}",
            body_str(&cold)
        );
        assert!(!cached_flag(&cold), "first {kernel} run is cold");
        let warm = post_logged(&mut sent, &addr, "/v2/simulate", &body);
        assert_eq!(warm.status, 200);
        assert!(
            cached_flag(&warm),
            "repeat {kernel} on the uploaded matrix must hit the owner shard's cache"
        );
    }

    // -- failover: kill the owner of R01 mid-service ------------------
    let victim = owner(sim_body("R01").as_bytes());
    shards[victim as usize].kill();
    let pre_kill = sent.len();

    // The very next request for R01 hits the dead owner, fails
    // transport, and must fail over to the next ring node — which has
    // never simulated R01 but finds it in the shared disk tier.
    let failed_over = post_logged(&mut sent, &addr, "/v2/simulate", &sim_body("R01"));
    assert_eq!(
        failed_over.status,
        200,
        "failover must absorb the dead shard: {}",
        body_str(&failed_over)
    );
    assert_eq!(failed_over.header("x-sparseadapt-rerouted"), Some("1"));
    assert_eq!(
        field(&parse(&failed_over), &["rerouted"]),
        Some(serde::Value::Bool(true)),
        "the envelope must carry the rerouted marker"
    );
    assert!(
        cached_flag(&failed_over),
        "the failover shard must hit the shared disk tier, not re-simulate"
    );

    // -- burst with one shard down: no client-visible 5xx -------------
    for m in &matrices {
        let resp = post_logged(&mut sent, &addr, "/v2/simulate", &sim_body(m));
        assert!(
            resp.status == 200,
            "{m} after shard kill: status {} body {}",
            resp.status,
            body_str(&resp)
        );
    }

    // -- merged /metrics ----------------------------------------------
    let metrics = parse(&get(&addr, "/metrics"));
    assert_eq!(
        field(&metrics, &["shard_count"]),
        Some(serde::Value::UInt(3))
    );
    // The killed shard's counters died with it: the merge must cover
    // what the surviving shards answered — every pre-kill POST the
    // victim did not own, and every POST since (health probes and job
    // polls only add to it).
    let survivors_answered = sent[..pre_kill]
        .iter()
        .filter(|body| owner(body.as_bytes()) != victim)
        .count()
        + (sent.len() - pre_kill);
    assert!(
        as_u64(&field(&metrics, &["merged", "requests_total"]).expect("merged total"))
            >= survivors_answered as u64,
        "merged metrics must aggregate shard counters"
    );
    assert!(as_u64(&field(&metrics, &["rerouted_total"]).expect("rerouted")) >= 2);
    let shards_doc = field(&metrics, &["shards"]).expect("per-shard docs");
    let serde::Value::Arr(per_shard) = shards_doc else {
        panic!("shards should be an array");
    };
    assert_eq!(per_shard.len(), 3);

    // -- record + replay ----------------------------------------------
    let records = loadgen::load_replay(&record_path).expect("record log parses");
    assert_eq!(
        records.len(),
        sent.len(),
        "every routed POST must be recorded"
    );
    assert!(records.iter().all(|r| r.method == "POST"));
    let replay_report = loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        connections: 2,
        replay: Some(record_path.clone()),
        ..LoadgenConfig::default()
    })
    .expect("replay runs");
    assert_eq!(replay_report.warm.requests, sent.len() as u64);
    assert_eq!(
        replay_report.warm.errors, 0,
        "replaying the recorded trace against the degraded cluster must not error"
    );

    // -- the router forwards request bytes as they arrived -------------
    // A body that is not UTF-8 gets the same 400 through the router as
    // from the shard that owns it. It is sent after the replay, which
    // must see no errors, and its matrix is picked so that the body's
    // owner shard is still alive.
    let bad = ["R01", "R02", "R03", "R04", "R05"]
        .into_iter()
        .map(|m| {
            [
                &b"{\"kernel\": \"\xff\", \"matrix\": \""[..],
                m.as_bytes(),
                b"\"}",
            ]
            .concat()
        })
        .find(|body| owner(body) != victim)
        .expect("some body routes to a live shard");
    let through_router = post_bytes(&addr, "/v2/simulate", &bad);
    let direct = post_bytes(&shard_addrs[owner(&bad) as usize], "/v2/simulate", &bad);
    assert_error(&direct, 400, "bad_request");
    assert!(
        body_str(&direct).contains("not UTF-8"),
        "{}",
        body_str(&direct)
    );
    assert_eq!(
        (through_router.status, body_str(&through_router)),
        (direct.status, body_str(&direct)),
        "the router must not rewrite the body it forwards"
    );

    router.shutdown();
    drop(shards);
    let _ = std::fs::remove_dir_all(&base);
}
