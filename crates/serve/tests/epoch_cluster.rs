//! End-to-end test of the cluster epoch-cache tier: real shard
//! processes (the `serve` binary on ephemeral ports) with the epoch
//! cache and peer fetch enabled, *without* any shared disk, so every
//! cross-shard hit must travel over `GET /v2/cache/epoch/{key}`.
//!
//! One sequential `#[test]` amortizes the process-boot cost across the
//! assertions: remote hits on a warm peer, structural identity of the
//! results with the tier disabled, budget-expiry fallback against a
//! hung peer, and post-sweep warm push.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serve::http::{read_response, write_request, Response};
use serve::shard::{spawn_shards, ShardSpawn};

fn post(addr: &SocketAddr, target: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", target, Some(body)).expect("write");
    read_response(&stream).expect("read")
}

fn get(addr: &SocketAddr, target: &str) -> Response {
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

fn epoch_counter(addr: &SocketAddr, name: &str) -> u64 {
    let m = parse(&get(addr, "/metrics"));
    as_u64(&field(&m, &["epoch_cache", name]).unwrap_or_else(|| panic!("epoch_cache.{name}")))
}

/// The deterministic payload of a simulate response: everything except
/// the `cached` flag and the wall-time field, which legitimately vary
/// between a cold and a peer-warm run.
fn sim_payload(resp: &Response) -> (serde::Value, serde::Value) {
    let doc = parse(resp);
    let summary = field(&doc, &["summary"])
        .or_else(|| field(&doc, &["data", "summary"]))
        .expect("summary");
    let config = field(&doc, &["config"])
        .or_else(|| field(&doc, &["data", "config"]))
        .expect("config");
    (summary, config)
}

/// Pushes a hand-built active/healthy topology over every `to` shard so
/// the peer fetcher sees `addrs` as the cluster.
fn push_topology(addrs: &[SocketAddr], to: &[SocketAddr]) {
    let shards: Vec<String> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| {
            format!(
                r#"{{"id": {i}, "addr": "{a}", "weight": 1.0, "state": "active", "healthy": true}}"#
            )
        })
        .collect();
    let body = format!(r#"{{"epoch": 1, "shards": [{}]}}"#, shards.join(", "));
    for t in to {
        let resp = post(t, "/v2/admin/topology", &body);
        assert_eq!(resp.status, 200, "topology push: {}", body_str(&resp));
    }
}

fn sim_body(matrix: &str) -> String {
    format!(r#"{{"kernel": "spmspv", "matrix": "{matrix}", "config_name": "baseline"}}"#)
}

#[test]
fn epoch_tier_cluster_end_to_end() {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let base =
        std::env::temp_dir().join(format!("sa_epoch_cluster_{}_{nanos}", std::process::id()));
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_serve"));

    // Two peer-fetching shards; no shared cache dir of any kind, so a
    // warm run on B can only be fed by A over the wire. A generous
    // budget keeps slow CI machines from turning real hits into
    // deadline misses.
    let spawn = |count: usize, peer_fetch: bool, budget_ms: u64, warm_push: usize, dir: &str| {
        spawn_shards(&ShardSpawn {
            exe: exe.clone(),
            count,
            workers: 2,
            queue_cap: 32,
            cache_dir: None,
            cache_mem_cap: None,
            epoch_cache: true,
            epoch_peer_fetch: peer_fetch,
            epoch_fetch_budget_ms: budget_ms,
            epoch_warm_push: warm_push,
            run_dir: base.join(dir),
        })
        .expect("shards boot")
    };
    let cluster = spawn(2, true, 2_000, 4, "cluster");
    let (a, b) = (cluster[0].addr, cluster[1].addr);
    // Control shard: epoch cache on, peer fetch off. Its results are
    // the "tier disabled" reference the warm peer must reproduce.
    let control = spawn(1, false, 25, 0, "control");
    let c = control[0].addr;

    push_topology(&[a, b], &[a, b]);

    // -- cold on A, peer-warm on B ------------------------------------
    let body = sim_body("R01");
    let cold = post(&a, "/v2/simulate", &body);
    assert_eq!(cold.status, 200, "body: {}", body_str(&cold));
    assert!(
        epoch_counter(&a, "inserts") > 0,
        "cold run on A must populate A's epoch cache"
    );

    let warm = post(&b, "/v2/simulate", &body);
    assert_eq!(warm.status, 200, "body: {}", body_str(&warm));
    let remote_hits = epoch_counter(&b, "remote_hits");
    assert!(
        remote_hits > 0,
        "B simulating A's workload must hit A's epochs over the wire"
    );
    assert!(
        epoch_counter(&b, "remote_bytes") > 0,
        "remote hits must account their payload bytes"
    );
    assert_eq!(
        epoch_counter(&a, "remote_hits"),
        0,
        "A was cold: nothing existed for it to fetch"
    );

    // -- identical results with the tier off --------------------------
    let reference = post(&c, "/v2/simulate", &body);
    assert_eq!(reference.status, 200, "body: {}", body_str(&reference));
    assert_eq!(
        epoch_counter(&c, "remote_hits"),
        0,
        "control shard must not fetch from peers"
    );
    assert_eq!(
        sim_payload(&warm),
        sim_payload(&reference),
        "peer-warm result must be identical to the tier-disabled result"
    );
    assert_eq!(
        sim_payload(&warm),
        sim_payload(&cold),
        "peer-warm result must be identical to the cold result"
    );

    // -- the protocol surface itself ----------------------------------
    assert_eq!(
        get(&a, "/v2/cache/epoch/not-a-key").status,
        400,
        "malformed keys are rejected"
    );
    assert_eq!(
        get(
            &a,
            "/v2/cache/epoch/0000000000000000-0000000000000000-0000000000000000-0000000000000000-0000000000000000"
        )
        .status,
        404,
        "well-formed but unknown keys are a miss"
    );

    // -- budget expiry falls back to compute --------------------------
    // A topology pointing at a bound-but-never-accepting listener: the
    // TCP connect succeeds via the backlog, then reads hang. With a
    // tight budget the shard must give up and simulate locally.
    let hung = TcpListener::bind("127.0.0.1:0").expect("hung listener");
    let hung_addr = hung.local_addr().expect("hung addr");
    let tight = spawn(1, true, 60, 0, "tight");
    let d = tight[0].addr;
    push_topology(&[d, hung_addr], &[d]);

    let started = Instant::now();
    let fallback = post(&d, "/v2/simulate", &body);
    assert_eq!(fallback.status, 200, "body: {}", body_str(&fallback));
    assert_eq!(
        sim_payload(&fallback),
        sim_payload(&reference),
        "budget expiry must fall back to a correct local simulation"
    );
    assert_eq!(
        epoch_counter(&d, "remote_hits"),
        0,
        "a hung peer can never produce a hit"
    );
    assert!(
        epoch_counter(&d, "remote_misses") > 0,
        "the budgeted attempt must be visible as a remote miss"
    );
    // Negative suppression caps the damage: at most one budgeted probe
    // per epoch key, so a whole run cannot spend epochs × budget.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "budgeted fetches must not stall the request"
    );
    drop(hung);

    // -- post-sweep warm push -----------------------------------------
    let sweep = post(
        &a,
        "/v2/sweep",
        r#"{"kernel": "spmspv", "matrix": "R02", "sampled": 2}"#,
    );
    assert_eq!(sweep.status, 202, "body: {}", body_str(&sweep));
    let job_id = as_u64(
        &field(&parse(&sweep), &["data", "job_id"])
            .or_else(|| field(&parse(&sweep), &["job_id"]))
            .expect("job_id"),
    );
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let poll = get(&a, &format!("/v2/jobs/{job_id}"));
        assert_eq!(poll.status, 200, "body: {}", body_str(&poll));
        let status =
            field(&parse(&poll), &["data", "status"]).or_else(|| field(&parse(&poll), &["status"]));
        match status {
            Some(serde::Value::Str(s)) if s == "done" => break,
            Some(serde::Value::Str(s)) if s == "failed" => {
                panic!("sweep failed: {}", body_str(&poll))
            }
            _ => {
                assert!(Instant::now() < deadline, "sweep did not finish in time");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    // The push runs on a detached thread after the job completes; give
    // it a moment to land on B.
    let push_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if epoch_counter(&b, "push_received") > 0 {
            break;
        }
        assert!(
            Instant::now() < push_deadline,
            "warm push never landed on B (A push_sent = {})",
            epoch_counter(&a, "push_sent"),
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        epoch_counter(&a, "push_sent") > 0,
        "A must account the epochs it pushed"
    );
    assert!(
        epoch_counter(&b, "push_bytes_received") > 0,
        "pushed epochs must account their bytes"
    );

    // -- merged metrics carry the epoch tier --------------------------
    for addr in [a, b, c, d] {
        let m = parse(&get(&addr, "/metrics"));
        for key in ["remote_hits", "remote_fetch_p95_ms", "hit_ratio"] {
            assert!(
                field(&m, &["epoch_cache", key]).is_some(),
                "/metrics on {addr} must expose epoch_cache.{key}"
            );
        }
    }

    drop(cluster);
    drop(control);
    drop(tight);
    let _ = std::fs::remove_dir_all(&base);
}
