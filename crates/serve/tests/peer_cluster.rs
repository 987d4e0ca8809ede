//! End-to-end test of the trace cache's cluster tier: real shard
//! processes (the `serve` binary on ephemeral ports) with peer fetch
//! enabled, *without* any shared disk, so every cross-shard hit must
//! travel over `GET /v2/cache/trace/{spec}-{workload}-{config}`.
//!
//! One sequential `#[test]` amortizes the process-boot cost across the
//! assertions: a remote hit on a warm peer, structural identity of the
//! results with the tier disabled, budget-expiry fallback against a
//! hung peer, and a read-only protocol surface.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serve::http::{read_response, write_request, Response};
use serve::shard::{spawn_shards, ShardSpawn};

fn post(addr: &SocketAddr, target: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "POST", target, Some(body.as_bytes())).expect("write");
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

/// A counter of one block of a shard's `/metrics`.
fn counter(addr: &SocketAddr, block: &str, name: &str) -> u64 {
    let m = parse(&get(addr, "/metrics"));
    as_u64(&field(&m, &[block, name]).unwrap_or_else(|| panic!("{block}.{name}")))
}

/// The `(misses, remote_hits, remote_misses)` of a shard's trace cache.
fn trace_counters(addr: &SocketAddr) -> (u64, u64, u64) {
    (
        counter(addr, "trace_cache", "misses"),
        counter(addr, "trace_cache", "remote_hits"),
        counter(addr, "trace_cache", "remote_misses"),
    )
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
fn peer_tier_cluster_end_to_end() {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let base = std::env::temp_dir().join(format!("sa_peer_cluster_{}_{nanos}", std::process::id()));
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_serve"));

    // Two peer-fetching shards; no shared cache dir of any kind, so a
    // warm run on B can only be fed by A over the wire. A generous
    // budget keeps slow CI machines from turning real hits into
    // deadline misses.
    let spawn = |count: usize, peer_fetch: bool, budget_ms: u64, dir: &str| {
        spawn_shards(&ShardSpawn {
            exe: exe.clone(),
            count,
            workers: 2,
            queue_cap: 32,
            cache_dir: None,
            cache_mem_cap: None,
            peer_fetch,
            peer_fetch_budget_ms: budget_ms,
            run_dir: base.join(dir),
        })
        .expect("shards boot")
    };
    let cluster = spawn(2, true, 2_000, "cluster");
    let (a, b) = (cluster[0].addr, cluster[1].addr);
    // Control shard: peer fetch off. Its results are the "tier
    // disabled" reference the warm peer must reproduce.
    let control = spawn(1, false, 25, "control");
    let c = control[0].addr;

    push_topology(&[a, b], &[a, b]);

    // -- cold on A, peer-warm on B ------------------------------------
    let body = sim_body("R01");
    let cold = post(&a, "/v2/simulate", &body);
    assert_eq!(cold.status, 200, "body: {}", body_str(&cold));
    assert_eq!(
        trace_counters(&a),
        (1, 0, 1),
        "A asked B, found nothing, and simulated"
    );

    let warm = post(&b, "/v2/simulate", &body);
    assert_eq!(warm.status, 200, "body: {}", body_str(&warm));
    assert_eq!(
        trace_counters(&b),
        (0, 1, 0),
        "B's one lookup is answered by A's trace, and B simulates nothing"
    );
    assert_eq!(counter(&b, "peer_fetch", "count"), 1, "one fetch, timed");
    assert_eq!(
        counter(&a, "trace_cache", "hits"),
        0,
        "an export is not A's own cache traffic"
    );

    // -- identical results with the tier off --------------------------
    let reference = post(&c, "/v2/simulate", &body);
    assert_eq!(reference.status, 200, "body: {}", body_str(&reference));
    assert_eq!(
        trace_counters(&c),
        (1, 0, 0),
        "the control shard simulates without asking peers"
    );
    assert_eq!(counter(&c, "peer_fetch", "count"), 0);
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
    let unknown = "/v2/cache/trace/0000000000000000-0000000000000000-0000000000000000";
    assert_eq!(
        get(&a, "/v2/cache/trace/not-a-key").status,
        400,
        "malformed keys are rejected"
    );
    assert_eq!(
        get(&a, unknown).status,
        404,
        "well-formed but unknown keys are a miss"
    );
    // The tier is read-only: nothing can write a peer's trace cache.
    let mut stream = TcpStream::connect(a).expect("connect");
    write_request(&mut stream, "PUT", unknown, Some(b"SATR")).expect("write");
    assert_eq!(
        read_response(&stream).expect("read").status,
        405,
        "PUT on a trace key is not a route"
    );

    // -- budget expiry falls back to compute --------------------------
    // A topology pointing at a bound-but-never-accepting listener: the
    // TCP connect succeeds via the backlog, then reads hang. With a
    // tight budget the shard must give up and simulate locally.
    let hung = TcpListener::bind("127.0.0.1:0").expect("hung listener");
    let hung_addr = hung.local_addr().expect("hung addr");
    let tight = spawn(1, true, 60, "tight");
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
        trace_counters(&d),
        (1, 0, 1),
        "the budgeted attempt is one visible remote miss, then a simulation"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "budgeted fetches must not stall the request"
    );
    drop(hung);

    // -- every member's metrics carry the tier ------------------------
    for addr in [a, b, c, d] {
        let m = parse(&get(&addr, "/metrics"));
        for path in [
            ["trace_cache", "remote_hits"],
            ["trace_cache", "remote_misses"],
            ["peer_fetch", "p50_ms"],
        ] {
            assert!(
                field(&m, &path).is_some(),
                "/metrics on {addr} must expose {}",
                path.join(".")
            );
        }
        assert!(field(&m, &["epoch_cache"]).is_none(), "no epoch block");
    }

    drop(cluster);
    drop(control);
    drop(tight);
    let _ = std::fs::remove_dir_all(&base);
}
