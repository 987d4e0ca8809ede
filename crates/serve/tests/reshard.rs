//! End-to-end test of the elastic control plane: a live 3-shard
//! cluster whose topology is mutated at runtime through the typed
//! `/v2/admin` API — reweighted, grown, and rolled shard by shard —
//! while a background client keeps issuing traffic that must never see
//! a 5xx.
//!
//! One sequential `#[test]`, like `cluster.rs`: the shards are OS
//! processes and the boot cost is amortized across the control-plane
//! shape checks, the reweight, and the full rolling restart.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serve::http::{read_response, write_request, Response};
use serve::shard::{routing_key, spawn_shards, start_router, Ring, RouterConfig, ShardSpawn};

/// One HTTP exchange with arbitrary extra headers (`write_request`
/// covers the plain case; the control plane also needs `If-Match`).
fn request(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or("");
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: sparseadapt-serve\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n", body.len()));
    if !body.is_empty() {
        head.push_str("content-type: application/json\r\n");
    }
    head.push_str("\r\n");
    stream
        .write_all(format!("{head}{body}").as_bytes())
        .expect("write");
    read_response(&stream).expect("read")
}

fn get(addr: &SocketAddr, target: &str) -> Response {
    request(addr, "GET", target, None, &[])
}

fn post(addr: &SocketAddr, target: &str, body: &str) -> Response {
    request(addr, "POST", target, Some(body), &[])
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

fn as_f64(v: &serde::Value) -> f64 {
    match v {
        serde::Value::UInt(u) => *u as f64,
        serde::Value::Int(i) => *i as f64,
        serde::Value::Float(f) => *f,
        other => panic!("expected number, got {other:?}"),
    }
}

fn as_str(v: &serde::Value) -> &str {
    match v {
        serde::Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

/// The `data` document of an enveloped `/v2` response, after checking
/// the envelope shape.
fn data_of(resp: &Response) -> serde::Value {
    let doc = parse(resp);
    assert_eq!(
        field(&doc, &["v"]).map(|v| as_u64(&v)),
        Some(2),
        "missing v:2 envelope: {}",
        body_str(resp)
    );
    field(&doc, &["data"]).expect("enveloped data")
}

/// Asserts an enveloped error with the given status and code.
fn assert_api_error(resp: &Response, status: u16, code: &str) {
    assert_eq!(resp.status, status, "body: {}", body_str(resp));
    let doc = parse(resp);
    assert_eq!(field(&doc, &["v"]).map(|v| as_u64(&v)), Some(2));
    assert_eq!(
        field(&doc, &["error", "code"]).as_ref().map(as_str),
        Some(code),
        "body: {}",
        body_str(resp)
    );
}

/// `(id, weight, state)` triples from a topology document.
fn topo_shards(data: &serde::Value) -> Vec<(u32, f64, String)> {
    let serde::Value::Arr(entries) = field(data, &["shards"]).expect("shards array") else {
        panic!("shards is not an array");
    };
    entries
        .iter()
        .map(|e| {
            (
                as_u64(&field(e, &["id"]).expect("id")) as u32,
                as_f64(&field(e, &["weight"]).expect("weight")),
                as_str(&field(e, &["state"]).expect("state")).to_string(),
            )
        })
        .collect()
}

fn topology(addr: &SocketAddr) -> serde::Value {
    let resp = get(addr, "/v2/admin/topology");
    assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
    data_of(&resp)
}

fn epoch_of(data: &serde::Value) -> u64 {
    as_u64(&field(data, &["epoch"]).expect("epoch"))
}

fn sim_body(matrix: &str) -> String {
    format!(r#"{{"kernel": "spmspv", "matrix": "{matrix}", "config_name": "baseline"}}"#)
}

#[test]
fn elastic_cluster_end_to_end() {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock")
        .as_nanos();
    let base = std::env::temp_dir().join(format!("sa_reshard_{}_{nanos}", std::process::id()));
    let cache_dir = base.join("cache");
    std::fs::create_dir_all(&cache_dir).expect("cache dir");
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_serve"));

    let spawn_one = |run_dir: PathBuf| {
        spawn_shards(&ShardSpawn {
            exe: exe.clone(),
            count: 1,
            workers: 2,
            queue_cap: 64,
            cache_dir: Some(cache_dir.clone()),
            cache_mem_cap: None,
            peer_fetch: false,
            peer_fetch_budget_ms: 25,
            run_dir,
        })
        .expect("shard boots")
        .remove(0)
    };

    let mut shards = spawn_shards(&ShardSpawn {
        exe: exe.clone(),
        count: 3,
        workers: 2,
        queue_cap: 64,
        cache_dir: Some(cache_dir.clone()),
        cache_mem_cap: None,
        peer_fetch: false,
        peer_fetch_budget_ms: 25,
        run_dir: base.join("run"),
    })
    .expect("shards boot");
    let shard_addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shard_addrs.clone(),
        weights: vec![1.0, 1.0, 2.0],
        record: None,
        allow_admin: true,
    })
    .expect("router boots");
    let addr = router.addr;

    // -- control-plane surface shape ----------------------------------
    let topo = topology(&addr);
    assert_eq!(epoch_of(&topo), 1);
    let entries = topo_shards(&topo);
    assert_eq!(entries.len(), 3);
    assert_eq!(
        entries.iter().map(|(id, _, _)| *id).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert_eq!(entries[2].1, 2.0, "boot weights must be honored");
    assert!(entries.iter().all(|(_, _, state)| state == "active"));

    // Wrong verb on a known admin path: enveloped 405, never a 404.
    for (method, path) in [
        ("PUT", "/v2/admin/topology"),
        ("GET", "/v2/admin/shards"),
        ("DELETE", "/v2/admin/drain"),
        ("PATCH", "/v2/admin/shards/0"),
    ] {
        let resp = request(&addr, method, path, None, &[]);
        assert_api_error(&resp, 405, "method_not_allowed");
    }
    // Strict v2 body validation: unknown fields are rejected.
    let resp = post(
        &addr,
        "/v2/admin/shards",
        r#"{"addr": "127.0.0.1:1", "bogus": 1}"#,
    );
    assert_api_error(&resp, 400, "unknown_field");
    // Unknown shard id: 404 with the structured code.
    let resp = request(&addr, "DELETE", "/v2/admin/shards/99", None, &[]);
    assert_api_error(&resp, 404, "not_found");
    // Optimistic concurrency: a stale If-Match epoch conflicts.
    let resp = request(
        &addr,
        "POST",
        "/v2/admin/shards",
        Some(r#"{"addr": "127.0.0.1:1"}"#),
        &[("if-match", "999")],
    );
    assert_api_error(&resp, 409, "topology_conflict");
    // Last-active-shard protection needs no special setup to check the
    // id-parse path: a non-numeric id is a 400.
    let resp = request(&addr, "DELETE", "/v2/admin/shards/abc", None, &[]);
    assert_api_error(&resp, 400, "bad_request");

    // A router without --allow-admin refuses mutations but serves
    // reads.
    let readonly = start_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shard_addrs.clone(),
        weights: vec![1.0, 1.0, 2.0],
        record: None,
        allow_admin: false,
    })
    .expect("read-only router boots");
    let resp = post(
        &readonly.addr,
        "/v2/admin/shards",
        r#"{"addr": "127.0.0.1:1"}"#,
    );
    assert_api_error(&resp, 403, "admin_disabled");
    assert_eq!(get(&readonly.addr, "/v2/admin/topology").status, 200);
    readonly.shutdown();

    // -- shards hold the pushed topology view -------------------------
    for shard_addr in &shard_addrs {
        let view = topology(shard_addr);
        assert_eq!(
            epoch_of(&view),
            1,
            "shard {shard_addr} should hold the boot topology"
        );
        assert_eq!(topo_shards(&view).len(), 3);
    }

    // -- reweight -----------------------------------------------------
    let resp = request(
        &addr,
        "POST",
        "/v2/admin/topology",
        Some(r#"{"shards": [{"id": 0, "weight": 1.5}]}"#),
        &[("if-match", "1")],
    );
    assert_eq!(resp.status, 200, "body: {}", body_str(&resp));
    let change = data_of(&resp);
    assert_eq!(
        epoch_of(&field(&change, &["topology"]).expect("topology")),
        2
    );
    let moved = as_f64(&field(&change, &["moved_fraction"]).expect("moved_fraction"));
    // Upweighting 1.0 → 1.5 of 4.5 total shifts about a ninth of the
    // key space; far less than a full reshuffle either way.
    assert!(
        moved > 0.0 && moved < 0.4,
        "reweight moved_fraction {moved} out of range"
    );
    assert!(as_u64(&field(&change, &["moved_ranges"]).expect("moved_ranges")) >= 1);
    // The push is synchronous: shards already hold epoch 2.
    assert_eq!(epoch_of(&topology(&shard_addrs[0])), 2);
    // The merged metrics document carries the epoch too.
    let metrics = get(&addr, "/metrics");
    let doc = parse(&metrics);
    assert_eq!(
        field(&doc, &["topology_epoch"]).map(|v| as_u64(&v)),
        Some(2)
    );
    assert_eq!(
        field(&doc, &["router", "topology_epoch"]).map(|v| as_u64(&v)),
        Some(2)
    );

    // -- background load that must never see a 5xx --------------------
    let mix: Vec<String> = (1..=8).map(|i| sim_body(&format!("R{i:02}"))).collect();
    for body in &mix {
        assert_eq!(post(&addr, "/v2/simulate", body).status, 200);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let server_errors = Arc::new(AtomicU64::new(0));
    let transport_errors = Arc::new(AtomicU64::new(0));
    let load = {
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        let server_errors = Arc::clone(&server_errors);
        let transport_errors = Arc::clone(&transport_errors);
        let mix = mix.clone();
        std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let body = &mix[i % mix.len()];
                i += 1;
                total.fetch_add(1, Ordering::Relaxed);
                let outcome = TcpStream::connect(addr).and_then(|mut stream| {
                    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                    write_request(&mut stream, "POST", "/v2/simulate", Some(body.as_bytes()))?;
                    read_response(&stream)
                });
                match outcome {
                    Ok(resp) if resp.status >= 500 => {
                        server_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {}
                    Err(_) => {
                        transport_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // -- rolling restart: replace every shard, one at a time ----------
    let mut replacements = Vec::new();
    let mut saw_resharded = false;
    for (round, victim) in [0u32, 1, 2].into_iter().enumerate() {
        // Grow first: add the replacement daemon to the ring.
        let fresh = spawn_one(base.join(format!("run-replace-{round}")));
        let fresh_addr = fresh.addr;
        replacements.push(fresh);
        let epoch = epoch_of(&topology(&addr));
        let resp = request(
            &addr,
            "POST",
            "/v2/admin/shards",
            Some(&format!(r#"{{"addr": "{fresh_addr}", "weight": 1.0}}"#)),
            &[("if-match", &epoch.to_string())],
        );
        assert_eq!(resp.status, 200, "add shard: {}", body_str(&resp));
        let change = data_of(&resp);
        let moved = as_f64(&field(&change, &["moved_fraction"]).expect("moved_fraction"));
        assert!(
            moved > 0.0 && moved < 0.5,
            "add moved_fraction {moved} out of range"
        );

        if round == 0 {
            // Pin the victim with a detached cold sweep posted straight
            // to it: the job keeps the daemon's pool busy, so the drain
            // triggered by the removal below cannot complete instantly
            // and the draining window is wide enough to observe.
            let pin = post(
                &shard_addrs[victim as usize],
                "/v2/sweep",
                r#"{"kernel": "spmspv", "matrix": "R13", "sampled": 3}"#,
            );
            assert_eq!(pin.status, 202, "pin sweep: {}", body_str(&pin));
        }

        // Shrink: remove the victim. It leaves the active ring at once
        // (state draining) and is dropped when its drain finishes.
        let epoch = epoch_of(&topology(&addr));
        let resp = request(
            &addr,
            "DELETE",
            &format!("/v2/admin/shards/{victim}"),
            None,
            &[("if-match", &epoch.to_string())],
        );
        assert_eq!(resp.status, 200, "remove shard: {}", body_str(&resp));
        let change = data_of(&resp);
        let topo_doc = field(&change, &["topology"]).expect("topology");
        let entry = topo_shards(&topo_doc)
            .into_iter()
            .find(|(id, _, _)| *id == victim)
            .expect("victim still listed while draining");
        assert_eq!(entry.2, "draining");

        if round == 0 {
            // A key whose pre-drain owner is the draining victim must be
            // answered by its new owner and marked as an intentional
            // reshard move — not as a failover.
            let shards_now = topo_shards(&topo_doc);
            let full: Vec<(u32, f64)> = shards_now.iter().map(|(id, w, _)| (*id, *w)).collect();
            let active: Vec<(u32, f64)> = shards_now
                .iter()
                .filter(|(_, _, state)| state == "active")
                .map(|(id, w, _)| (*id, *w))
                .collect();
            let full_ring = Ring::weighted(&full);
            let active_ring = Ring::weighted(&active);
            // Scan real workloads for one whose pre-drain owner is the
            // victim; the victim's ring share makes a miss across the
            // whole suite astronomically unlikely.
            let moved_body = ["spmspv", "spmspm", "spmv", "sptrsv", "symgs"]
                .iter()
                .flat_map(|kernel| {
                    (1..=16).map(move |i| {
                        format!(
                            r#"{{"kernel": "{kernel}", "matrix": "R{i:02}", "config_name": "baseline"}}"#
                        )
                    })
                })
                .find(|body| {
                    let key = routing_key(body.as_bytes());
                    full_ring.assign(&key) == victim && active_ring.assign(&key) != victim
                })
                .expect("some key moved off the draining shard");
            let resp = post(&addr, "/v2/simulate", &moved_body);
            assert_eq!(resp.status, 200, "moved key: {}", body_str(&resp));
            assert_eq!(
                resp.header("x-sparseadapt-resharded"),
                Some("1"),
                "planned move must be marked resharded: {}",
                body_str(&resp)
            );
            assert_eq!(
                resp.header("x-sparseadapt-rerouted"),
                None,
                "planned move must not read as failover"
            );
            assert!(body_str(&resp).starts_with("{\"resharded\": true,"));
            saw_resharded = true;
        }

        // Wait for the drain to finish and the victim to drop out of
        // the topology entirely.
        let deadline = Instant::now() + Duration::from_secs(40);
        loop {
            let now = topo_shards(&topology(&addr));
            if now.iter().all(|(id, _, _)| *id != victim) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "shard {victim} never left the topology"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
        // The daemon itself exits 0 once its in-flight work (the pin
        // sweep, for round 0) finishes — the drain never kills it.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !shards[victim as usize].exited() {
            assert!(
                Instant::now() < deadline,
                "drained shard {victim} should have exited on its own"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    // -- the fully-replaced cluster is healthy under the same load ----
    std::thread::sleep(Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);
    load.join().expect("load thread");
    let sent = total.load(Ordering::Relaxed);
    assert!(sent > 50, "load thread barely ran: {sent} requests");
    assert_eq!(
        server_errors.load(Ordering::Relaxed),
        0,
        "rolling restart must never surface a 5xx"
    );
    assert_eq!(
        transport_errors.load(Ordering::Relaxed),
        0,
        "rolling restart must never drop a client connection"
    );
    assert!(saw_resharded);

    let topo = topology(&addr);
    let entries = topo_shards(&topo);
    assert_eq!(
        entries.iter().map(|(id, _, _)| *id).collect::<Vec<_>>(),
        vec![3, 4, 5],
        "every original shard must be replaced"
    );
    assert!(entries.iter().all(|(_, _, state)| state == "active"));

    // Replaced shards answer the same traffic, warm from the shared
    // disk tier or recomputed — and the router's counters show the
    // moves were classified as planned, not failover noise.
    for body in &mix {
        assert_eq!(post(&addr, "/v2/simulate", body).status, 200);
    }
    let metrics = get(&addr, "/metrics");
    let doc = parse(&metrics);
    assert_eq!(field(&doc, &["shard_count"]).map(|v| as_u64(&v)), Some(3));
    assert!(as_u64(&field(&doc, &["resharded_total"]).expect("resharded_total")) >= 1);
    let moved = as_f64(
        &field(&doc, &["last_reshard_moved_fraction"]).expect("last_reshard_moved_fraction"),
    );
    assert!((0.0..=1.0).contains(&moved));

    router.shutdown();
    drop(replacements);
    drop(shards);
    let _ = std::fs::remove_dir_all(&base);
}
