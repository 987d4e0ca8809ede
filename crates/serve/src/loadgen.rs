//! The load-testing client behind the `loadgen` binary.
//!
//! Two phases against a live daemon:
//!
//! 1. **Cold**: every unique request in the mix once, sequentially, on
//!    a fresh connection — measures uncached simulation latency.
//! 2. **Warm**: `concurrency` closed-loop (or rate-paced) connections
//!    cycling through the same mix for `duration_s` — every simulate
//!    now hits the trace cache, so the throughput delta against the
//!    cold phase is the cache's measured payoff.
//!
//! Latencies are recorded per request and percentiles computed exactly
//! from the raw samples (the server's `/metrics` histogram is
//! bucket-resolution; this client is the precise instrument).
//!
//! A third mode, `--replay FILE`, substitutes a recorded trace for the
//! fixed mix: JSONL records (as produced by the router's `--record`
//! flag) carry relative timestamps and request bodies, and the replay
//! fires each request at its recorded offset — reproducing a captured
//! arrival process instead of a synthetic closed loop.
//!
//! Outcome classification reads the daemon's structured error shape
//! (`{code, message, retry_after_ms?}`): a `queue_full` code counts as
//! admission backpressure wherever it appears, anything else as an
//! error — the status code is only the fallback for bodies that don't
//! parse.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize, Value};
use sparseadapt::ReconfigPolicy;
use transmuter::config::TransmuterConfig;
use transmuter::counters::Telemetry;

use crate::api::{ApiError, RecommendApiRequest, ShardDoc, SimulateRequest, TopologyDoc};
use crate::http::{read_response, write_request, ResponseParser};

/// Client-side settings.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// Warm-phase duration, seconds.
    pub duration_s: f64,
    /// Concurrent warm-phase connections.
    pub concurrency: usize,
    /// Total target request rate; `None` runs closed-loop (as fast as
    /// responses come back).
    pub target_rps: Option<f64>,
    /// Where to write the JSON report; `None` prints to stdout only.
    pub out: Option<PathBuf>,
    /// Baseline report to guard against (p99 regression).
    pub guard: Option<PathBuf>,
    /// Fail when warm p99 exceeds `guard_factor` × the baseline's.
    pub guard_factor: f64,
    /// Recorded-trace replay log (JSONL); replaces the cold/warm mix.
    pub replay: Option<PathBuf>,
    /// Run the open-loop high-fanout phase after the warm phase.
    pub open_loop: bool,
    /// Open-loop keep-alive connections.
    pub connections: usize,
    /// Open-loop offered arrival rate (Poisson), requests/second.
    pub open_rps: f64,
    /// Open-loop duration, seconds.
    pub open_duration_s: f64,
    /// Shrink every phase for CI smoke runs.
    pub quick: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".to_string(),
            duration_s: 5.0,
            concurrency: 4,
            target_rps: None,
            out: None,
            guard: None,
            guard_factor: 4.0,
            replay: None,
            open_loop: false,
            connections: 1000,
            open_rps: 500.0,
            open_duration_s: 10.0,
            quick: false,
        }
    }
}

/// Aggregated latency/throughput figures of one phase.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseStats {
    /// Requests issued.
    pub requests: u64,
    /// 200/202 responses.
    pub ok: u64,
    /// 429 responses (admission control working as designed).
    pub rejected_429: u64,
    /// Anything else (connection failures, 4xx/5xx): a test failure.
    pub errors: u64,
    /// Phase wall time, seconds.
    pub wall_s: f64,
    /// Answered requests per second.
    pub rps: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Exact percentiles from raw samples, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Worst observed latency, ms.
    pub max_ms: f64,
}

/// Figures of the open-loop high-fanout phase. Unlike the closed-loop
/// phases, arrivals here follow a fixed Poisson schedule that does not
/// slow down when the server does, and every latency is measured from
/// the request's *scheduled* time — the classic coordinated-omission
/// fix: a stalled connection inflates the percentiles instead of
/// silently thinning the arrival stream.
#[derive(Debug, Clone, Serialize)]
pub struct OpenLoopStats {
    /// Keep-alive connections held open for the phase.
    pub connections: u64,
    /// Requested Poisson arrival rate.
    pub offered_rps: f64,
    /// Completed responses per second of wall time.
    pub achieved_rps: f64,
    /// Arrivals scheduled (sent or stalled).
    pub offered: u64,
    /// Responses completed.
    pub completed: u64,
    /// 200/202 responses.
    pub ok: u64,
    /// Backpressure responses (429 `queue_full` / 503 `overloaded`).
    pub rejected: u64,
    /// Anything else: a test failure.
    pub errors: u64,
    /// Connections the server dropped mid-phase.
    pub disconnects: u64,
    /// Arrivals that found their connection still busy and had to
    /// queue behind the in-flight request.
    pub stalled_issues: u64,
    /// Worst per-connection stall count.
    pub max_conn_stalls: u64,
    /// Wall time of the up-front connect ramp, seconds. A value
    /// approaching the server's idle timeout means early connections
    /// can idle out before the arrival phase starts — a methodology
    /// problem, not a server bug.
    pub connect_s: f64,
    /// Phase wall time, seconds.
    pub wall_s: f64,
    /// Mean scheduled-to-response latency, ms.
    pub mean_ms: f64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Worst observed, ms.
    pub max_ms: f64,
}

/// The whole `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Daemon address the run hit.
    pub addr: String,
    /// Warm-phase connections.
    pub concurrency: usize,
    /// Open-loop connections (0 when the phase didn't run).
    pub concurrent_conns: u64,
    /// Requested rate (0 = closed loop).
    pub target_rps: f64,
    /// Unique requests in the mix.
    pub mix_size: usize,
    /// Cold pass (empty trace cache, sequential).
    pub cold: PhaseStats,
    /// Cold-pass simulate responses that reported `cached: true`. Zero
    /// against a fresh daemon; anything else means the server's trace
    /// cache was already warm and `warm_over_cold_rps` understates the
    /// cache payoff.
    pub cold_cache_hits: u64,
    /// Warm pass (cache-served, concurrent).
    pub warm: PhaseStats,
    /// `warm.rps / cold.rps` — the cache's measured speedup.
    pub warm_over_cold_rps: f64,
    /// Server-reported trace-cache hit ratio after the run.
    pub server_hit_ratio: f64,
    /// Server-reported coalesced request count after the run.
    pub server_coalesced_total: u64,
    /// Open-loop phase figures (`--open-loop` runs only).
    pub open_loop: Option<OpenLoopStats>,
}

/// One prepared request: method, target, body.
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    /// HTTP method.
    pub method: String,
    /// Request target (path).
    pub target: String,
    /// JSON body.
    pub body: String,
}

/// One line of a replay log, as written by the router's `--record`
/// flag: a relative timestamp plus the request it saw.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayRecord {
    /// Milliseconds since the recording started.
    pub ts_ms: u64,
    /// HTTP method.
    pub method: String,
    /// Request target (path).
    pub target: String,
    /// JSON body, verbatim.
    pub body: String,
}

/// Parses a JSONL replay log. Blank lines are skipped; records are
/// sorted by timestamp so a log stitched from several sources still
/// replays in arrival order.
///
/// # Errors
///
/// Returns a message naming the first unparseable line.
pub fn load_replay(path: &PathBuf) -> Result<Vec<ReplayRecord>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("replay {}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: ReplayRecord = serde_json::from_str(line)
            .map_err(|e| format!("replay {} line {}: {e}", path.display(), lineno + 1))?;
        records.push(record);
    }
    records.sort_by_key(|r| r.ts_ms);
    Ok(records)
}

/// The default mix: six SpMSpV simulate requests (two suite matrices ×
/// three named configurations), one simulate per solver-family kernel
/// (SpMV / SpTRSV / SymGS, on the v2 dialect), plus two recommend
/// requests. Small enough that the cold pass stays in CI budget, varied
/// enough that the warm phase exercises distinct cache keys.
pub fn default_mix() -> Vec<PreparedRequest> {
    let mut mix = Vec::new();
    for matrix in ["R09", "R10"] {
        for config_name in ["baseline", "best_avg_cache", "maximum"] {
            let req = SimulateRequest {
                kernel: "spmspv".to_string(),
                matrix: matrix.to_string(),
                l1_kind: None,
                config: None,
                config_name: Some(config_name.to_string()),
            };
            mix.push(PreparedRequest {
                method: "POST".to_string(),
                target: "/v1/simulate".to_string(),
                body: serde_json::to_string(&req).expect("mix serializes"),
            });
        }
    }
    for kernel in ["spmv", "sptrsv", "symgs"] {
        let req = SimulateRequest {
            kernel: kernel.to_string(),
            matrix: "R09".to_string(),
            l1_kind: None,
            config: None,
            config_name: Some("baseline".to_string()),
        };
        mix.push(PreparedRequest {
            method: "POST".to_string(),
            target: "/v2/simulate".to_string(),
            body: serde_json::to_string(&req).expect("mix serializes"),
        });
    }
    for policy in [None, Some(ReconfigPolicy::hybrid40())] {
        let req = RecommendApiRequest {
            kernel: "spmspv".to_string(),
            l1_kind: None,
            mode: None,
            telemetry: Telemetry::default(),
            current: TransmuterConfig::baseline(),
            policy,
            last_epoch_time_s: Some(0.01),
        };
        mix.push(PreparedRequest {
            method: "POST".to_string(),
            target: "/v1/recommend".to_string(),
            body: serde_json::to_string(&req).expect("mix serializes"),
        });
    }
    mix
}

#[derive(Default)]
struct PhaseAccumulator {
    latencies_ms: Mutex<Vec<f64>>,
    ok: AtomicU64,
    rejected_429: AtomicU64,
    errors: AtomicU64,
}

impl PhaseAccumulator {
    /// Classifies one exchange. The structured error body is the
    /// primary signal — a `queue_full` code is admission backpressure
    /// regardless of transport details — and the status code is the
    /// fallback for responses whose body doesn't parse as an
    /// [`ApiError`] (connection failures pass `None`, `None`).
    fn record(&self, status: Option<u16>, body: Option<&[u8]>, latency_ms: f64) {
        self.latencies_ms
            .lock()
            .expect("latency lock")
            .push(latency_ms);
        match status {
            Some(200) | Some(202) => self.ok.fetch_add(1, Ordering::Relaxed),
            Some(s) => match body.and_then(parse_api_error) {
                // `overloaded` is the reactor's connection/dispatch shed:
                // like `queue_full` it asks the client to back off, so it
                // counts as backpressure, not an error.
                Some(err)
                    if err.code == crate::api::code::QUEUE_FULL
                        || err.code == crate::api::code::OVERLOADED =>
                {
                    self.rejected_429.fetch_add(1, Ordering::Relaxed)
                }
                Some(_) => self.errors.fetch_add(1, Ordering::Relaxed),
                None if s == 429 => self.rejected_429.fetch_add(1, Ordering::Relaxed),
                None => self.errors.fetch_add(1, Ordering::Relaxed),
            },
            None => self.errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    fn stats(&self, wall_s: f64) -> PhaseStats {
        let mut lat = self.latencies_ms.lock().expect("latency lock").clone();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let requests = lat.len() as u64;
        let pct = |p: f64| -> f64 {
            if lat.is_empty() {
                return 0.0;
            }
            let rank = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
            lat[rank - 1]
        };
        PhaseStats {
            requests,
            ok: self.ok.load(Ordering::Relaxed),
            rejected_429: self.rejected_429.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            wall_s,
            rps: if wall_s > 0.0 {
                requests as f64 / wall_s
            } else {
                0.0
            },
            mean_ms: if lat.is_empty() {
                0.0
            } else {
                lat.iter().sum::<f64>() / lat.len() as f64
            },
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: lat.last().copied().unwrap_or(0.0),
        }
    }
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    // Request latency is the measurement; Nagle batching would be noise.
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn issue(stream: &mut TcpStream, req: &PreparedRequest) -> Result<(u16, Vec<u8>), std::io::Error> {
    write_request(stream, &req.method, &req.target, Some(&req.body))?;
    let resp = read_response(stream)?;
    Ok((resp.status, resp.body))
}

/// Runs one GET and returns the body (used for the final `/metrics`
/// scrape).
fn get(addr: &str, target: &str) -> Result<Vec<u8>, String> {
    let mut stream = connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write_request(&mut stream, "GET", target, None).map_err(|e| e.to_string())?;
    let resp = read_response(&stream).map_err(|e| e.to_string())?;
    Ok(resp.body)
}

/// Extracts the structured [`ApiError`] from an error body, looking
/// both at the bare v1 shape and inside the v2 envelope's `"error"`
/// field.
fn parse_api_error(body: &[u8]) -> Option<ApiError> {
    let text = std::str::from_utf8(body).ok()?;
    let Value::Obj(pairs) = serde_json::parse_value_str(text).ok()? else {
        return None;
    };
    let err_value = match serde::obj_get(&pairs, "error") {
        Value::Obj(_) => serde::obj_get(&pairs, "error").clone(),
        _ => Value::Obj(pairs),
    };
    serde::Deserialize::from_value(&err_value).ok()
}

/// Whether a simulate response body carries `"cached": true`, looking
/// through the v2 envelope's `"data"` field when present.
fn response_says_cached(body: &[u8]) -> bool {
    fn cached_in(pairs: &[(String, Value)]) -> bool {
        if pairs
            .iter()
            .any(|(k, v)| k == "cached" && *v == Value::Bool(true))
        {
            return true;
        }
        match serde::obj_get(pairs, "data") {
            Value::Obj(inner) => cached_in(inner),
            _ => false,
        }
    }
    std::str::from_utf8(body)
        .ok()
        .and_then(|text| serde_json::parse_value_str(text).ok())
        .map(|value| matches!(value, Value::Obj(ref pairs) if cached_in(pairs)))
        .unwrap_or(false)
}

fn scrape_cache_stats(addr: &str) -> (f64, u64) {
    let unknown = || (0.0, 0);
    let Ok(body) = get(addr, "/metrics") else {
        return unknown();
    };
    let Ok(text) = String::from_utf8(body) else {
        return unknown();
    };
    let Ok(value) = serde_json::parse_value_str(&text) else {
        return unknown();
    };
    let field = |path: &[&str]| -> Option<Value> {
        let mut cur = value.clone();
        for key in path {
            let Value::Obj(pairs) = cur else { return None };
            cur = pairs.into_iter().find(|(k, _)| k == key)?.1;
        }
        Some(cur)
    };
    // A router's /metrics nests the cluster-wide view under "merged";
    // a plain daemon answers with the fields at the top level.
    let hit_ratio = match field(&["merged", "trace_cache", "hit_ratio"])
        .or_else(|| field(&["trace_cache", "hit_ratio"]))
    {
        Some(Value::Float(f)) => f,
        Some(Value::UInt(u)) => u as f64,
        Some(Value::Int(i)) => i as f64,
        _ => 0.0,
    };
    let coalesced =
        match field(&["merged", "coalesced_total"]).or_else(|| field(&["coalesced_total"])) {
            Some(Value::UInt(u)) => u,
            Some(Value::Int(i)) => i.max(0) as u64,
            _ => 0,
        };
    (hit_ratio, coalesced)
}

/// Runs the configured load: recorded-trace replay when `replay` is
/// set, otherwise the cold pass followed by the warm phase.
///
/// # Errors
///
/// Returns a message on connection failure, an unreadable replay log,
/// or a mix that cannot be issued at all.
pub fn run(cfg: &LoadgenConfig) -> Result<Report, String> {
    match &cfg.replay {
        Some(path) => run_replay(cfg, path),
        None => run_mix(cfg),
    }
}

/// Replays a recorded trace: each record fires at its recorded offset
/// (closed-loop workers pull the schedule; a late start never reorders
/// arrivals). The replay fills the report's warm phase; there is no
/// cold pass — the recording *is* the arrival process.
fn run_replay(cfg: &LoadgenConfig, path: &PathBuf) -> Result<Report, String> {
    let records = load_replay(path)?;
    if records.is_empty() {
        return Err(format!("replay {}: no records", path.display()));
    }
    let acc = PhaseAccumulator::default();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cfg.concurrency.max(1) {
            let acc = &acc;
            let next = &next;
            let records = &records;
            let addr = cfg.addr.clone();
            scope.spawn(move || {
                let Ok(mut stream) = connect(&addr) else {
                    return;
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(record) = records.get(i) else {
                        return;
                    };
                    let due = Duration::from_millis(record.ts_ms);
                    let elapsed = started.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                    let req = PreparedRequest {
                        method: record.method.clone(),
                        target: record.target.clone(),
                        body: record.body.clone(),
                    };
                    let issued = Instant::now();
                    match issue(&mut stream, &req) {
                        Ok((status, body)) => acc.record(
                            Some(status),
                            Some(&body),
                            issued.elapsed().as_secs_f64() * 1e3,
                        ),
                        Err(_) => {
                            acc.record(None, None, issued.elapsed().as_secs_f64() * 1e3);
                            match connect(&addr) {
                                Ok(s) => stream = s,
                                Err(_) => return,
                            }
                        }
                    }
                }
            });
        }
    });
    let warm = acc.stats(started.elapsed().as_secs_f64());
    let (server_hit_ratio, server_coalesced_total) = scrape_cache_stats(&cfg.addr);
    let empty = PhaseAccumulator::default().stats(0.0);
    Ok(Report {
        addr: cfg.addr.clone(),
        concurrency: cfg.concurrency,
        concurrent_conns: 0,
        target_rps: 0.0,
        mix_size: records.len(),
        cold: empty,
        cold_cache_hits: 0,
        warm,
        warm_over_cold_rps: 0.0,
        server_hit_ratio,
        server_coalesced_total,
        open_loop: None,
    })
}

/// The default two-phase run: cold pass, then the warm closed loop,
/// then (with `--open-loop`) the high-fanout open-loop phase.
fn run_mix(cfg: &LoadgenConfig) -> Result<Report, String> {
    let mix = default_mix();

    // Cold pass: sequential, one connection per request so cold
    // latencies are independent measurements.
    let cold_acc = PhaseAccumulator::default();
    let mut cold_cache_hits = 0u64;
    let cold_started = Instant::now();
    for req in &mix {
        let started = Instant::now();
        let outcome = connect(&cfg.addr)
            .ok()
            .and_then(|mut s| issue(&mut s, req).ok());
        let Some((status, body)) = outcome else {
            return Err(format!("cold pass: {} {} failed", req.method, req.target));
        };
        cold_acc.record(
            Some(status),
            Some(&body),
            started.elapsed().as_secs_f64() * 1e3,
        );
        if status == 200 && req.target == "/v1/simulate" && response_says_cached(&body) {
            cold_cache_hits += 1;
        }
    }
    let cold = cold_acc.stats(cold_started.elapsed().as_secs_f64());

    // Warm phase: `concurrency` connections cycling through the mix.
    let warm_acc = PhaseAccumulator::default();
    let next = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.duration_s);
    let per_conn_interval = cfg
        .target_rps
        .map(|rps| Duration::from_secs_f64(cfg.concurrency as f64 / rps.max(0.001)));
    let warm_started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cfg.concurrency.max(1) {
            let warm_acc = &warm_acc;
            let next = &next;
            let mix = &mix;
            let addr = cfg.addr.clone();
            scope.spawn(move || {
                let Ok(mut stream) = connect(&addr) else {
                    return;
                };
                let mut slot = Instant::now();
                while Instant::now() < deadline {
                    if let Some(interval) = per_conn_interval {
                        let now = Instant::now();
                        if slot > now {
                            std::thread::sleep(slot - now);
                        }
                        slot += interval;
                    }
                    let req = &mix[next.fetch_add(1, Ordering::Relaxed) % mix.len()];
                    let started = Instant::now();
                    match issue(&mut stream, req) {
                        Ok((status, body)) => {
                            warm_acc.record(
                                Some(status),
                                Some(&body),
                                started.elapsed().as_secs_f64() * 1e3,
                            );
                        }
                        Err(_) => {
                            warm_acc.record(None, None, started.elapsed().as_secs_f64() * 1e3);
                            // Reconnect once; give up on repeat failure.
                            match connect(&addr) {
                                Ok(s) => stream = s,
                                Err(_) => return,
                            }
                        }
                    }
                }
            });
        }
    });
    let warm = warm_acc.stats(warm_started.elapsed().as_secs_f64());

    // Open-loop phase: thousands of keep-alive connections, a Poisson
    // arrival schedule that does not slow down with the server.
    let open_loop = if cfg.open_loop {
        Some(run_open_loop(cfg, &mix)?)
    } else {
        None
    };

    let (server_hit_ratio, server_coalesced_total) = scrape_cache_stats(&cfg.addr);
    let warm_over_cold_rps = if cold.rps > 0.0 {
        warm.rps / cold.rps
    } else {
        0.0
    };
    Ok(Report {
        addr: cfg.addr.clone(),
        concurrency: cfg.concurrency,
        concurrent_conns: open_loop.as_ref().map_or(0, |o| o.connections),
        target_rps: cfg.target_rps.unwrap_or(0.0),
        mix_size: mix.len(),
        cold,
        cold_cache_hits,
        warm,
        warm_over_cold_rps,
        server_hit_ratio,
        server_coalesced_total,
        open_loop,
    })
}

// ---------------------------------------------------------------------------
// Open-loop high-fanout mode
// ---------------------------------------------------------------------------

/// One multiplexed client connection in the open-loop phase.
struct OpenConn {
    stream: TcpStream,
    parser: ResponseParser,
    out: Vec<u8>,
    out_pos: usize,
    /// Scheduled time of the in-flight request (one outstanding per
    /// connection, mirroring a real keep-alive client).
    inflight: Option<Instant>,
    /// Scheduled times of arrivals that found the connection busy.
    backlog: std::collections::VecDeque<Instant>,
    /// How many arrivals stalled behind this connection.
    stalls: u64,
    interest: u32,
    dead: bool,
}

/// A prepared request's exact wire bytes (what [`write_request`] would
/// send), so the hot loop never formats.
fn request_wire_bytes(req: &PreparedRequest) -> Vec<u8> {
    let head = format!(
        "{} {} HTTP/1.1\r\nhost: sparseadapt-serve\r\ncontent-length: {}\r\n{}\r\n",
        req.method,
        req.target,
        req.body.len(),
        if req.body.is_empty() {
            ""
        } else {
            "content-type: application/json\r\n"
        },
    );
    let mut wire = Vec::with_capacity(head.len() + req.body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(req.body.as_bytes());
    wire
}

struct OpenLoopRun {
    epfd: i32,
    conns: Vec<OpenConn>,
    wire: Vec<Vec<u8>>,
    next_req: usize,
    outstanding: usize,
    latencies_ms: Vec<f64>,
    ok: u64,
    rejected: u64,
    errors: u64,
    disconnects: u64,
    stalled: u64,
}

impl OpenLoopRun {
    /// An arrival fires against connection `idx`: send immediately if
    /// the connection is free, otherwise queue the scheduled time (the
    /// stall is the signal — a closed-loop client would silently slow
    /// its arrival process here).
    fn arrive(&mut self, idx: usize, sched: Instant) {
        let conn = &mut self.conns[idx];
        if conn.dead {
            self.errors += 1;
            return;
        }
        if conn.inflight.is_some() || !conn.backlog.is_empty() {
            conn.stalls += 1;
            self.stalled += 1;
            conn.backlog.push_back(sched);
            return;
        }
        self.send(idx, sched);
    }

    fn send(&mut self, idx: usize, sched: Instant) {
        let wire = self.wire[self.next_req % self.wire.len()].clone();
        self.next_req += 1;
        let conn = &mut self.conns[idx];
        conn.out = wire;
        conn.out_pos = 0;
        conn.inflight = Some(sched);
        self.outstanding += 1;
        self.flush(idx);
    }

    /// Writes as much pending output as the socket accepts; arms
    /// `EPOLLOUT` on a partial write.
    fn flush(&mut self, idx: usize) {
        use std::io::Write;
        loop {
            let conn = &mut self.conns[idx];
            if conn.dead || conn.out_pos >= conn.out.len() {
                break;
            }
            let pos = conn.out_pos;
            match (&conn.stream).write(&conn.out[pos..]) {
                Ok(0) => {
                    self.kill(idx);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.kill(idx);
                    return;
                }
            }
        }
        self.update_interest(idx);
    }

    fn on_readable(&mut self, idx: usize, now: Instant) {
        use std::io::Read;
        let mut buf = [0u8; 16 * 1024];
        loop {
            let conn = &mut self.conns[idx];
            if conn.dead {
                return;
            }
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    self.kill(idx);
                    return;
                }
                Ok(n) => conn.parser.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.kill(idx);
                    return;
                }
            }
        }
        loop {
            let conn = &mut self.conns[idx];
            match conn.parser.next_response() {
                Ok(Some(resp)) => self.complete(idx, &resp, now),
                Ok(None) => break,
                Err(_) => {
                    self.kill(idx);
                    return;
                }
            }
        }
    }

    fn complete(&mut self, idx: usize, resp: &crate::http::Response, now: Instant) {
        let conn = &mut self.conns[idx];
        let Some(sched) = conn.inflight.take() else {
            // A response with no request in flight: protocol desync.
            self.kill(idx);
            return;
        };
        self.outstanding -= 1;
        self.latencies_ms
            .push(now.saturating_duration_since(sched).as_secs_f64() * 1e3);
        match resp.status {
            200 | 202 => self.ok += 1,
            _ => match parse_api_error(&resp.body) {
                Some(err)
                    if err.code == crate::api::code::QUEUE_FULL
                        || err.code == crate::api::code::OVERLOADED =>
                {
                    self.rejected += 1
                }
                _ => self.errors += 1,
            },
        }
        let next = self.conns[idx].backlog.pop_front();
        if let Some(sched) = next {
            self.send(idx, sched);
        }
    }

    /// Drops a connection the server closed (or that errored): its
    /// in-flight and queued arrivals become errors. No reconnect — the
    /// phase measures a fixed population of keep-alive sockets, and a
    /// server that drops one under load should fail the run, not get a
    /// fresh socket.
    fn kill(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.dead {
            return;
        }
        conn.dead = true;
        self.disconnects += 1;
        let _ = sysio::epoll_del(self.epfd, open_conn_fd(&conn.stream));
        if conn.inflight.take().is_some() {
            self.outstanding -= 1;
            self.errors += 1;
        }
        self.errors += conn.backlog.len() as u64;
        let _ = std::mem::take(&mut self.conns[idx].backlog);
    }

    fn update_interest(&mut self, idx: usize) {
        let epfd = self.epfd;
        let conn = &mut self.conns[idx];
        if conn.dead {
            return;
        }
        let mut want = sysio::EPOLLIN | sysio::EPOLLRDHUP;
        if conn.out_pos < conn.out.len() {
            want |= sysio::EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let _ = sysio::epoll_mod(epfd, open_conn_fd(&conn.stream), want, idx as u64);
        }
    }
}

/// Raw fd of a client stream (safe `AsRawFd` call).
fn open_conn_fd(stream: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

/// Runs the open-loop phase: `connections` keep-alive sockets on one
/// epoll loop, arrivals on a global Poisson schedule at `open_rps`,
/// each assigned to a random connection. Only the cache-warm simulate
/// requests from the mix are issued (the phase measures the serve
/// core's fan-out, not cold simulation latency).
///
/// # Errors
///
/// Returns a message when connections cannot be established or the
/// epoll instance cannot be created.
fn run_open_loop(cfg: &LoadgenConfig, mix: &[PreparedRequest]) -> Result<OpenLoopStats, String> {
    use rand::{Rng, SeedableRng};

    let wire: Vec<Vec<u8>> = mix
        .iter()
        .filter(|r| r.target.ends_with("/simulate"))
        .map(request_wire_bytes)
        .collect();
    if wire.is_empty() {
        return Err("open loop: mix has no simulate requests".to_string());
    }
    let connections = cfg.connections.max(1);
    let offered_rps = cfg.open_rps.max(1.0);
    let duration_s = if cfg.quick {
        cfg.open_duration_s.min(3.0)
    } else {
        cfg.open_duration_s
    };

    let epfd = sysio::epoll_create().map_err(|e| format!("open loop: epoll_create: {e}"))?;
    let connect_started = Instant::now();
    let mut conns = Vec::with_capacity(connections);
    for i in 0..connections {
        let stream = connect(&cfg.addr).map_err(|e| format!("open loop: connect #{i}: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("open loop: nonblocking #{i}: {e}"))?;
        let _ = stream.set_nodelay(true);
        sysio::epoll_add(
            epfd,
            open_conn_fd(&stream),
            sysio::EPOLLIN | sysio::EPOLLRDHUP,
            i as u64,
        )
        .map_err(|e| format!("open loop: epoll_add #{i}: {e}"))?;
        conns.push(OpenConn {
            stream,
            parser: ResponseParser::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: None,
            backlog: std::collections::VecDeque::new(),
            stalls: 0,
            interest: sysio::EPOLLIN | sysio::EPOLLRDHUP,
            dead: false,
        });
    }
    let connect_s = connect_started.elapsed().as_secs_f64();

    let mut run = OpenLoopRun {
        epfd,
        conns,
        wire,
        next_req: 0,
        outstanding: 0,
        latencies_ms: Vec::new(),
        ok: 0,
        rejected: 0,
        errors: 0,
        disconnects: 0,
        stalled: 0,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_10ad);
    let interarrival = |rng: &mut rand::rngs::StdRng| -> Duration {
        let u: f64 = rng.gen_range(0.0..1.0);
        Duration::from_secs_f64((-(1.0 - u).ln() / offered_rps).min(1.0))
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(duration_s);
    // After arrivals stop, give stragglers a bounded window to answer.
    let grace = deadline + Duration::from_secs(5);
    let mut next_arrival = started + interarrival(&mut rng);
    let mut offered = 0u64;
    let mut events = vec![sysio::EpollEvent::default(); 1024];

    loop {
        let now = Instant::now();
        if (now >= deadline && run.outstanding == 0) || now >= grace {
            break;
        }
        while next_arrival <= Instant::now() && next_arrival < deadline {
            let idx = rng.gen_range(0..run.conns.len());
            offered += 1;
            run.arrive(idx, next_arrival);
            next_arrival += interarrival(&mut rng);
        }
        let now = Instant::now();
        let until_arrival = if next_arrival < deadline {
            next_arrival.saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        let timeout_ms = until_arrival.as_millis().clamp(0, 50) as i32;
        let n = sysio::epoll_wait(epfd, &mut events, timeout_ms)
            .map_err(|e| format!("open loop: epoll_wait: {e}"))?;
        let now = Instant::now();
        for ev in events.iter().copied().take(n) {
            let idx = ev.data as usize;
            if idx >= run.conns.len() {
                continue;
            }
            if ev.events & (sysio::EPOLLHUP | sysio::EPOLLERR) != 0 {
                run.kill(idx);
                continue;
            }
            if ev.events & sysio::EPOLLOUT != 0 {
                run.flush(idx);
            }
            if ev.events & (sysio::EPOLLIN | sysio::EPOLLRDHUP) != 0 {
                run.on_readable(idx, now);
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    sysio::close_fd(epfd);

    let mut lat = std::mem::take(&mut run.latencies_ms);
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let rank = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
        lat[rank - 1]
    };
    let completed = lat.len() as u64;
    Ok(OpenLoopStats {
        connections: connections as u64,
        offered_rps,
        achieved_rps: if wall_s > 0.0 {
            completed as f64 / wall_s
        } else {
            0.0
        },
        offered,
        completed,
        ok: run.ok,
        rejected: run.rejected,
        errors: run.errors,
        disconnects: run.disconnects,
        stalled_issues: run.stalled,
        max_conn_stalls: run.conns.iter().map(|c| c.stalls).max().unwrap_or(0),
        connect_s,
        wall_s,
        mean_ms: if lat.is_empty() {
            0.0
        } else {
            lat.iter().sum::<f64>() / lat.len() as f64
        },
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        p99_ms: pct(0.99),
        max_ms: lat.last().copied().unwrap_or(0.0),
    })
}

/// Checks the p99 regression guard: warm p99 must stay within
/// `guard_factor` × the baseline report's warm p99.
///
/// # Errors
///
/// Returns a message describing the breach (or an unreadable baseline).
pub fn check_guard(report: &Report, baseline_path: &PathBuf, factor: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("guard baseline {}: {e}", baseline_path.display()))?;
    let value = serde_json::parse_value_str(&text)
        .map_err(|e| format!("guard baseline {}: {e}", baseline_path.display()))?;
    let Value::Obj(pairs) = value else {
        return Err("guard baseline is not a JSON object".to_string());
    };
    let warm = pairs
        .iter()
        .find(|(k, _)| k == "warm")
        .map(|(_, v)| v.clone())
        .ok_or("guard baseline has no warm phase")?;
    let Value::Obj(warm_pairs) = warm else {
        return Err("guard baseline warm phase is not an object".to_string());
    };
    let baseline_p99 = warm_pairs
        .iter()
        .find(|(k, _)| k == "p99_ms")
        .and_then(|(_, v)| match v {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        })
        .ok_or("guard baseline has no warm.p99_ms")?;
    let limit = baseline_p99 * factor;
    if report.warm.p99_ms > limit {
        return Err(format!(
            "warm p99 {:.2} ms exceeds guard {:.2} ms ({factor}x baseline {:.2} ms)",
            report.warm.p99_ms, limit, baseline_p99
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Cluster epoch-tier A/B (`loadgen --epoch-ab`)
// ---------------------------------------------------------------------------

/// Settings of the self-contained cluster epoch-tier A/B. Unlike the
/// main load phases this mode does not hit a caller-provided daemon: it
/// spawns its own two-shard clusters (one per arm) from `serve_exe`, so
/// both arms start from a provably cold tier.
#[derive(Debug, Clone)]
pub struct EpochAbConfig {
    /// The `serve` binary to spawn shard processes from.
    pub serve_exe: PathBuf,
    /// Peer-fetch budget for the tier-on arm, milliseconds.
    pub budget_ms: u64,
}

/// One arm of the epoch-tier A/B: warm shard A with the simulate mix,
/// then measure the same mix live on shard B — with the remote tier on
/// (B fast-forwards through A's epochs) or off (B recomputes all of
/// them).
#[derive(Debug, Clone, Serialize)]
pub struct EpochAbArm {
    /// The warm pass on shard A (populates A's epoch tier; its cold
    /// latencies are the recompute reference).
    pub warm_a: PhaseStats,
    /// The measured live pass on shard B.
    pub live_b: PhaseStats,
    /// B's epoch-cache remote hits after the pass.
    pub remote_hits: u64,
    /// B's remote fetches that missed (peer didn't have the key or the
    /// budget expired).
    pub remote_misses: u64,
    /// Extra epochs B prefetched via the digest chain (one round trip
    /// warms the rest of the run).
    pub remote_chain_entries: u64,
    /// `remote_hits / (remote_hits + remote_misses)`.
    pub remote_hit_ratio: f64,
    /// Median remote fetch latency on B, milliseconds.
    pub remote_fetch_p50_ms: f64,
    /// 95th-percentile remote fetch latency on B, milliseconds.
    pub remote_fetch_p95_ms: f64,
}

/// The `cluster_epoch_tier` block of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct EpochAbReport {
    /// Simulate requests per pass.
    pub mix_size: usize,
    /// Peer-fetch budget used by the tier-on arm, milliseconds.
    pub budget_ms: u64,
    /// Remote tier on: B is fed by A over `GET /v2/cache/epoch/{key}`.
    pub tier_on: EpochAbArm,
    /// Remote tier off: B recomputes everything locally.
    pub tier_off: EpochAbArm,
    /// `tier_off.live_b.mean_ms / tier_on.live_b.mean_ms` — the live
    /// cluster-warm speedup the remote tier buys.
    pub warm_speedup: f64,
    /// Whether both arms returned identical simulation payloads
    /// (everything except the `cached` flag and wall-time field).
    pub identical: bool,
}

/// The simulate-only subset of the default mix: recommend requests
/// never enter the epoch-cache path, so they would only dilute the A/B.
fn epoch_ab_mix() -> Vec<PreparedRequest> {
    default_mix()
        .into_iter()
        .filter(|r| r.target.ends_with("/simulate"))
        .collect()
}

/// A simulate response body with the fields that legitimately differ
/// between a cold and a peer-warm run (`cached`, `sim_ms`) stripped,
/// re-serialized for comparison; `None` when the body isn't JSON.
fn normalized_sim_body(body: &[u8]) -> Option<String> {
    fn strip(pairs: Vec<(String, Value)>) -> Vec<(String, Value)> {
        pairs
            .into_iter()
            .filter(|(k, _)| k != "cached" && k != "sim_ms")
            .map(|(k, v)| match v {
                Value::Obj(inner) if k == "data" => (k, Value::Obj(strip(inner))),
                other => (k, other),
            })
            .collect()
    }
    let text = std::str::from_utf8(body).ok()?;
    let value = serde_json::parse_value_str(text).ok()?;
    let Value::Obj(pairs) = value else {
        return None;
    };
    serde_json::to_string(&Value::Obj(strip(pairs))).ok()
}

/// Scrapes B's epoch-cache counters after a pass; zeros when the scrape
/// fails (the arm still reports its latencies).
fn scrape_epoch_stats(addr: &str) -> (u64, u64, u64, f64, f64, f64) {
    let Ok(body) = get(addr, "/metrics") else {
        return (0, 0, 0, 0.0, 0.0, 0.0);
    };
    let Some(value) = std::str::from_utf8(&body)
        .ok()
        .and_then(|text| serde_json::parse_value_str(text).ok())
    else {
        return (0, 0, 0, 0.0, 0.0, 0.0);
    };
    let field = |name: &str| -> Option<Value> {
        let Value::Obj(pairs) = &value else {
            return None;
        };
        let Value::Obj(epoch) = serde::obj_get(pairs, "epoch_cache") else {
            return None;
        };
        Some(serde::obj_get(epoch, name).clone())
    };
    let int = |name: &str| match field(name) {
        Some(Value::UInt(u)) => u,
        Some(Value::Int(i)) => i.max(0) as u64,
        _ => 0,
    };
    let float = |name: &str| match field(name) {
        Some(Value::Float(f)) => f,
        Some(Value::UInt(u)) => u as f64,
        Some(Value::Int(i)) => i as f64,
        _ => 0.0,
    };
    (
        int("remote_hits"),
        int("remote_misses"),
        int("remote_chain_entries"),
        float("remote_hit_ratio"),
        float("remote_fetch_p50_ms"),
        float("remote_fetch_p95_ms"),
    )
}

/// Runs one arm: spawn a fresh two-shard cluster, push it a topology,
/// warm A with the mix, measure the mix on B, scrape B's counters.
/// Returns the arm plus B's normalized response payloads (for the
/// cross-arm identity check).
fn run_epoch_arm(
    cfg: &EpochAbConfig,
    peer_fetch: bool,
    run_dir: PathBuf,
) -> Result<(EpochAbArm, Vec<Option<String>>), String> {
    let shards = crate::shard::spawn_shards(&crate::shard::ShardSpawn {
        exe: cfg.serve_exe.clone(),
        count: 2,
        workers: 2,
        queue_cap: 64,
        cache_dir: None,
        cache_mem_cap: None,
        epoch_cache: true,
        epoch_peer_fetch: peer_fetch,
        epoch_fetch_budget_ms: cfg.budget_ms.max(1),
        epoch_warm_push: 0,
        run_dir,
    })
    .map_err(|e| format!("epoch-ab shard spawn: {e}"))?;
    let (a, b) = (shards[0].addr, shards[1].addr);

    // Both arms get the same topology so "off" measures the fetch
    // flag, not a discovery difference.
    let doc = TopologyDoc {
        epoch: 1,
        shards: [a, b]
            .iter()
            .enumerate()
            .map(|(i, addr)| ShardDoc {
                id: i as u32,
                addr: addr.to_string(),
                weight: 1.0,
                state: "active".to_string(),
                healthy: true,
            })
            .collect(),
    };
    let topo_body = serde_json::to_string(&doc).expect("topology serializes");
    for addr in [a, b] {
        let req = PreparedRequest {
            method: "POST".to_string(),
            target: "/v2/admin/topology".to_string(),
            body: topo_body.clone(),
        };
        let (status, body) = issue_to(&addr, &req)?;
        if status != 200 {
            return Err(format!(
                "epoch-ab topology push to {addr}: {status} {}",
                String::from_utf8_lossy(&body)
            ));
        }
    }

    let mix = epoch_ab_mix();
    let warm_acc = PhaseAccumulator::default();
    let warm_started = Instant::now();
    for req in &mix {
        timed_issue(&a, req, &warm_acc);
    }
    let warm_a = warm_acc.stats(warm_started.elapsed().as_secs_f64());

    let live_acc = PhaseAccumulator::default();
    let mut payloads = Vec::with_capacity(mix.len());
    let live_started = Instant::now();
    for req in &mix {
        payloads.push(timed_issue(&b, req, &live_acc));
    }
    let live_b = live_acc.stats(live_started.elapsed().as_secs_f64());

    let (remote_hits, remote_misses, remote_chain_entries, remote_hit_ratio, p50, p95) =
        scrape_epoch_stats(&b.to_string());
    drop(shards);
    Ok((
        EpochAbArm {
            warm_a,
            live_b,
            remote_hits,
            remote_misses,
            remote_chain_entries,
            remote_hit_ratio,
            remote_fetch_p50_ms: p50,
            remote_fetch_p95_ms: p95,
        },
        payloads,
    ))
}

fn issue_to(addr: &SocketAddr, req: &PreparedRequest) -> Result<(u16, Vec<u8>), String> {
    let mut stream = connect(&addr.to_string()).map_err(|e| format!("connect {addr}: {e}"))?;
    issue(&mut stream, req).map_err(|e| format!("request to {addr}: {e}"))
}

/// One timed request against `addr`, recorded into `acc`; returns the
/// normalized payload for 2xx responses.
fn timed_issue(addr: &SocketAddr, req: &PreparedRequest, acc: &PhaseAccumulator) -> Option<String> {
    let started = Instant::now();
    match issue_to(addr, req) {
        Ok((status, body)) => {
            let latency = started.elapsed().as_secs_f64() * 1e3;
            acc.record(Some(status), Some(&body), latency);
            (status == 200)
                .then(|| normalized_sim_body(&body))
                .flatten()
        }
        Err(_) => {
            acc.record(None, None, started.elapsed().as_secs_f64() * 1e3);
            None
        }
    }
}

/// Runs the full A/B: the tier-on arm, then a fresh tier-off arm, and
/// the cross-arm identity/speedup comparison.
///
/// # Errors
///
/// Returns a message when a cluster fails to boot or a topology push is
/// rejected; request-level failures are reported in the phase stats
/// instead.
pub fn run_epoch_ab(cfg: &EpochAbConfig) -> Result<EpochAbReport, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let base = std::env::temp_dir().join(format!("sa_epoch_ab_{}_{nanos}", std::process::id()));
    let on = run_epoch_arm(cfg, true, base.join("on"));
    let off = run_epoch_arm(cfg, false, base.join("off"));
    let _ = std::fs::remove_dir_all(&base);
    let (tier_on, on_payloads) = on?;
    let (tier_off, off_payloads) = off?;
    let warm_speedup = if tier_on.live_b.mean_ms > 0.0 {
        tier_off.live_b.mean_ms / tier_on.live_b.mean_ms
    } else {
        0.0
    };
    let identical = !on_payloads.is_empty()
        && on_payloads.iter().all(Option::is_some)
        && on_payloads == off_payloads;
    Ok(EpochAbReport {
        mix_size: epoch_ab_mix().len(),
        budget_ms: cfg.budget_ms,
        tier_on,
        tier_off,
        warm_speedup,
        identical,
    })
}

/// Merges the A/B into `path` as its `cluster_epoch_tier` field,
/// preserving an existing `BENCH_serve.json` document (an unreadable or
/// non-object file is replaced by a fresh one).
///
/// # Errors
///
/// Returns a message when the merged document cannot be written.
pub fn merge_epoch_ab(path: &PathBuf, report: &EpochAbReport) -> Result<(), String> {
    let mut pairs = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::parse_value_str(&text).ok())
        .and_then(|value| match value {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        })
        .unwrap_or_default();
    pairs.retain(|(k, _)| k != "cluster_epoch_tier");
    pairs.push(("cluster_epoch_tier".to_string(), report.to_value()));
    let json = serde_json::to_string_pretty(&Value::Obj(pairs)).map_err(|e| e.to_string())?;
    std::fs::write(path, format!("{json}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_varied_and_parseable() {
        let mix = default_mix();
        assert_eq!(mix.len(), 11);
        assert!(mix.iter().any(|r| r.target == "/v1/simulate"));
        assert!(mix.iter().any(|r| r.target == "/v2/simulate"));
        assert!(mix.iter().any(|r| r.target == "/v1/recommend"));
        for kernel in ["spmv", "sptrsv", "symgs"] {
            let needle = format!("\"kernel\":\"{kernel}\"");
            assert!(
                mix.iter().any(|r| r.body.contains(&needle)),
                "mix covers {kernel}"
            );
        }
        for req in &mix {
            // Every body must be valid JSON the server can parse back.
            serde_json::parse_value_str(&req.body).expect("mix body is JSON");
        }
    }

    #[test]
    fn percentiles_are_exact_on_raw_samples() {
        let acc = PhaseAccumulator::default();
        for i in 1..=100 {
            acc.record(Some(200), None, i as f64);
        }
        let s = acc.stats(10.0);
        assert_eq!(s.requests, 100);
        assert_eq!(s.ok, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(s.rps, 10.0);
    }

    #[test]
    fn structured_errors_classify_by_code_not_status() {
        let acc = PhaseAccumulator::default();
        // A queue_full body counts as backpressure even off a 503 (a
        // router may relay a shard's rejection with its own status).
        let full = br#"{"code": "queue_full", "message": "busy", "retry_after_ms": 1000}"#;
        acc.record(Some(503), Some(full), 1.0);
        // The v2 envelope carries the same error one level down.
        let enveloped =
            br#"{"v": 2, "data": null, "error": {"code": "queue_full", "message": "busy"}}"#;
        acc.record(Some(429), Some(enveloped), 1.0);
        // A structured non-queue error is an error even on 429.
        let bad = br#"{"code": "bad_request", "message": "nope"}"#;
        acc.record(Some(429), Some(bad), 1.0);
        // Unparseable body falls back to the status code.
        acc.record(Some(429), Some(b"busy"), 1.0);
        acc.record(Some(500), Some(b"boom"), 1.0);
        let s = acc.stats(1.0);
        assert_eq!(s.rejected_429, 3);
        assert_eq!(s.errors, 2);
    }

    #[test]
    fn cached_flag_is_found_through_the_v2_envelope() {
        assert!(response_says_cached(br#"{"cached": true}"#));
        assert!(response_says_cached(
            br#"{"v": 2, "data": {"kernel": "spmspv", "cached": true}}"#
        ));
        assert!(!response_says_cached(
            br#"{"v": 2, "data": {"cached": false}}"#
        ));
        assert!(!response_says_cached(b"not json"));
    }

    #[test]
    fn replay_log_round_trips_and_sorts_by_timestamp() {
        let dir = std::env::temp_dir().join("sa_serve_replay_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("replay.jsonl");
        let lines = [
            r#"{"ts_ms": 20, "method": "POST", "target": "/v1/recommend", "body": "{}"}"#,
            "",
            r#"{"ts_ms": 5, "method": "POST", "target": "/v1/simulate", "body": "{\"kernel\": \"spmspv\"}"}"#,
        ];
        std::fs::write(&path, lines.join("\n")).expect("write log");
        let records = load_replay(&path).expect("parses");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].ts_ms, 5);
        assert_eq!(records[0].target, "/v1/simulate");
        assert_eq!(records[1].ts_ms, 20);
        // A body with nested JSON survives the round trip verbatim.
        assert_eq!(records[0].body, "{\"kernel\": \"spmspv\"}");

        std::fs::write(&path, "not json\n").expect("write bad log");
        assert!(load_replay(&path).is_err());
    }

    #[test]
    fn guard_detects_regression_and_tolerates_headroom() {
        let dir = std::env::temp_dir().join("sa_serve_guard_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("baseline.json");
        std::fs::write(&path, r#"{"warm": {"p99_ms": 10.0}}"#).expect("write baseline");
        let mut report = synthetic_report();
        report.warm.p99_ms = 25.0;
        assert!(check_guard(&report, &path, 4.0).is_ok());
        report.warm.p99_ms = 45.0;
        assert!(check_guard(&report, &path, 4.0).is_err());
    }

    fn synthetic_report() -> Report {
        let phase = PhaseStats {
            requests: 1,
            ok: 1,
            rejected_429: 0,
            errors: 0,
            wall_s: 1.0,
            rps: 1.0,
            mean_ms: 1.0,
            p50_ms: 1.0,
            p95_ms: 1.0,
            p99_ms: 1.0,
            max_ms: 1.0,
        };
        Report {
            addr: "127.0.0.1:0".to_string(),
            concurrency: 1,
            concurrent_conns: 0,
            target_rps: 0.0,
            mix_size: 1,
            cold: phase.clone(),
            cold_cache_hits: 0,
            warm: phase,
            warm_over_cold_rps: 1.0,
            server_hit_ratio: 0.0,
            server_coalesced_total: 0,
            open_loop: None,
        }
    }
}
