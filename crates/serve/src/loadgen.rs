//! The load-testing client behind the `loadgen` binary.
//!
//! One engine sends every measured request: keep-alive connections
//! multiplexed on one client-side epoll loop. Every arrival has a due
//! time and a connection, waits behind that connection's in-flight
//! request, and is timed from its due time, so a request that queued
//! behind a slow one keeps its wait instead of silently thinning the
//! arrival stream (the coordinated-omission fix). Each mode is a
//! schedule for that engine:
//!
//! - **cold pass**: one connection, the mix once, each request due the
//!   moment the previous response lands — uncached simulation latency
//!   on a fresh daemon;
//! - **closed loop** (the default): `connections` connections cycling
//!   through the mix for `duration_s`, each re-armed the moment its
//!   response lands — with the cache warm, the throughput delta
//!   against the cold pass is the cache's measured payoff;
//! - **open loop** (`rps`): Poisson arrivals at `rps` for `duration_s`,
//!   each on a random connection, that do not slow down when the
//!   server does;
//! - **replay** (`replay`): the records of a JSONL log, as written by
//!   the router's `--record` flag, at their recorded offsets,
//!   round-robin over the connections;
//! - **peer-tier A/B** ([`run_peer_ab`]): 105 distinct simulations
//!   (the default mix's kernel/matrix pairs × sampled configurations)
//!   once per pass on one connection.
//!
//! The closed and open loops run after a cold pass over the same mix.
//! Percentiles are exact, from raw samples (the server's `/metrics`
//! histogram is bucket-resolution; this client is the precise
//! instrument). Outcomes are classified by the daemon's structured
//! error shape (`{code, message, retry_after_ms?}`): `queue_full` and
//! `overloaded` count as backpressure wherever they appear, any other
//! code as an error, and the status is only the fallback for bodies
//! that don't parse.
//!
//! The only blocking calls are control calls outside the measurement:
//! the closing `/metrics` scrape and the A/B's topology push.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sa_bench::Harness;
use serde::{Deserialize, Serialize, Value};
use sparseadapt::stitch::sample_configs;
use sparseadapt::ReconfigPolicy;
use transmuter::config::{MemKind, TransmuterConfig};
use transmuter::counters::Telemetry;

use crate::api::{code, ApiError, RecommendApiRequest, ShardDoc, SimulateRequest, TopologyDoc};
use crate::http::{read_response, request_bytes, write_request, Response, ResponseParser};

/// Client-side settings.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, `host:port`.
    pub addr: String,
    /// Length of the closed or open loop, seconds.
    pub duration_s: f64,
    /// Keep-alive connections of the closed loop, open loop or replay.
    pub connections: usize,
    /// Poisson arrival rate, requests/second: runs the open loop instead
    /// of the closed loop.
    pub rps: Option<f64>,
    /// Recorded-trace replay log (JSONL); replaces the mix.
    pub replay: Option<PathBuf>,
    /// File the report is merged into, under [`LoadgenConfig::key`].
    pub out: Option<PathBuf>,
    /// Baseline file whose block of the same kind guards p99.
    pub guard: Option<PathBuf>,
    /// Fail when p99 exceeds `guard_factor` × the baseline's.
    pub guard_factor: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".to_string(),
            duration_s: 5.0,
            connections: 4,
            rps: None,
            replay: None,
            out: None,
            guard: None,
            guard_factor: 4.0,
        }
    }
}

impl LoadgenConfig {
    /// The kind of run, which is the key its report is filed under in
    /// `--out` and looked up under in `--guard`: `closed_loop`,
    /// `open_loop` or `replay`.
    pub fn key(&self) -> &'static str {
        if self.replay.is_some() {
            "replay"
        } else if self.rps.is_some() {
            "open_loop"
        } else {
            "closed_loop"
        }
    }
}

/// Figures of one phase of the engine.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseStats {
    /// Arrivals scheduled: sent, queued or lost with their connection.
    pub requests: u64,
    /// Responses received.
    pub completed: u64,
    /// 200/202 responses.
    pub ok: u64,
    /// Backpressure responses (`queue_full` / `overloaded`, or a bare
    /// 429).
    pub rejected: u64,
    /// Anything else, plus arrivals lost with a dropped connection or
    /// left unanswered: a test failure.
    pub errors: u64,
    /// Connections the server dropped mid-phase.
    pub disconnects: u64,
    /// Arrivals that found their connection busy and queued behind its
    /// in-flight request.
    pub stalled: u64,
    /// Worst per-connection stall count.
    pub max_conn_stalls: u64,
    /// Wall time of the up-front connect ramp, seconds. A value
    /// approaching the server's idle timeout means early connections
    /// can idle out before the first arrival — a methodology problem,
    /// not a server bug.
    pub connect_s: f64,
    /// Phase wall time after the ramp, seconds.
    pub wall_s: f64,
    /// Responses per second of wall time.
    pub rps: f64,
    /// Mean latency from the due time, ms.
    pub mean_ms: f64,
    /// Median, ms (exact, from raw samples).
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Worst observed, ms.
    pub max_ms: f64,
}

/// One run's report: the block `--out` files under the run's key.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Daemon address the run hit.
    pub addr: String,
    /// Connections of the measured phase.
    pub connections: usize,
    /// Poisson arrival rate of the open loop; 0 for the closed loop and
    /// replay.
    pub offered_rps: f64,
    /// Distinct requests: the mix, or the replay log's records.
    pub mix_size: usize,
    /// The cold pass before a closed or open loop; `None` for replay,
    /// whose recording is the whole arrival process.
    pub cold: Option<PhaseStats>,
    /// Cold-pass simulate responses that reported `cached: true`. Zero
    /// against a fresh daemon; anything else means the server's trace
    /// cache was already warm and `warm_over_cold_rps` understates the
    /// cache payoff.
    pub cold_cache_hits: u64,
    /// The measured phase: the closed loop, the open loop or the
    /// replay.
    pub warm: PhaseStats,
    /// `warm.rps / cold.rps` — for the closed loop, the cache's measured
    /// speedup; 0 without a cold pass.
    pub warm_over_cold_rps: f64,
    /// Server-reported trace-cache hit ratio after the run.
    pub server_hit_ratio: f64,
    /// Server-reported coalesced request count after the run.
    pub server_coalesced_total: u64,
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
pub fn load_replay(path: &Path) -> Result<Vec<ReplayRecord>, String> {
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

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// How one response counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Rejected,
    Error,
}

/// Classifies one response. The structured error body is the primary
/// signal: `queue_full` (admission) and `overloaded` (the reactor's
/// connection shed) ask the client to back off, so they count as
/// backpressure whatever the status, and any other code is an error.
/// The status is the fallback for bodies that don't parse as an
/// [`ApiError`]: a bare 429 is backpressure, anything else an error.
fn classify(status: u16, body: &[u8]) -> Outcome {
    match status {
        200 | 202 => Outcome::Ok,
        _ => match parse_api_error(body) {
            Some(err) if err.code == code::QUEUE_FULL || err.code == code::OVERLOADED => {
                Outcome::Rejected
            }
            Some(_) => Outcome::Error,
            None if status == 429 => Outcome::Rejected,
            None => Outcome::Error,
        },
    }
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

/// Whether a cold-pass response shows the daemon already had the
/// answer: a successful simulate, on either dialect, saying `cached`.
fn is_cold_cache_hit(target: &str, status: u16, body: &[u8]) -> bool {
    status == 200 && target.ends_with("/simulate") && response_says_cached(body)
}

/// The counts of one phase, before its latencies are summarised.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    ok: u64,
    rejected: u64,
    errors: u64,
    disconnects: u64,
    stalled: u64,
    latencies_ms: Vec<f64>,
}

impl Tally {
    fn record(&mut self, outcome: Outcome, latency_ms: f64) {
        self.latencies_ms.push(latency_ms);
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    fn finish(self, connect_s: f64, wall_s: f64, max_conn_stalls: u64) -> PhaseStats {
        let mut lat = self.latencies_ms;
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pct = |p: f64| -> f64 {
            if lat.is_empty() {
                return 0.0;
            }
            let rank = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
            lat[rank - 1]
        };
        let completed = lat.len() as u64;
        PhaseStats {
            requests: self.requests,
            completed,
            ok: self.ok,
            rejected: self.rejected,
            errors: self.errors,
            disconnects: self.disconnects,
            stalled: self.stalled,
            max_conn_stalls,
            connect_s,
            wall_s,
            rps: if wall_s > 0.0 {
                completed as f64 / wall_s
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

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// When a run's requests are due.
enum Schedule {
    /// Every connection sends at the start and again the moment each of
    /// its responses lands, cycling through the requests, until
    /// `run_for` has passed or `limit` requests were sent.
    Closed {
        run_for: Option<Duration>,
        limit: Option<usize>,
    },
    /// Fixed arrivals, in due order.
    Timed(Vec<Arrival>),
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Due time, as an offset from the start of the run.
    at: Duration,
    /// The connection it is sent on.
    conn: usize,
    /// The request it sends.
    req: usize,
}

/// After a schedule with an end stops issuing, how long the run waits
/// without any response before it ends and counts what is still
/// unanswered as errors.
const STRAGGLER_WINDOW: Duration = Duration::from_secs(5);

/// The Poisson arrivals of the open loop: `rps` on average for
/// `duration`, each on a random connection, cycling through `mix_len`
/// requests. Seeded, so every run offers the same schedule.
fn poisson_arrivals(
    rps: f64,
    duration: Duration,
    connections: usize,
    mix_len: usize,
) -> Vec<Arrival> {
    use rand::{Rng, SeedableRng};
    let rps = rps.max(1.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_10ad);
    let interarrival = |rng: &mut rand::rngs::StdRng| -> Duration {
        let u: f64 = rng.gen_range(0.0..1.0);
        Duration::from_secs_f64((-(1.0 - u).ln() / rps).min(1.0))
    };
    let mut arrivals = Vec::new();
    let mut at = interarrival(&mut rng);
    while at < duration {
        arrivals.push(Arrival {
            at,
            conn: rng.gen_range(0..connections),
            req: arrivals.len() % mix_len,
        });
        at += interarrival(&mut rng);
    }
    arrivals
}

/// One keep-alive connection of the engine.
struct Conn {
    stream: TcpStream,
    parser: ResponseParser,
    /// Due time and request index of the request on the wire — one per
    /// connection, as a real keep-alive client has.
    inflight: Option<(Instant, usize)>,
    /// Bytes of the in-flight request written so far.
    written: usize,
    /// Arrivals that found the connection busy, in due order.
    backlog: VecDeque<(Instant, usize)>,
    /// How many arrivals queued behind this connection.
    stalls: u64,
    /// The registered epoll interest set.
    interest: u32,
    dead: bool,
}

/// The closed loop's rule for re-arming a connection.
#[derive(Debug, Clone, Copy)]
struct Rearm {
    deadline: Option<Instant>,
    limit: Option<usize>,
}

/// A fixed population of connections on one epoll instance, the wire
/// bytes of every request they may send, and the tally of what came
/// back.
struct Engine {
    epfd: i32,
    conns: Vec<Conn>,
    wire: Vec<Vec<u8>>,
    /// The closed loop's re-arm rule; `None` for timed arrivals.
    rearm: Option<Rearm>,
    /// Requests sent so far: the closed loop's place in the mix.
    sent: usize,
    /// Arrivals sent or queued but not yet answered.
    outstanding: usize,
    last_completion: Instant,
    tally: Tally,
    /// Every response with its request index, when the caller keeps them.
    responses: Option<Vec<(usize, Response)>>,
}

impl Drop for Engine {
    fn drop(&mut self) {
        sysio::close_fd(self.epfd);
    }
}

impl Engine {
    /// An arrival for connection `idx`, due at `due`: sent at once if
    /// the connection is free, otherwise queued behind its in-flight
    /// request with its due time kept.
    fn arrive(&mut self, idx: usize, due: Instant, req: usize) {
        self.tally.requests += 1;
        let conn = &mut self.conns[idx];
        if conn.dead {
            self.tally.errors += 1;
            return;
        }
        self.outstanding += 1;
        if conn.inflight.is_some() {
            conn.stalls += 1;
            self.tally.stalled += 1;
            conn.backlog.push_back((due, req));
            return;
        }
        self.send(idx, due, req);
    }

    fn send(&mut self, idx: usize, due: Instant, req: usize) {
        self.sent += 1;
        let conn = &mut self.conns[idx];
        conn.inflight = Some((due, req));
        conn.written = 0;
        self.flush(idx);
    }

    /// Whether the closed loop sends another request at `now`.
    fn may_rearm(&self, now: Instant) -> bool {
        self.rearm.is_some_and(|r| {
            r.deadline.is_none_or(|d| now < d) && r.limit.is_none_or(|l| self.sent < l)
        })
    }

    /// Writes as much of the in-flight request as the socket accepts;
    /// arms `EPOLLOUT` on a partial write.
    fn flush(&mut self, idx: usize) {
        loop {
            let conn = &mut self.conns[idx];
            let Some((_, req)) = conn.inflight else { break };
            let wire = &self.wire[req];
            if conn.dead || conn.written >= wire.len() {
                break;
            }
            match (&conn.stream).write(&wire[conn.written..]) {
                Ok(0) => return self.kill(idx),
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return self.kill(idx),
            }
        }
        self.update_interest(idx);
    }

    /// Reads what the socket holds, completes every whole response in
    /// it, then drops the connection if the server closed it.
    fn on_readable(&mut self, idx: usize, now: Instant) {
        let mut buf = [0u8; 16 * 1024];
        let mut closed = false;
        loop {
            let conn = &mut self.conns[idx];
            if conn.dead {
                return;
            }
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.feed(&buf[..n]);
                    // A short read drained the socket; epoll is level-
                    // triggered, so anything later wakes the loop again.
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        loop {
            if self.conns[idx].dead {
                return;
            }
            match self.conns[idx].parser.next_response() {
                Ok(Some(resp)) => self.complete(idx, resp, now),
                Ok(None) => break,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if closed {
            self.kill(idx);
        }
    }

    /// Records one response, then sends the connection's next queued
    /// arrival or, in a closed loop, re-arms it at once.
    fn complete(&mut self, idx: usize, resp: Response, now: Instant) {
        let Some((due, req)) = self.conns[idx].inflight.take() else {
            // A response with no request in flight: protocol desync.
            return self.kill(idx);
        };
        self.outstanding -= 1;
        self.last_completion = now;
        let latency_ms = now.saturating_duration_since(due).as_secs_f64() * 1e3;
        self.tally
            .record(classify(resp.status, &resp.body), latency_ms);
        if let Some(kept) = &mut self.responses {
            kept.push((req, resp));
        }
        if let Some((due, req)) = self.conns[idx].backlog.pop_front() {
            self.send(idx, due, req);
        } else if self.may_rearm(now) {
            self.arrive(idx, now, self.sent % self.wire.len());
        }
    }

    /// Drops a connection the server closed (or that errored): its
    /// in-flight and queued arrivals become errors. No reconnect — a
    /// run measures a fixed population of keep-alive sockets, and a
    /// server that drops one under load should fail the run, not get a
    /// fresh socket.
    fn kill(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.dead {
            return;
        }
        conn.dead = true;
        self.tally.disconnects += 1;
        let _ = sysio::epoll_del(self.epfd, fd_of(&conn.stream));
        let lost = usize::from(conn.inflight.take().is_some()) + conn.backlog.len();
        conn.backlog.clear();
        self.outstanding -= lost;
        self.tally.errors += lost as u64;
    }

    fn update_interest(&mut self, idx: usize) {
        let conn = &mut self.conns[idx];
        if conn.dead {
            return;
        }
        let mut want = sysio::EPOLLIN | sysio::EPOLLRDHUP;
        if conn
            .inflight
            .is_some_and(|(_, req)| conn.written < self.wire[req].len())
        {
            want |= sysio::EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let _ = sysio::epoll_mod(self.epfd, fd_of(&conn.stream), want, idx as u64);
        }
    }
}

/// Raw fd of a client stream (safe `AsRawFd` call).
fn fd_of(stream: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

/// What one run of the engine measured.
struct Pass {
    stats: PhaseStats,
    /// Every response with the index of its request, in completion
    /// order; empty unless the caller asked to keep them.
    responses: Vec<(usize, Response)>,
}

/// Opens `connections` keep-alive sockets to `addr` and runs `schedule`
/// over `requests` on one epoll loop. Every measured request goes
/// through here.
///
/// # Errors
///
/// Returns a message when a connection cannot be opened or the epoll
/// instance fails; request-level failures are counted in the stats.
fn drive(
    addr: &str,
    connections: usize,
    requests: &[PreparedRequest],
    schedule: Schedule,
    keep_responses: bool,
) -> Result<Pass, String> {
    let connect_started = Instant::now();
    let mut engine = Engine {
        epfd: sysio::epoll_create().map_err(|e| format!("epoll_create: {e}"))?,
        conns: Vec::with_capacity(connections),
        wire: requests
            .iter()
            .map(|r| request_bytes(&r.method, &r.target, Some(&r.body)))
            .collect(),
        rearm: None,
        sent: 0,
        outstanding: 0,
        last_completion: connect_started,
        tally: Tally::default(),
        responses: keep_responses.then(Vec::new),
    };
    for i in 0..connections.max(1) {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("connect #{i} to {addr}: {e}"))?;
        // Request latency is the measurement; Nagle batching would be noise.
        let _ = stream.set_nodelay(true);
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking #{i}: {e}"))?;
        let interest = sysio::EPOLLIN | sysio::EPOLLRDHUP;
        sysio::epoll_add(engine.epfd, fd_of(&stream), interest, i as u64)
            .map_err(|e| format!("epoll_add #{i}: {e}"))?;
        engine.conns.push(Conn {
            stream,
            parser: ResponseParser::new(),
            inflight: None,
            written: 0,
            backlog: VecDeque::new(),
            stalls: 0,
            interest,
            dead: false,
        });
    }
    let connect_s = connect_started.elapsed().as_secs_f64();

    let started = Instant::now();
    engine.last_completion = started;
    let (arrivals, stops_issuing) = match schedule {
        Schedule::Closed { run_for, limit } => {
            let deadline = run_for.map(|d| started + d);
            engine.rearm = Some(Rearm { deadline, limit });
            for idx in 0..engine.conns.len() {
                if engine.may_rearm(started) {
                    engine.arrive(idx, started, engine.sent % engine.wire.len());
                }
            }
            (Vec::new(), deadline)
        }
        Schedule::Timed(arrivals) => {
            let last = arrivals.last().map_or(started, |a| started + a.at);
            (arrivals, Some(last))
        }
    };
    let mut next = 0;
    let mut events = vec![sysio::EpollEvent::default(); 1024];
    loop {
        let now = Instant::now();
        while let Some(a) = arrivals.get(next).filter(|a| started + a.at <= now) {
            engine.arrive(a.conn, started + a.at, a.req);
            next += 1;
        }
        if next == arrivals.len() && engine.outstanding == 0 {
            break;
        }
        if stops_issuing
            .is_some_and(|stop| now >= stop.max(engine.last_completion) + STRAGGLER_WINDOW)
        {
            break;
        }
        let timeout_ms = arrivals.get(next).map_or(50, |a| {
            (started + a.at)
                .saturating_duration_since(now)
                .as_millis()
                .min(50) as i32
        });
        let n = sysio::epoll_wait(engine.epfd, &mut events, timeout_ms)
            .map_err(|e| format!("epoll_wait: {e}"))?;
        let now = Instant::now();
        for ev in events.iter().copied().take(n) {
            let idx = ev.data as usize;
            if ev.events & sysio::EPOLLOUT != 0 {
                engine.flush(idx);
            }
            if ev.events & (sysio::EPOLLIN | sysio::EPOLLRDHUP) != 0 {
                engine.on_readable(idx, now);
            }
            if ev.events & (sysio::EPOLLHUP | sysio::EPOLLERR) != 0 {
                engine.kill(idx);
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // Whatever is still unanswered when the run gives up is lost.
    engine.tally.errors += engine.outstanding as u64;
    let max_conn_stalls = engine.conns.iter().map(|c| c.stalls).max().unwrap_or(0);
    let tally = std::mem::take(&mut engine.tally);
    Ok(Pass {
        stats: tally.finish(connect_s, wall_s, max_conn_stalls),
        responses: engine.responses.take().unwrap_or_default(),
    })
}

// ---------------------------------------------------------------------------
// Control calls and reports
// ---------------------------------------------------------------------------

/// One blocking exchange on a fresh connection, outside any
/// measurement: the `/metrics` scrape and the A/B's topology push.
fn control(addr: &str, method: &str, target: &str, body: Option<&str>) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write_request(&mut stream, method, target, body)
        .map_err(|e| format!("{method} {target} to {addr}: {e}"))?;
    read_response(&stream).map_err(|e| format!("{method} {target} to {addr}: {e}"))
}

/// The daemon's `/metrics` document; `None` when the scrape fails.
fn scrape_metrics(addr: &str) -> Option<Value> {
    let resp = control(addr, "GET", "/metrics", None).ok()?;
    serde_json::parse_value_str(std::str::from_utf8(&resp.body).ok()?).ok()
}

/// The number at `path` in a JSON document, if there is one.
fn number_at(doc: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        let Value::Obj(pairs) = cur else { return None };
        cur = serde::obj_get(pairs, key);
    }
    match *cur {
        Value::Float(f) => Some(f),
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        _ => None,
    }
}

/// Runs the configured load: a cold pass then the closed or open loop
/// over the default mix, or a recorded-trace replay.
///
/// # Errors
///
/// Returns a message on connection failure or an unreadable or empty
/// replay log.
pub fn run(cfg: &LoadgenConfig) -> Result<Report, String> {
    let connections = cfg.connections.max(1);
    let duration = Duration::from_secs_f64(cfg.duration_s);
    let (requests, cold, schedule) = match &cfg.replay {
        Some(path) => {
            let records = load_replay(path)?;
            if records.is_empty() {
                return Err(format!("replay {}: no records", path.display()));
            }
            let arrivals = records
                .iter()
                .enumerate()
                .map(|(i, r)| Arrival {
                    at: Duration::from_millis(r.ts_ms),
                    conn: i % connections,
                    req: i,
                })
                .collect();
            let requests: Vec<PreparedRequest> = records
                .into_iter()
                .map(|r| PreparedRequest {
                    method: r.method,
                    target: r.target,
                    body: r.body,
                })
                .collect();
            (requests, None, Schedule::Timed(arrivals))
        }
        None => {
            let mix = default_mix();
            let once = Schedule::Closed {
                run_for: None,
                limit: Some(mix.len()),
            };
            let cold =
                drive(&cfg.addr, 1, &mix, once, true).map_err(|e| format!("cold pass: {e}"))?;
            let schedule = match cfg.rps {
                Some(rps) => {
                    Schedule::Timed(poisson_arrivals(rps, duration, connections, mix.len()))
                }
                None => Schedule::Closed {
                    run_for: Some(duration),
                    limit: None,
                },
            };
            (mix, Some(cold), schedule)
        }
    };
    let warm = drive(&cfg.addr, connections, &requests, schedule, false)?.stats;
    let cold_cache_hits = cold.as_ref().map_or(0, |c| {
        c.responses
            .iter()
            .filter(|(i, r)| is_cold_cache_hit(&requests[*i].target, r.status, &r.body))
            .count() as u64
    });
    let cold = cold.map(|c| c.stats);
    let metrics = scrape_metrics(&cfg.addr).unwrap_or(Value::Null);
    // A router's /metrics nests the cluster-wide view under "merged";
    // a plain daemon answers with the fields at the top level.
    let at = |path: &[&str]| {
        let mut merged = vec!["merged"];
        merged.extend_from_slice(path);
        number_at(&metrics, &merged).or_else(|| number_at(&metrics, path))
    };
    Ok(Report {
        addr: cfg.addr.clone(),
        connections,
        offered_rps: cfg.rps.filter(|_| cfg.replay.is_none()).unwrap_or(0.0),
        mix_size: requests.len(),
        warm_over_cold_rps: cold
            .as_ref()
            .filter(|c| c.rps > 0.0)
            .map_or(0.0, |c| warm.rps / c.rps),
        cold,
        cold_cache_hits,
        warm,
        server_hit_ratio: at(&["trace_cache", "hit_ratio"]).unwrap_or(0.0),
        server_coalesced_total: at(&["coalesced_total"]).unwrap_or(0.0) as u64,
    })
}

/// Checks the p99 regression guard: the run's measured-phase p99 must
/// stay within `factor` × the p99 of the baseline's block of the same
/// kind (`<key>.warm.p99_ms`).
///
/// # Errors
///
/// Returns a message describing the breach, or a baseline that is
/// unreadable or has no block of this kind.
pub fn check_guard(report: &Report, key: &str, baseline: &Path, factor: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline)
        .map_err(|e| format!("guard baseline {}: {e}", baseline.display()))?;
    let doc = serde_json::parse_value_str(&text)
        .map_err(|e| format!("guard baseline {}: {e}", baseline.display()))?;
    let baseline_p99 = number_at(&doc, &[key, "warm", "p99_ms"])
        .ok_or_else(|| format!("guard baseline has no {key}.warm.p99_ms"))?;
    let limit = baseline_p99 * factor;
    if report.warm.p99_ms > limit {
        return Err(format!(
            "{key} p99 {:.2} ms exceeds guard {limit:.2} ms ({factor}x baseline {baseline_p99:.2} ms)",
            report.warm.p99_ms
        ));
    }
    Ok(())
}

/// Merges `block` into the JSON document at `path` under `key`, keeping
/// the blocks of other kinds (an unreadable or non-object file is
/// replaced by a fresh document).
///
/// # Errors
///
/// Returns a message when the merged document cannot be written.
pub fn merge_report(path: &Path, key: &str, block: Value) -> Result<(), String> {
    let mut pairs = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::parse_value_str(&text).ok())
        .and_then(|value| match value {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        })
        .unwrap_or_default();
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, slot)) => *slot = block,
        None => pairs.push((key.to_string(), block)),
    }
    let json = serde_json::to_string_pretty(&Value::Obj(pairs)).map_err(|e| e.to_string())?;
    std::fs::write(path, format!("{json}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Cluster peer-tier A/B (`loadgen --peer-ab`)
// ---------------------------------------------------------------------------

/// Peer-fetch budget of the A/B's tier-on arm, milliseconds: generous,
/// so a slow host turns no real hit into a deadline miss.
const PEER_AB_BUDGET_MS: u64 = 2_000;

/// One arm of the peer-tier A/B: warm shard A with the simulate mix,
/// then measure the same mix live on shard B — with the cluster tier
/// on (B fetches A's traces) or off (B simulates all of them).
#[derive(Debug, Clone, Serialize)]
pub struct PeerAbArm {
    /// The warm pass on shard A (populates A's trace cache; its cold
    /// latencies are the recompute reference).
    pub warm_a: PhaseStats,
    /// The measured live pass on shard B.
    pub live_b: PhaseStats,
    /// B's trace-cache lookups answered by a peer after the pass.
    pub remote_hits: u64,
    /// B's peer fetches that returned nothing usable (the peer did not
    /// hold the trace or the budget expired).
    pub remote_misses: u64,
    /// B's trace-cache lookups that simulated.
    pub misses: u64,
    /// Bucket-resolution median of B's peer fetches, milliseconds.
    pub fetch_p50_ms: f64,
    /// Mean wall time of B's peer fetches, milliseconds.
    pub fetch_mean_ms: f64,
}

/// The `cluster_peer_tier` block of `BENCH_serve.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PeerAbReport {
    /// Simulate requests per pass.
    pub mix_size: usize,
    /// Peer-fetch budget used by the tier-on arm, milliseconds.
    pub budget_ms: u64,
    /// Cluster tier on: B is fed by A over
    /// `GET /v2/cache/trace/{spec}-{workload}-{config}`.
    pub tier_on: PeerAbArm,
    /// Cluster tier off: B simulates everything locally.
    pub tier_off: PeerAbArm,
    /// `tier_off.live_b.mean_ms / tier_on.live_b.mean_ms` — the live
    /// cluster-warm speedup the tier buys.
    pub warm_speedup: f64,
    /// Whether both arms returned identical simulation payloads
    /// (everything except the `cached` flag and wall-time field).
    pub identical: bool,
}

/// Configurations the A/B simulates per kernel/matrix pair.
const PEER_AB_CONFIGS: usize = 21;

/// The A/B's simulate set: each kernel/matrix pair of the default mix
/// (five), in its own dialect, crossed with [`PEER_AB_CONFIGS`] sampled
/// configurations (the three presets among them) — 105 distinct keys.
/// Recommend requests never simulate, so they would only dilute the
/// A/B.
fn peer_ab_mix() -> Vec<PreparedRequest> {
    let configs = sample_configs(MemKind::Cache, PEER_AB_CONFIGS, Harness::default().seed);
    let mut mix: Vec<PreparedRequest> = Vec::new();
    for r in default_mix()
        .into_iter()
        .filter(|r| r.target.ends_with("/simulate"))
    {
        let mut req: SimulateRequest = serde_json::from_str(&r.body).expect("mix parses");
        req.config_name = None;
        for config in &configs {
            req.config = Some(*config);
            let body = serde_json::to_string(&req).expect("mix serializes");
            if !mix.iter().any(|m| m.body == body) {
                mix.push(PreparedRequest { body, ..r.clone() });
            }
        }
    }
    mix
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

/// Runs one arm: spawn a fresh two-shard cluster, push it a topology,
/// warm A with the mix, measure the mix on B, scrape B's counters.
/// Returns the arm plus B's normalized response payloads in mix order
/// (for the cross-arm identity check).
fn run_peer_arm(
    serve_exe: &Path,
    peer_fetch: bool,
    run_dir: PathBuf,
) -> Result<(PeerAbArm, Vec<Option<String>>), String> {
    let shards = crate::shard::spawn_shards(&crate::shard::ShardSpawn {
        exe: serve_exe.to_path_buf(),
        count: 2,
        workers: 2,
        queue_cap: 64,
        cache_dir: None,
        cache_mem_cap: None,
        peer_fetch,
        peer_fetch_budget_ms: PEER_AB_BUDGET_MS,
        run_dir,
    })
    .map_err(|e| format!("peer-ab shard spawn: {e}"))?;
    let (a, b) = (shards[0].addr.to_string(), shards[1].addr.to_string());

    // Both arms get the same topology so "off" measures the fetch
    // flag, not a discovery difference.
    let doc = TopologyDoc {
        epoch: 1,
        shards: [&a, &b]
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
    for addr in [&a, &b] {
        let resp = control(addr, "POST", "/v2/admin/topology", Some(&topo_body))?;
        if resp.status != 200 {
            return Err(format!(
                "peer-ab topology push to {addr}: {} {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
    }

    let mix = peer_ab_mix();
    let once = || Schedule::Closed {
        run_for: None,
        limit: Some(mix.len()),
    };
    let warm_a = drive(&a, 1, &mix, once(), false)?.stats;
    let live = drive(&b, 1, &mix, once(), true)?;
    let mut payloads = vec![None; mix.len()];
    for (i, resp) in &live.responses {
        if resp.status == 200 {
            payloads[*i] = normalized_sim_body(&resp.body);
        }
    }

    let metrics = scrape_metrics(&b).unwrap_or(Value::Null);
    let at = |path: &[&str]| number_at(&metrics, path).unwrap_or(0.0);
    drop(shards);
    Ok((
        PeerAbArm {
            warm_a,
            live_b: live.stats,
            remote_hits: at(&["trace_cache", "remote_hits"]) as u64,
            remote_misses: at(&["trace_cache", "remote_misses"]) as u64,
            misses: at(&["trace_cache", "misses"]) as u64,
            fetch_p50_ms: at(&["peer_fetch", "p50_ms"]),
            fetch_mean_ms: at(&["peer_fetch", "mean_ms"]),
        },
        payloads,
    ))
}

/// Runs the full A/B with shards spawned from `serve_exe`: the tier-on
/// arm, then a fresh tier-off arm, and the cross-arm identity/speedup
/// comparison. Unlike the other modes this one does not hit a
/// caller-provided daemon: each arm spawns its own two-shard cluster,
/// so both start from a provably cold cache.
///
/// # Errors
///
/// Returns a message when a cluster fails to boot or a topology push is
/// rejected; request-level failures are reported in the phase stats
/// instead.
pub fn run_peer_ab(serve_exe: &Path) -> Result<PeerAbReport, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let base = std::env::temp_dir().join(format!("sa_peer_ab_{}_{nanos}", std::process::id()));
    let on = run_peer_arm(serve_exe, true, base.join("on"));
    let off = run_peer_arm(serve_exe, false, base.join("off"));
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
    Ok(PeerAbReport {
        mix_size: on_payloads.len(),
        budget_ms: PEER_AB_BUDGET_MS,
        tier_on,
        tier_off,
        warm_speedup,
        identical,
    })
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
    fn peer_ab_mix_sends_105_distinct_simulations() {
        let mix = peer_ab_mix();
        let mut bodies: Vec<&str> = mix.iter().map(|r| r.body.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(bodies.len(), 105);
        let mut pairs: Vec<(String, String)> = mix
            .iter()
            .map(|r| {
                assert!(r.target.ends_with("/simulate"));
                let req: SimulateRequest = serde_json::from_str(&r.body).expect("parses");
                assert!(req.config.is_some());
                (req.kernel, req.matrix)
            })
            .collect();
        pairs.dedup();
        assert_eq!(pairs.len(), 5, "{pairs:?}");
    }

    #[test]
    fn percentiles_are_exact_on_raw_samples() {
        let mut tally = Tally::default();
        for i in 1..=100 {
            tally.record(Outcome::Ok, i as f64);
        }
        let s = tally.finish(0.0, 10.0, 0);
        assert_eq!(s.completed, 100);
        assert_eq!(s.ok, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(s.rps, 10.0);
    }

    #[test]
    fn structured_errors_classify_by_code_not_status() {
        let cases: [(u16, &[u8], Outcome); 5] = [
            // A queue_full body counts as backpressure even off a 503 (a
            // router may relay a shard's rejection with its own status).
            (
                503,
                br#"{"code": "queue_full", "message": "busy", "retry_after_ms": 1000}"#,
                Outcome::Rejected,
            ),
            // The v2 envelope carries the same error one level down.
            (
                429,
                br#"{"v": 2, "data": null, "error": {"code": "queue_full", "message": "busy"}}"#,
                Outcome::Rejected,
            ),
            // A structured non-queue error is an error even on 429.
            (
                429,
                br#"{"code": "bad_request", "message": "nope"}"#,
                Outcome::Error,
            ),
            // Unparseable body falls back to the status code.
            (429, b"busy", Outcome::Rejected),
            (500, b"boom", Outcome::Error),
        ];
        for (status, body, want) in cases {
            assert_eq!(
                classify(status, body),
                want,
                "{status} {}",
                String::from_utf8_lossy(body)
            );
        }
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
    fn cold_cache_hits_count_every_simulate_dialect() {
        let enveloped = br#"{"v": 2, "data": {"cached": true}}"#;
        assert!(is_cold_cache_hit("/v2/simulate", 200, enveloped));
        assert!(is_cold_cache_hit(
            "/v1/simulate",
            200,
            br#"{"cached": true}"#
        ));
        assert!(!is_cold_cache_hit(
            "/v1/recommend",
            200,
            br#"{"cached": true}"#
        ));
        assert!(!is_cold_cache_hit("/v2/simulate", 429, enveloped));
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
        std::fs::write(
            &path,
            r#"{"closed_loop": {"warm": {"p99_ms": 10.0}}, "open_loop": {"warm": {"p99_ms": 100.0}}}"#,
        )
        .expect("write baseline");
        let mut report = synthetic_report();
        report.warm.p99_ms = 25.0;
        assert!(check_guard(&report, "closed_loop", &path, 4.0).is_ok());
        report.warm.p99_ms = 45.0;
        assert!(check_guard(&report, "closed_loop", &path, 4.0).is_err());
        // Each kind is held to its own block only.
        assert!(check_guard(&report, "open_loop", &path, 4.0).is_ok());
        assert!(check_guard(&report, "replay", &path, 4.0).is_err());
    }

    #[test]
    fn reports_merge_under_their_kind() {
        let dir = std::env::temp_dir().join(format!("sa_serve_merge_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("report.json");
        let _ = std::fs::remove_file(&path);
        let mut report = synthetic_report();
        merge_report(&path, "closed_loop", report.to_value()).expect("first write");
        merge_report(&path, "open_loop", report.to_value()).expect("second kind");
        report.warm.p99_ms = 7.0;
        merge_report(&path, "closed_loop", report.to_value()).expect("overwrite");
        let doc = serde_json::parse_value_str(&std::fs::read_to_string(&path).expect("read"))
            .expect("JSON");
        let Value::Obj(pairs) = &doc else {
            panic!("report file is an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["closed_loop", "open_loop"]);
        assert_eq!(
            number_at(&doc, &["closed_loop", "warm", "p99_ms"]),
            Some(7.0)
        );
        assert_eq!(number_at(&doc, &["open_loop", "warm", "p99_ms"]), Some(1.0));
        let _ = std::fs::remove_dir_all(dir);
    }

    fn synthetic_report() -> Report {
        let mut tally = Tally::default();
        tally.record(Outcome::Ok, 1.0);
        let phase = tally.finish(0.0, 1.0, 0);
        Report {
            addr: "127.0.0.1:0".to_string(),
            connections: 1,
            offered_rps: 0.0,
            mix_size: 1,
            cold: Some(phase.clone()),
            cold_cache_hits: 0,
            warm: phase,
            warm_over_cold_rps: 1.0,
            server_hit_ratio: 0.0,
            server_coalesced_total: 0,
        }
    }
}
