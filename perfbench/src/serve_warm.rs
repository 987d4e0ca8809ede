//! `serve_warm`: one keep-alive connection in a closed loop against the
//! daemon at default flags, cycling a seeded hot set of `/v2/simulate`
//! keys and `/v2/recommend` bodies that an untimed pass already made
//! trace-cache hits. The simulator does no work; parse, reactor,
//! dispatch, admission, cache hit, serialize and write are the cost.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sa_bench::experiments::{source_workload, Kernel};
use sa_bench::mtx::MatrixSource;
use sa_bench::Harness;
use serve::api::{
    kernel_name, parse_body, parse_kernel, ApiVersion, RecommendApiRequest, SimulateRequest,
    SimulateResponse,
};
use serve::http::{response_bytes, RequestParser, Response};
use serve::metrics::MetricsSnapshot;
use serve::{ServeConfig, ServerHandle};
use sparseadapt::service::{self, summarize_trace, RecommendRequest};
use sparseadapt::stitch::sample_configs;
use sparseadapt::trace_cache::{simulate_trace, TraceCache, TraceKey};
use sparseadapt::{PredictiveEnsemble, ReconfigPolicy};
use transmuter::config::{MemKind, TransmuterConfig};
use transmuter::counters::Telemetry;
use transmuter::machine::EpochRecord;
use transmuter::metrics::OptMode;
use transmuter::workload::Workload;

use crate::inputs::{self, derive_seed, SCALE};
use crate::report::{Report, Window};
use crate::sims::{isolate, note_overhead, repeat_set_up, set_up};
use crate::stats::{self, Digest, Quantiles};
use crate::trace::{self, Span, Tracer, ROOT};
use crate::Ctx;

/// Client connections (and threads): one, so the client and the daemon's
/// threads never hold more than the host's two vCPUs at once.
pub const CONNECTIONS: usize = 1;
const KERNELS: [&str; 4] = ["spmspv", "spmv", "sptrsv", "symgs"];
/// Sampled configurations per (kernel, matrix) pair: 64 simulate keys,
/// split evenly across the connections. Every key is a resident
/// trace-cache hit, so their number does not change the path a request
/// takes.
const CONFIGS_PER_PAIR: usize = 2;
/// Distinct recommend bodies. The daemon computes every recommend afresh
/// (nothing caches or coalesces it), so their number changes only the
/// telemetry the model sees, not the path a request takes.
const RECOMMEND_BODIES: usize = 16;
/// Simulate and recommend requests in the repository's recorded serving
/// mix, `serve::loadgen::default_mix`; each connection's request order
/// draws the two classes in this ratio.
const MIX_SIMULATE: u64 = 9;
const MIX_RECOMMEND: u64 = 2;
/// Length of the seeded request order each connection cycles through.
const ORDER_LEN: usize = 4096;
/// Latencies one connection logs per window. The log is allocated and
/// written through before the set-up, so the client's share of peak RSS
/// (8 MiB per connection) does not grow with throughput. It holds a 40 s
/// window at 26k requests per second per connection, about twice the
/// rate one connection reaches on a 2-vCPU host; requests beyond it are
/// still counted, only their latencies go unlogged.
const LOG_CAP: usize = 1 << 20;
/// Repetitions of each in-process per-layer timing loop.
const LAYER_REPS: usize = 200;

/// One request of the hot set.
#[derive(Debug, Clone)]
enum Kind {
    Simulate {
        kernel: Kernel,
        matrix: &'static str,
        config: TransmuterConfig,
    },
    Recommend {
        mode: OptMode,
        req: RecommendRequest,
    },
}

#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    body: String,
    /// The exact bytes sent.
    wire: Vec<u8>,
}

fn wire(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The seeded hot set and each connection's request order. The
/// connections share the recommend bodies but split the simulate keys,
/// so two in-flight requests never coalesce onto one computation.
#[derive(Debug)]
struct HotSet {
    reqs: Vec<Req>,
    orders: Vec<Vec<usize>>,
}

impl HotSet {
    /// Index of the first recommend body; simulate keys come before it.
    fn first_recommend(&self) -> usize {
        self.reqs.len() - RECOMMEND_BODIES
    }
}

fn telemetry(seed: u64, current: &TransmuterConfig) -> Telemetry {
    let mut k = 0;
    let mut unit = || {
        k += 1;
        (derive_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64
    };
    Telemetry {
        l1_access_throughput: unit(),
        l1_occupancy: unit(),
        l1_miss_rate: unit(),
        l1_prefetch_per_access: unit(),
        l1_capacity_kb: f64::from(current.l1_capacity_kb),
        l2_access_throughput: unit(),
        l2_occupancy: unit(),
        l2_miss_rate: unit(),
        l2_prefetch_per_access: unit(),
        l2_capacity_kb: f64::from(current.l2_capacity_kb),
        l1_xbar_contention_ratio: unit(),
        l2_xbar_contention_ratio: unit(),
        gpe_fp_ipc: unit(),
        gpe_ipc: 2.0 * unit(),
        lcp_ipc: unit(),
        clock_mhz: current.clock.mhz(),
        mem_read_util: unit(),
        mem_write_util: unit(),
    }
}

fn hot_set(seed: u64) -> HotSet {
    let configs = sample_configs(MemKind::Cache, inputs::SWEEP_CONFIGS, seed);
    let mut reqs = Vec::new();
    let mut pair = 0u64;
    for kernel in KERNELS {
        for matrix in inputs::ADAPT_SPMSPV {
            let first = (derive_seed(seed, 1000 + pair) % configs.len() as u64) as usize;
            pair += 1;
            for k in 0..CONFIGS_PER_PAIR {
                let config = configs[(first + k) % configs.len()];
                let body = serde_json::to_string(&SimulateRequest {
                    kernel: kernel.to_string(),
                    matrix: matrix.to_string(),
                    l1_kind: None,
                    config: Some(config),
                    config_name: None,
                })
                .expect("simulate request serializes");
                reqs.push(Req {
                    kind: Kind::Simulate {
                        kernel: parse_kernel(kernel).expect("known kernel"),
                        matrix,
                        config,
                    },
                    wire: wire("/v2/simulate", &body),
                    body,
                });
            }
        }
    }
    let n_sims = reqs.len();
    for i in 0..RECOMMEND_BODIES as u64 {
        let r = derive_seed(seed, 2000 + i);
        let current = configs[(r % configs.len() as u64) as usize];
        let mode = OptMode::ALL[(r >> 40) as usize % 2];
        let req = RecommendRequest {
            telemetry: telemetry(r, &current),
            current,
            policy: Some(ReconfigPolicy::hybrid40()),
            last_epoch_time_s: Some(1e-6 + (r >> 20) as f64 / (1u64 << 44) as f64 * 1e-4),
        };
        let body = serde_json::to_string(&RecommendApiRequest {
            kernel: "spmspv".to_string(),
            l1_kind: None,
            mode: Some(mode),
            telemetry: req.telemetry,
            current: req.current,
            policy: req.policy,
            last_epoch_time_s: req.last_epoch_time_s,
        })
        .expect("recommend request serializes");
        reqs.push(Req {
            kind: Kind::Recommend { mode, req },
            wire: wire("/v2/recommend", &body),
            body,
        });
    }
    let per_conn = (n_sims / CONNECTIONS) as u64;
    let orders = (0..CONNECTIONS)
        .map(|c| {
            (0..ORDER_LEN as u64)
                .map(|i| {
                    let r = derive_seed(seed, 10_000 + (c * ORDER_LEN) as u64 + i);
                    if r % (MIX_SIMULATE + MIX_RECOMMEND) < MIX_RECOMMEND {
                        n_sims + ((r >> 8) % RECOMMEND_BODIES as u64) as usize
                    } else {
                        ((r >> 8) % per_conn) as usize * CONNECTIONS + c
                    }
                })
                .collect()
        })
        .collect();
    HotSet { reqs, orders }
}

/// A keep-alive client connection that reads whole responses.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(8192),
        })
    }

    /// Sends `wire` and returns the status and the body's byte range in
    /// `self.buf`.
    fn call(&mut self, wire: &[u8]) -> std::io::Result<(u16, std::ops::Range<usize>)> {
        self.stream.write_all(wire)?;
        self.buf.clear();
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| std::io::Error::from(std::io::ErrorKind::InvalidData))?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or(std::io::ErrorKind::InvalidData)?;
        let len = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse::<usize>().ok())?
            })
            .ok_or(std::io::ErrorKind::InvalidData)?;
        while self.buf.len() < head_end + len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, head_end..head_end + len))
    }
}

/// One timed request's latency: the one-second slice of the window it
/// was sent in, and its round trip.
#[derive(Debug, Clone, Copy)]
struct Lat {
    slice: u32,
    rtt_ns: u32,
}

/// What one connection keeps. Outcomes are tallied rather than logged
/// and the latency log has a fixed capacity, so the client's memory does
/// not grow with the number of requests.
#[derive(Debug, Default)]
struct Log {
    /// Latencies of the current window, up to the log's capacity.
    lat: Vec<Lat>,
    /// Requests of the current window beyond the log's capacity.
    unlogged: u64,
    /// Requests completed in each one-second slice of the current window.
    per_slice: Vec<u64>,
    /// Sum (microseconds) and count of the `sim_ms` of the simulate
    /// bodies of the current window.
    sim_us: (f64, u64),
    /// How often each (request index, status, body digest) was seen,
    /// across windows; status 0 is a transport error.
    outcomes: HashMap<(u32, u16, u64), u64>,
}

impl Log {
    /// A log whose latency buffer is allocated and written through now,
    /// so its pages are resident before anything is measured.
    fn with_capacity(cap: usize) -> Log {
        let mut lat = Vec::with_capacity(cap);
        lat.resize(
            cap,
            Lat {
                slice: u32::MAX,
                rtt_ns: u32::MAX,
            },
        );
        black_box(&mut lat);
        lat.clear();
        Log {
            lat,
            ..Log::default()
        }
    }

    /// Starts a new timed window; outcomes carry over.
    fn open_window(&mut self) {
        self.lat.clear();
        self.unlogged = 0;
        self.per_slice.clear();
        self.sim_us = (0.0, 0);
    }

    /// Requests completed in the current window.
    fn completed(&self) -> u64 {
        self.per_slice.iter().sum()
    }

    fn tally(&mut self, req: usize, status: u16, digest: u64) {
        *self
            .outcomes
            .entry((req as u32, status, digest))
            .or_default() += 1;
    }
}

const SIM_MS_FIELD: &str = "\"sim_ms\"";

/// The checked part of a body: everything before `"sim_ms"`, whose value
/// is the server's own timing and differs per request.
fn stable_prefix(body: &[u8]) -> (&[u8], f64) {
    let text = std::str::from_utf8(body).unwrap_or("");
    match text.rfind(SIM_MS_FIELD) {
        Some(i) => {
            let rest = &text[i + SIM_MS_FIELD.len()..];
            let value = rest
                .trim_start_matches([':', ' '])
                .split(['}', ','])
                .next()
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(f64::NAN);
            (&body[..i], value)
        }
        None => (body, f64::NAN),
    }
}

fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.bytes(bytes);
    d.finish()
}

/// Sends request `idx` and tallies its outcome in `log`; inside a timed
/// window opened at `opened` it also counts and logs the request.
/// Returns `false` on a transport error.
fn exchange(
    conn: &mut Conn,
    hot: &HotSet,
    idx: usize,
    log: &mut Log,
    opened: Option<Instant>,
) -> bool {
    let started = Instant::now();
    let result = conn.call(&hot.reqs[idx].wire);
    let rtt = started.elapsed();
    let Ok((status, range)) = result else {
        log.tally(idx, 0, 0);
        return false;
    };
    let (prefix, sim_ms) = stable_prefix(&conn.buf[range]);
    log.tally(idx, status, bytes_digest(prefix));
    if let Some(opened) = opened {
        if sim_ms.is_finite() {
            log.sim_us.0 += sim_ms * 1e3;
            log.sim_us.1 += 1;
        }
        let slice = started.duration_since(opened).as_secs() as usize;
        if log.per_slice.len() <= slice {
            log.per_slice.resize(slice + 1, 0);
        }
        log.per_slice[slice] += 1;
        if log.lat.len() < log.lat.capacity() {
            log.lat.push(Lat {
                slice: slice as u32,
                rtt_ns: u32::try_from(rtt.as_nanos()).unwrap_or(u32::MAX),
            });
        } else {
            log.unlogged += 1;
        }
    }
    true
}

/// One closed-loop connection until `deadline`.
fn client(
    addr: SocketAddr,
    hot: &HotSet,
    log: &mut Log,
    opened: Instant,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
    conn_id: u64,
) {
    let Ok(mut conn) = Conn::open(addr) else {
        log.tally(0, 0, 0);
        return;
    };
    let order = &hot.orders[conn_id as usize];
    let mut i = 0;
    while Instant::now() < deadline {
        let idx = order[i % order.len()];
        let start = tracer.as_ref().map(|t| t.now_ns());
        let ok = exchange(&mut conn, hot, idx, log, Some(opened));
        if let (Some(t), Some(start)) = (tracer.as_deref_mut(), start) {
            let name = match hot.reqs[idx].kind {
                Kind::Simulate { .. } => "client.simulate",
                Kind::Recommend { .. } => "client.recommend",
            };
            let end = t.now_ns();
            t.leaf(name, ROOT, (conn_id << 40) | i as u64, start, end);
        }
        if !ok {
            break;
        }
        i += 1;
    }
}

/// A running daemon plus the warm pass's outcomes.
struct Warm {
    handle: ServerHandle,
    log: Log,
}

/// Starts the daemon at default flags on an ephemeral port and requests
/// every hot key and body once.
fn start_warm(hot: &HotSet) -> Warm {
    isolate(false);
    let handle = serve::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .unwrap_or_else(|e| crate::fail(&format!("daemon failed to start: {e}")));
    let mut log = Log::default();
    match Conn::open(handle.addr) {
        Ok(mut conn) => {
            for idx in 0..hot.reqs.len() {
                exchange(&mut conn, hot, idx, &mut log, None);
            }
        }
        Err(e) => crate::fail(&format!("cannot connect to the daemon: {e}")),
    }
    Warm { handle, log }
}

/// The committed ensembles by mode name.
type Models = HashMap<&'static str, PredictiveEnsemble>;

/// One set-up: the hot set, the committed models, and a daemon warmed
/// by one pass over every hot request. The daemon loads its models once
/// per process, through a memo nothing can reset (filled before the
/// first set-up, so all set-ups are alike), so each set-up loads the
/// same committed files itself; the checks answer recommend bodies from
/// them.
struct Setup {
    hot: HotSet,
    models: Models,
    warm: Warm,
}

fn set_up_once(seed: u64) -> Setup {
    let hot = hot_set(seed);
    let models = inputs::load_models()
        .unwrap_or_else(|e| crate::fail(&e))
        .into_iter()
        .map(|(m, e)| (m.name(), e))
        .collect();
    let warm = start_warm(&hot);
    Setup { hot, models, warm }
}

fn get_metrics(addr: SocketAddr) -> Option<MetricsSnapshot> {
    let mut conn = Conn::open(addr).ok()?;
    let (status, range) = conn
        .call(b"GET /metrics HTTP/1.1\r\nhost: perfbench\r\ncontent-length: 0\r\n\r\n")
        .ok()?;
    if status != 200 {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(&conn.buf[range]).ok()?).ok()
}

/// The in-process answers: every simulate key simulated uncached (so
/// nothing here warms the daemon's cache), every recommend body run
/// through the same model.
struct Expected {
    workloads: HashMap<(String, &'static str), Workload>,
    traces: Vec<Option<Vec<EpochRecord>>>,
    /// Body digests a timed response must match.
    timed: Vec<u64>,
    /// Body digests a warm-pass response must match.
    warm: Vec<u64>,
    build_s: f64,
}

fn simulate_body(
    kernel: Kernel,
    matrix: &str,
    config: TransmuterConfig,
    trace: &[EpochRecord],
    cached: bool,
) -> String {
    let inner = serde_json::to_string(&SimulateResponse {
        kernel: kernel_name(kernel).to_string(),
        matrix: matrix.to_string(),
        config,
        summary: summarize_trace(trace),
        cached,
        sim_ms: 0.0,
    })
    .expect("simulate response serializes");
    ApiVersion::V2.ok_body(&inner)
}

fn expected(hot: &HotSet, models: &Models) -> Expected {
    let harness = Harness::default();
    let mut workloads: HashMap<(String, &'static str), Workload> = HashMap::new();
    let mut build_s = 0.0;
    let mut traces = Vec::new();
    let (mut timed, mut warm) = (Vec::new(), Vec::new());
    for req in &hot.reqs {
        match &req.kind {
            Kind::Simulate {
                kernel,
                matrix,
                config,
            } => {
                let key = (kernel_name(*kernel).to_string(), *matrix);
                let w = workloads.entry(key).or_insert_with(|| {
                    let started = Instant::now();
                    let source = MatrixSource::resolve(matrix).expect("suite matrix");
                    let w = source_workload(&harness, &source, *kernel, MemKind::Cache);
                    build_s += started.elapsed().as_secs_f64();
                    w
                });
                let trace = simulate_trace(kernel.spec(SCALE), w, *config);
                for (out, cached) in [(&mut timed, true), (&mut warm, false)] {
                    let body = simulate_body(*kernel, matrix, *config, &trace, cached);
                    out.push(bytes_digest(stable_prefix(body.as_bytes()).0));
                }
                traces.push(Some(trace));
            }
            Kind::Recommend { mode, req } => {
                let resp =
                    service::recommend(&models[mode.name()], &Kernel::SpMSpV.spec(SCALE), req);
                let body = ApiVersion::V2
                    .ok_body(&serde_json::to_string(&resp).expect("recommend serializes"));
                let d = bytes_digest(body.as_bytes());
                timed.push(d);
                warm.push(d);
                traces.push(None);
            }
        }
    }
    Expected {
        workloads,
        traces,
        timed,
        warm,
        build_s,
    }
}

/// Mean microseconds per call of `f` over `reps` passes of `items`.
fn per_call_us<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    for _ in 0..reps {
        for item in items {
            f(item);
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (reps * items.len()) as f64
}

/// Times each serve-side layer in process on the exact bytes the
/// workload sends (and the responses it gets).
fn layer_timings(report: &mut Report, hot: &HotSet, exp: &Expected, models: &Models) {
    let sims: Vec<(&Req, &Vec<EpochRecord>)> = hot
        .reqs
        .iter()
        .zip(&exp.traces)
        .filter_map(|(r, t)| t.as_ref().map(|t| (r, t)))
        .collect();
    let recs: Vec<(OptMode, &RecommendRequest)> = hot
        .reqs
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Recommend { mode, req } => Some((*mode, req)),
            Kind::Simulate { .. } => None,
        })
        .collect();
    let layers = &mut report.layers;
    layers.insert(
        "serve.http.parse_us",
        per_call_us(&hot.reqs, LAYER_REPS, |r| {
            let mut p = RequestParser::new();
            p.feed(&r.wire);
            black_box(p.next_request());
        }),
    );
    layers.insert(
        "serve.api.decode_us",
        per_call_us(&sims, LAYER_REPS, |(r, _)| {
            let req: SimulateRequest =
                parse_body(r.body.as_bytes(), ApiVersion::V2, SimulateRequest::FIELDS)
                    .expect("hot-set body decodes");
            black_box(req.resolve().expect("hot-set body resolves").key());
        }),
    );
    layers.insert(
        "core.service.summarize_us",
        per_call_us(&sims, LAYER_REPS, |(_, t)| {
            black_box(summarize_trace(t));
        }),
    );
    let spec = Kernel::SpMSpV.spec(SCALE);
    layers.insert(
        "core.service.recommend_us",
        per_call_us(&recs, LAYER_REPS, |(mode, req)| {
            black_box(service::recommend(&models[mode.name()], &spec, req));
        }),
    );
    let bodies: Vec<String> = sims
        .iter()
        .map(|(r, t)| match r.kind {
            Kind::Simulate {
                kernel,
                matrix,
                config,
            } => simulate_body(kernel, matrix, config, t, true),
            Kind::Recommend { .. } => unreachable!("filtered to simulate requests"),
        })
        .collect();
    layers.insert(
        "serve.api.encode_us",
        per_call_us(&sims, LAYER_REPS, |(r, t)| {
            if let Kind::Simulate {
                kernel,
                matrix,
                config,
            } = r.kind
            {
                black_box(simulate_body(kernel, matrix, config, t, true));
            }
        }),
    );
    layers.insert(
        "serve.http.render_us",
        per_call_us(&bodies, LAYER_REPS, |b| {
            black_box(response_bytes(&Response::json(200, b.as_str()), true));
        }),
    );
    // Trace-cache hits on keys the daemon holds resident.
    let keys: Vec<(TraceKey, &Workload, TransmuterConfig, Kernel)> = hot
        .reqs
        .iter()
        .filter_map(|r| match r.kind {
            Kind::Simulate {
                kernel,
                matrix,
                config,
            } => {
                let w = &exp.workloads[&(kernel_name(kernel).to_string(), matrix)];
                let spec = kernel.spec(SCALE);
                let key = TraceKey {
                    spec: spec.fingerprint(),
                    workload: w.fingerprint(),
                    config: config.fingerprint(),
                };
                Some((key, w, config, kernel))
            }
            Kind::Recommend { .. } => None,
        })
        .collect();
    report.layers.insert(
        "core.trace_cache.hit_us",
        per_call_us(&keys, LAYER_REPS, |(key, w, config, kernel)| {
            black_box(
                TraceCache::global()
                    .get_or_simulate(*key, || simulate_trace(kernel.spec(SCALE), w, *config)),
            );
        }),
    );
}

/// Checks every tallied outcome against the expected body digests.
fn check(report: &mut Report, log: &Log, want: &[u64]) {
    for (&(req, status, digest), &n) in &log.outcomes {
        report.check_n(status == 200 && want.get(req as usize) == Some(&digest), n);
    }
}

pub fn serve_warm(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    inputs::require_models().unwrap_or_else(|e| crate::fail(&e));
    for mode in OptMode::ALL {
        black_box(sa_bench::models::ensemble(SCALE, MemKind::Cache, mode, 1));
    }
    // Allocated and touched before the set-up: a constant share of RSS.
    let mut logs: Vec<Log> = (0..CONNECTIONS)
        .map(|_| Log::with_capacity(LOG_CAP))
        .collect();
    let Setup {
        hot,
        models,
        warm: Warm {
            handle,
            log: warm_log,
        },
    } = set_up(&mut report, || set_up_once(ctx.seed));
    let addr = handle.addr;

    // One window on every connection; returns its wall time.
    let window = |logs: &mut [Log], tracers: &mut [Tracer]| -> f64 {
        for log in logs.iter_mut() {
            log.open_window();
        }
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(ctx.seconds);
        let mut tracers = tracers.iter_mut();
        std::thread::scope(|s| {
            let clients: Vec<_> = logs
                .iter_mut()
                .enumerate()
                .map(|(c, log)| {
                    let (hot, tracer) = (&hot, tracers.next());
                    s.spawn(move || client(addr, hot, log, started, deadline, tracer, c as u64))
                })
                .collect();
            for c in clients {
                c.join().expect("client thread");
            }
        });
        started.elapsed().as_secs_f64()
    };
    let completed = |logs: &[Log]| logs.iter().map(Log::completed).sum::<u64>() as f64;

    let wall = if ctx.traced {
        let untraced_wall = window(&mut logs, &mut []);
        let untraced_rate = completed(&logs) / untraced_wall;
        let before = get_metrics(addr);
        let cache_before = TraceCache::global().stats();
        let done = AtomicBool::new(false);
        let mut tracers: Vec<Tracer> = (0..CONNECTIONS)
            .map(|c| Tracer::new(ctx.origin, (c as u32 + 1) << 26))
            .collect();
        let (wall, depth_max) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let mut max = 0usize;
                while !done.load(Ordering::Relaxed) {
                    max = max.max(handle.state.pool.queue_depth());
                    std::thread::sleep(Duration::from_millis(1));
                }
                max
            });
            let wall = window(&mut logs, &mut tracers);
            done.store(true, Ordering::Relaxed);
            (wall, sampler.join().expect("sampler thread"))
        });
        let cache_after = TraceCache::global().stats();
        let after = get_metrics(addr);
        note_overhead(&mut report, untraced_rate, completed(&logs) / wall);
        let spans: Vec<Span> = tracers.iter_mut().flat_map(|t| t.take()).collect();
        let by_name = trace::by_name(&spans);
        let class_ms = |name: &str| -> f64 {
            let mut ms: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect();
            stats::median(&mut ms).unwrap_or(0.0)
        };
        report
            .layers
            .insert("client.simulate_p50_ms", class_ms("client.simulate"));
        report
            .layers
            .insert("client.recommend_p50_ms", class_ms("client.recommend"));
        let total_ns: u64 = by_name.values().map(|s| s.total_ns).sum();
        let mean_rtt_us = total_ns as f64 / spans.len().max(1) as f64 / 1e3;
        // A missing snapshot fails a check rather than reading as the
        // healthy 0.
        report.check(before.is_some() && after.is_some());
        if let (Some(b), Some(a)) = (before, after) {
            let count = a.latency.count.saturating_sub(b.latency.count);
            let route_us = (a.latency.sum_ms - b.latency.sum_ms) * 1e3 / count.max(1) as f64;
            report.layers.insert("serve.route_us", route_us);
            report
                .layers
                .insert("serve.outside_route_us", mean_rtt_us - route_us);
            report.layers.insert(
                "serve.queue.rejected_429",
                a.rejected_429_total.saturating_sub(b.rejected_429_total) as f64,
            );
            report.layers.insert(
                "serve.coalesce.coalesced",
                a.coalesced_total.saturating_sub(b.coalesced_total) as f64,
            );
        }
        report
            .layers
            .insert("serve.queue.depth_max", depth_max as f64);
        let (sim_sum, sim_n) = logs
            .iter()
            .fold((0.0, 0), |(s, n), l| (s + l.sim_us.0, n + l.sim_us.1));
        report
            .layers
            .insert("serve.handlers.sim_us", sim_sum / sim_n.max(1) as f64);
        let hits = cache_after.hits - cache_before.hits;
        let lookups = hits + cache_after.misses - cache_before.misses;
        report.layers.insert(
            "core.trace_cache.hit_rate",
            hits as f64 / lookups.max(1) as f64,
        );
        report.layers.insert("trace.spans", spans.len() as f64);
        ctx.write_spans(&spans);
        wall
    } else {
        window(&mut logs, &mut [])
    };
    // The peak of the workload itself, before the checks allocate.
    report.capture_rss();
    drop(handle);

    // Checks: every body against an in-process simulation, computed only
    // now so it cannot warm anything the timed pass read.
    let exp = expected(&hot, &models);
    check(&mut report, &warm_log, &exp.warm);
    for log in &logs {
        check(&mut report, log, &exp.timed);
    }
    if ctx.traced {
        report.layers.insert("kernels.build_s", exp.build_s);
        report.layers.insert(
            "kernels.events",
            exp.workloads.values().map(inputs::entries).sum::<u64>() as f64,
        );
        layer_timings(&mut report, &hot, &exp, &models);
    } else {
        // One-second slices of the window, by send time.
        let n = (ctx.seconds.ceil() as usize).max(1);
        report.windows = (0..n)
            .map(|b| Window {
                secs: (wall - b as f64).clamp(0.0, 1.0),
                ..Window::default()
            })
            .collect();
        let mut lat = Vec::new();
        for log in &logs {
            for (b, &count) in log.per_slice.iter().enumerate() {
                report.windows[b.min(n - 1)].work += count as f64;
            }
            for l in &log.lat {
                let ms = f64::from(l.rtt_ns) / 1e6;
                report.windows[(l.slice as usize).min(n - 1)]
                    .latencies_ms
                    .push(ms);
                lat.push(ms);
            }
        }
        let q = Quantiles::of(&mut lat);
        let first_recommend = hot.first_recommend() as u32;
        let (recommends, all) = logs
            .iter()
            .flat_map(|l| &l.outcomes)
            .fold((0, 0), |(r, a), (&(req, ..), &n)| {
                (r + if req >= first_recommend { n } else { 0 }, a + n)
            });
        report.notes.push(format!(
            "requests={} logged={} p50_ms={:?} p99_ms={:?} samples_beyond_p99={} recommend_share={:.4}",
            completed(&logs),
            q.n,
            q.p50,
            q.p99,
            Quantiles::beyond_p99(&lat, q.p99),
            recommends as f64 / all.max(1) as f64
        ));
    }
    repeat_set_up(ctx, &mut report, || set_up_once(ctx.seed));
    let mut d = Digest::default();
    for v in &exp.timed {
        d.u64(*v);
    }
    report.notes.push(format!(
        "output_digest={:016x} hot_keys={} recommend_bodies={}",
        d.finish(),
        hot.first_recommend(),
        RECOMMEND_BODIES
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_set_is_seeded() {
        let a = hot_set(3);
        let b = hot_set(3);
        let c = hot_set(4);
        let digest = |h: &HotSet| {
            let mut d = Digest::default();
            for r in &h.reqs {
                d.bytes(&r.wire);
            }
            for &i in h.orders.iter().flatten() {
                d.u64(i as u64);
            }
            d.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert_eq!(
            a.reqs.len(),
            KERNELS.len() * 8 * CONFIGS_PER_PAIR + RECOMMEND_BODIES
        );
        // Each connection keeps to its own simulate keys.
        let sims = a.first_recommend();
        for (c, order) in a.orders.iter().enumerate() {
            assert!(order.iter().all(|&i| i < a.reqs.len()));
            assert!(order
                .iter()
                .filter(|&&i| i < sims)
                .all(|&i| i % CONNECTIONS == c));
        }
    }

    #[test]
    fn request_order_follows_the_recorded_serving_mix() {
        let mix = serve::loadgen::default_mix();
        let count = |suffix: &str| mix.iter().filter(|r| r.target.ends_with(suffix)).count() as u64;
        assert_eq!(
            (count("/simulate"), count("/recommend")),
            (MIX_SIMULATE, MIX_RECOMMEND)
        );
        let hot = hot_set(11);
        let drawn: Vec<usize> = hot.orders.concat();
        let recommends = drawn
            .iter()
            .filter(|&&i| i >= hot.first_recommend())
            .count();
        let share = recommends as f64 / drawn.len() as f64;
        let want = MIX_RECOMMEND as f64 / (MIX_SIMULATE + MIX_RECOMMEND) as f64;
        assert!((share - want).abs() < 0.02, "{share} vs {want}");
    }

    #[test]
    fn tallied_outcomes_count_every_request() {
        let mut log = Log::default();
        log.outcomes.insert((0, 200, 7), 5);
        // A wrong body, a refusal and a transport error.
        log.outcomes.insert((1, 200, 9), 2);
        log.outcomes.insert((0, 429, 7), 1);
        log.outcomes.insert((0, 0, 0), 1);
        let mut report = Report::default();
        check(&mut report, &log, &[7, 8]);
        assert_eq!((report.attempted, report.failed), (9, 4));
    }

    #[test]
    fn stable_prefix_drops_only_the_server_timing() {
        let body = br#"{"v": 2, "data": {"cached": true, "sim_ms": 0.0123}}"#;
        let (prefix, sim_ms) = stable_prefix(body);
        assert_eq!(prefix, br#"{"v": 2, "data": {"cached": true, "#);
        assert_eq!(sim_ms, 0.0123);
        let plain = br#"{"v": 2, "data": {"chosen": 1}}"#;
        assert_eq!(stable_prefix(plain).0, plain);
    }
}
