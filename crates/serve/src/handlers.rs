//! One function per endpoint: parse, resolve, execute, render.
//!
//! Routes that only read in-process state (health, metrics, job polls,
//! drain, topology) answer on the reactor's loop thread. So do the
//! memory hits of `POST /v2/simulate` (a trace already in memory)
//! and `POST /v2/recommend` (a model already loaded): those two
//! handlers are entered on the loop and first look the exact request
//! bytes up in the [answer memo](crate::answer_memo): a body answered
//! on the loop before is answered again without being decoded.
//! Otherwise they decode a body of at most [`LOOP_BODY_MAX`] bytes,
//! probe in-memory maps without building, loading or waiting on a
//! lock, and remember what they answer. Everything else — a miss, a
//! busy lock, a larger body, an uploaded matrix, and the sweep, upload
//! and peer trace routes — runs on a pool worker, admitted by
//! [`crate::queue::admit`], and answers through the request's
//! [`Reply`]. Concurrent identical simulate misses cost one
//! simulation: the workload memo and the trace cache each fill a key
//! once, and every other request for that key waits on the key's slot
//! on its own worker, then renders its own answer.
//!
//! Handlers compute one typed payload, serialize it once and wrap it in
//! the `{"v": 2, "data": ...}` envelope; errors are structured
//! [`ApiError`]s in the same envelope.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sa_bench::experiments::Kernel;
use serde::Deserialize;
use sparseadapt::service::{self, summarize_trace};
use sparseadapt::stitch::{sample_configs, SweepData};
use sparseadapt::trace_cache::{simulate_trace, TraceCache, TraceKey};
use sparseadapt::PredictiveEnsemble;
use transmuter::machine::EpochRecord;

use crate::answer_memo::Answer;
use crate::api::{
    code, kernel_name, parse_body, parse_kernel, ApiError, ApiVersion, ConfigScore, DrainStatusDoc,
    RecommendApiRequest, ResolvedSim, SimulateRequest, SimulateResponse, SweepAccepted,
    SweepRequest, SweepResult, TopologyAck, TopologyDoc, UploadMatrixRequest, UploadMatrixResponse,
};
use crate::http::{Request, Response};
use crate::metrics::QueueGauges;
use crate::queue;
use crate::reactor::Reply;
use crate::server::{AppState, DrainControl};

/// The maximum `sampled` a sweep request may ask for — bounds one job's
/// memory and wall time regardless of what the client sends.
pub const MAX_SWEEP_SAMPLED: u64 = 4096;

/// The largest request body a handler decodes on the loop thread. Every
/// body of the default serving mix (`loadgen::default_mix`) is well
/// under it. A larger body goes to the pool undecoded: the parser takes
/// about 19 ms on a [`crate::http::MAX_BODY_BYTES`] body of numbers,
/// and on the loop that would stall every connection.
pub const LOOP_BODY_MAX: usize = 4 * 1024;

/// Renders a success document (`inner`, already serialized JSON) in
/// the envelope. Errors go through [`ApiVersion::error_response`].
pub(crate) fn finish(status: u16, inner: &str) -> Response {
    Response::json(status, ApiVersion::V2.ok_body(inner))
}

/// `result`'s value, handed back with the reply; an error is answered
/// 400 here instead.
fn or_400<T>(result: Result<T, ApiError>, reply: Reply) -> Option<(T, Reply)> {
    match result {
        Ok(value) => Some((value, reply)),
        Err(err) => {
            reply.error(400, &err);
            None
        }
    }
}

/// A `bad_request` error carrying a resolver's message.
fn bad_request(msg: String) -> ApiError {
    ApiError::new(code::BAD_REQUEST, msg)
}

/// `GET /healthz`.
pub fn healthz() -> Response {
    Response::json(200, "{\"ok\": true}")
}

/// `GET /metrics`.
pub fn metrics(state: &AppState) -> Response {
    let gauges = QueueGauges {
        queue_depth: state.pool.queue_depth(),
        in_flight: state.pool.in_flight(),
        queue_cap: state.pool.queue_cap(),
        workers: state.pool.workers(),
    };
    let mut snap = state.metrics.snapshot(
        gauges,
        TraceCache::global().stats(),
        state.answers.stats(),
        state.reactor.snapshot(),
    );
    snap.topology_epoch = state.topology_epoch();
    Response::json(
        200,
        serde_json::to_string_pretty(&snap).expect("metrics snapshot serializes"),
    )
}

/// `POST /v2/admin/drain`, on a daemon or the router: ask the reactor
/// to drain gracefully. Returns immediately; the process stops
/// accepting, finishes in-flight work, closes idle connections, and
/// (when run via the binary) exits 0 once the drain completes.
/// Idempotent — repeated calls report the current state.
pub fn drain(drain: &DrainControl) -> Response {
    let already = drain.requested();
    drain.request();
    let doc = DrainStatusDoc {
        draining: true,
        already_requested: already,
    };
    finish(
        200,
        &serde_json::to_string(&doc).expect("drain status serializes"),
    )
}

/// `GET /v2/admin/topology` on a shard: the shard's own view of the
/// cluster — the last topology the router pushed, or the standalone
/// placeholder `{epoch: 0, shards: []}` when no router has spoken.
/// Tests cross-check this against the router's authoritative document.
pub fn topology_get(state: &AppState) -> Response {
    let doc = state.topology.lock().expect("topology lock").clone();
    let doc = doc.unwrap_or(TopologyDoc {
        epoch: 0,
        shards: Vec::new(),
    });
    finish(
        200,
        &serde_json::to_string(&doc).expect("topology serializes"),
    )
}

/// Runs `job` on the pool with the request's reply; a full queue
/// answers 429 (see [`queue::admit`]).
fn to_pool(
    state: &Arc<AppState>,
    reply: Reply,
    job: impl FnOnce(&Arc<AppState>, Reply) + Send + 'static,
) {
    let st = Arc::clone(state);
    queue::admit(&state.pool, reply, move |reply| job(&st, reply));
}

/// Decodes the body of a request entered on the loop thread. A body of
/// at most [`LOOP_BODY_MAX`] bytes is decoded here, handed back with
/// the reply, and left in `body`. A larger one is taken from `body` and
/// goes to the pool undecoded, to be decoded there and passed to
/// `on_pool`; that returns `None`, as does a body that does not decode,
/// once its 400 is answered.
fn decode_on_loop<T: Deserialize + Send + 'static>(
    state: &Arc<AppState>,
    body: &mut Vec<u8>,
    reply: Reply,
    fields: &'static [&'static str],
    on_pool: fn(&Arc<AppState>, T, Reply),
) -> Option<(T, Reply)> {
    if body.len() > LOOP_BODY_MAX {
        let body = std::mem::take(body);
        to_pool(state, reply, move |state, reply| {
            if let Some((parsed, reply)) = or_400(parse_body(&body, ApiVersion::V2, fields), reply)
            {
                on_pool(state, parsed, reply);
            }
        });
        return None;
    }
    or_400(parse_body(body, ApiVersion::V2, fields), reply)
}

/// `POST /v2/admin/topology` on a shard: accept a topology push from
/// the router. Entered on the loop thread, which applies a push of at
/// most [`LOOP_BODY_MAX`] bytes itself; a larger one is decoded and
/// applied on the pool.
pub fn topology_put(state: &Arc<AppState>, mut req: Request, reply: Reply) {
    if let Some((doc, reply)) = decode_on_loop(
        state,
        &mut req.body,
        reply,
        TopologyDoc::FIELDS,
        apply_topology,
    ) {
        apply_topology(state, doc, reply);
    }
}

/// Applies a decoded topology push. Stale pushes (epoch lower than what
/// the shard already holds) are ignored so an out-of-order delivery
/// cannot roll the view back; the ack always reports the epoch the
/// shard now holds.
fn apply_topology(state: &Arc<AppState>, doc: TopologyDoc, reply: Reply) {
    let mut held = state.topology.lock().expect("topology lock");
    let stale = held.as_ref().is_some_and(|h| h.epoch > doc.epoch);
    if !stale {
        *held = Some(doc);
    }
    let epoch = held.as_ref().map_or(0, |h| h.epoch);
    drop(held);
    let ack = TopologyAck {
        accepted: !stale,
        epoch,
    };
    reply.send(finish(
        200,
        &serde_json::to_string(&ack).expect("topology ack serializes"),
    ));
}

/// `GET /v2/cache/trace/{spec}-{workload}-{config}`: the serve side of
/// the trace cache's cluster tier. The shard answers a trace complete in
/// its memory with its `SATR` bytes ([`TraceCache::export`]) as
/// `application/octet-stream`, counting no hit and moving no LRU
/// position; a trace it does not hold, or still simulates, is a 404.
/// Runs on the pool, which may wait on the cache's lock. A busy shard
/// therefore answers later, and the requester falls back to simulating
/// once its fetch budget expires.
pub fn trace_get(_state: &Arc<AppState>, req: Request, reply: Reply) {
    let token = req
        .path
        .strip_prefix(crate::peer_tier::TRACE_PATH)
        .unwrap_or_default();
    let Some(key) = TraceKey::parse_token(token) else {
        return reply.send(Response::error(400, "malformed trace cache key"));
    };
    reply.send(match TraceCache::global().export(&key) {
        Some(bytes) => Response::octet(200, bytes),
        None => Response::error(404, "trace not cached on this shard"),
    });
}

/// `GET /v2/jobs`.
pub fn jobs(state: &AppState) -> Response {
    finish(200, &state.jobs.render_all())
}

/// The id of a `GET /v2/jobs/<id>` poll, or the 400 that answers a
/// malformed one. The router answers with it too, before asking any
/// shard.
pub fn job_id(id_str: &str) -> Result<u64, Response> {
    id_str
        .parse::<u64>()
        .map_err(|_| Response::error(400, "job id must be an integer"))
}

/// `GET /v2/jobs/<id>`.
pub fn job(state: &AppState, id_str: &str) -> Response {
    let id = match job_id(id_str) {
        Ok(id) => id,
        Err(malformed) => return malformed,
    };
    match state.jobs.render(id) {
        Some(doc) => finish(200, &doc),
        None => Response::error(404, &format!("no such job {id}")),
    }
}

/// `POST /v2/simulate`, entered on the loop thread. A body this
/// route answered on the loop before is answered from the [answer
/// memo](crate::answer_memo) while its trace is still in memory, with a
/// fresh `sim_ms` timed from the probe. Otherwise a trace that is already
/// complete in memory is answered right here, and remembered: the body
/// is decoded and resolved, then the workload memo and the trace cache
/// are probed without building, simulating, reading disk or waiting on
/// a lock. Everything else goes to the pool as the decoded request: a
/// miss, a busy lock, a body over [`LOOP_BODY_MAX`], and an uploaded
/// (`mtx:`) matrix, whose resolution may read the spill directory.
pub fn simulate(state: &Arc<AppState>, mut req: Request, reply: Reply) {
    let started = Instant::now();
    if let Some(Answer::Simulate { body, .. }) =
        state.answers.get(reply.route(), &req.body).as_deref()
    {
        return reply.send(Response::json(200, body.with_sim_ms(ms_since(started))));
    }
    let Some((parsed, reply)) = decode_on_loop(
        state,
        &mut req.body,
        reply,
        SimulateRequest::FIELDS,
        simulate_on_pool,
    ) else {
        return;
    };
    if parsed.matrix.starts_with("mtx:") {
        return to_pool(state, reply, move |state, reply| {
            simulate_on_pool(state, parsed, reply);
        });
    }
    let Some((resolved, reply)) = or_400(parsed.resolve().map_err(bad_request), reply) else {
        return;
    };
    match memory_hit(state, &resolved) {
        Some((response, trace)) => {
            let (text, body) = response.split_body();
            state
                .answers
                .put(reply.route(), &req.body, Answer::Simulate { body, trace });
            reply.send(Response::json(200, text));
        }
        None => to_pool(state, reply, move |state, reply| {
            reply.send(run_simulate(state, &resolved));
        }),
    }
}

/// Milliseconds since `started`.
fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The [`SimulateResponse`] for a trace already complete in memory,
/// with the trace's key, or `None` when answering would mean building,
/// simulating, reading disk or waiting. Times `sim_ms` as
/// [`run_simulate`] does.
fn memory_hit(state: &AppState, r: &ResolvedSim) -> Option<(SimulateResponse, TraceKey)> {
    let started = Instant::now();
    let spec = r.kernel.spec(state.harness.scale);
    let key = TraceKey {
        spec: spec.fingerprint(),
        workload: state.memoized_fingerprint(r)?,
        config: r.config.fingerprint(),
    };
    let trace = TraceCache::global().peek(&key)?;
    Some((simulate_response(r, &trace, true, started), key))
}

/// Simulate on the pool for a request the loop did not resolve.
fn simulate_on_pool(state: &Arc<AppState>, parsed: SimulateRequest, reply: Reply) {
    if let Some((resolved, reply)) = or_400(parsed.resolve().map_err(bad_request), reply) {
        reply.send(run_simulate(state, &resolved));
    }
}

/// Executes one resolved simulation on the pool worker that admitted
/// it and renders its [`SimulateResponse`]. A request whose workload or
/// trace another worker is still building waits for that one build
/// (each memo fills a key once), then answers `"cached": true` with its
/// own `sim_ms`.
fn run_simulate(state: &AppState, r: &ResolvedSim) -> Response {
    let started = Instant::now();
    let spec = r.kernel.spec(state.harness.scale);
    let (workload, workload_fp) = state.suite_workload(r);
    let ran = AtomicBool::new(false);
    // TraceKey is assembled from the memoized fingerprint rather than
    // get_or_simulate_for: re-hashing the op stream on every warm
    // request would dwarf the cache lookup it keys.
    let key = TraceKey {
        spec: spec.fingerprint(),
        workload: workload_fp,
        config: r.config.fingerprint(),
    };
    let trace = TraceCache::global().get_or_simulate(key, || {
        ran.store(true, Ordering::Relaxed);
        simulate_trace(spec, &workload, r.config)
    });
    let response = simulate_response(r, &trace, !ran.load(Ordering::Relaxed), started);
    finish(
        200,
        &serde_json::to_string(&response).expect("simulate response serializes"),
    )
}

/// The [`SimulateResponse`] for a trace; `sim_ms` runs from `started`
/// to the end of the summary.
fn simulate_response(
    r: &ResolvedSim,
    trace: &[EpochRecord],
    cached: bool,
    started: Instant,
) -> SimulateResponse {
    SimulateResponse {
        kernel: kernel_name(r.kernel).to_string(),
        matrix: r.matrix.id().to_string(),
        config: r.config,
        summary: summarize_trace(trace),
        cached,
        sim_ms: ms_since(started),
    }
}

/// `POST /v2/matrices`: parse and register a MatrixMarket upload under
/// its canonical content hash. Parsing and canonicalisation walk the
/// whole file, so the handler runs on the pool like any other upload or
/// simulation; the response carries the `mtx:<hash>` id that later
/// simulate and sweep requests name.
pub fn upload_matrix(_state: &Arc<AppState>, req: Request, reply: Reply) {
    let parsed: UploadMatrixRequest =
        match parse_body(&req.body, ApiVersion::V2, UploadMatrixRequest::FIELDS) {
            Ok(parsed) => parsed,
            Err(err) => return reply.error(400, &err),
        };
    match sa_bench::mtx::register_text(&parsed.mtx) {
        Ok((source, deduplicated)) => {
            let sa_bench::mtx::MatrixSource::Mtx { ref matrix, .. } = source else {
                unreachable!("register_text always yields an Mtx source");
            };
            let response = UploadMatrixResponse {
                matrix: source.id().to_string(),
                rows: u64::from(matrix.rows()),
                cols: u64::from(matrix.cols()),
                nnz: matrix.to_csr().nnz() as u64,
                deduplicated,
            };
            let inner = serde_json::to_string(&response).expect("upload response serializes");
            reply.send(finish(200, &inner));
        }
        Err(e) => reply.send(Response::error(
            400,
            &format!("invalid MatrixMarket body: {e}"),
        )),
    }
}

/// `POST /v2/recommend`, entered on the loop thread. A body this
/// route answered on the loop before is answered from the [answer
/// memo](crate::answer_memo). Otherwise, with the model this process
/// has already loaded, the one inference is answered right here and
/// remembered. Loading a model (which reads `models/`, or trains) runs
/// on the pool, as does a body over [`LOOP_BODY_MAX`].
pub fn recommend(state: &Arc<AppState>, mut req: Request, reply: Reply) {
    if let Some(Answer::Recommend(body)) = state.answers.get(reply.route(), &req.body).as_deref() {
        return reply.send(Response::json(200, body.clone()));
    }
    let Some((parsed, reply)) = decode_on_loop(
        state,
        &mut req.body,
        reply,
        RecommendApiRequest::FIELDS,
        recommend_on_pool,
    ) else {
        return;
    };
    let Some((kernel, reply)) = or_400(parse_kernel(&parsed.kernel).map_err(bad_request), reply)
    else {
        return;
    };
    let harness = state.harness;
    let l1_kind = parsed.l1_kind.unwrap_or_default();
    let mode = parsed.mode.unwrap_or_default();
    match sa_bench::models::loaded_ensemble(harness.scale, l1_kind, mode) {
        Some(ensemble) => {
            let inner = recommend_json(state, &ensemble, kernel, parsed);
            let body = ApiVersion::V2.ok_body(&inner);
            state
                .answers
                .put(reply.route(), &req.body, Answer::Recommend(body.clone()));
            reply.send(Response::json(200, body));
        }
        None => to_pool(state, reply, move |state, reply| {
            answer_recommend(state, kernel, parsed, reply);
        }),
    }
}

/// Recommend on the pool for a body the loop did not decode.
fn recommend_on_pool(state: &Arc<AppState>, parsed: RecommendApiRequest, reply: Reply) {
    if let Some((kernel, reply)) = or_400(parse_kernel(&parsed.kernel).map_err(bad_request), reply)
    {
        answer_recommend(state, kernel, parsed, reply);
    }
}

/// Answers a recommend on the pool, loading its ensemble if need be.
fn answer_recommend(state: &AppState, kernel: Kernel, parsed: RecommendApiRequest, reply: Reply) {
    let ensemble = load_ensemble(state, &parsed);
    reply.send(finish(
        200,
        &recommend_json(state, &ensemble, kernel, parsed),
    ));
}

/// The ensemble a recommend request names, loaded (or trained) on first
/// use: pool work.
fn load_ensemble(state: &AppState, parsed: &RecommendApiRequest) -> Arc<PredictiveEnsemble> {
    sa_bench::models::shared_ensemble(
        state.harness.scale,
        parsed.l1_kind.unwrap_or_default(),
        parsed.mode.unwrap_or_default(),
        state.harness.threads,
    )
}

/// One policy step with `ensemble`, serialized.
fn recommend_json(
    state: &AppState,
    ensemble: &PredictiveEnsemble,
    kernel: Kernel,
    parsed: RecommendApiRequest,
) -> String {
    let spec = kernel.spec(state.harness.scale);
    let core_req = service::RecommendRequest {
        telemetry: parsed.telemetry,
        current: parsed.current,
        policy: parsed.policy,
        last_epoch_time_s: parsed.last_epoch_time_s,
    };
    let resp = service::recommend(ensemble, &spec, &core_req);
    serde_json::to_string(&resp).expect("recommend response serializes")
}

/// `POST /v2/sweep`: launch an asynchronous sweep job; 202 + job
/// id. The pool worker that admitted the request registers the job,
/// answers 202, and then runs the sweep in place, so a full queue
/// rejects the request with 429 before any job exists.
pub fn sweep(state: &Arc<AppState>, req: Request, reply: Reply) {
    let parsed: SweepRequest = match parse_body(&req.body, ApiVersion::V2, SweepRequest::FIELDS) {
        Ok(parsed) => parsed,
        Err(err) => return reply.error(400, &err),
    };
    let resolved = match parsed.resolve() {
        Ok(r) => r,
        Err(msg) => return reply.send(Response::error(400, &msg)),
    };
    let sampled = parsed
        .sampled
        .unwrap_or(state.harness.sampled_configs as u64)
        .clamp(1, MAX_SWEEP_SAMPLED) as usize;
    let seed = parsed.seed.unwrap_or(state.harness.seed);
    let desc = format!(
        "sweep {}/{} l1={:?} sampled={sampled}",
        kernel_name(resolved.kernel),
        resolved.matrix.id(),
        resolved.l1_kind
    );
    let id = state.jobs.create(&desc);
    let accepted = SweepAccepted {
        job_id: id,
        status: "queued".to_string(),
        poll: format!("/v2/jobs/{id}"),
    };
    let inner = serde_json::to_string(&accepted).expect("accepted document serializes");
    reply.send(finish(202, &inner));

    state.jobs.mark_running(id);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sweep(state, &resolved, sampled, seed)
    }));
    match out {
        Ok(Ok(json)) => state.jobs.finish(id, json),
        Ok(Err(msg)) => state.jobs.fail(id, msg),
        Err(_) => state.jobs.fail(id, "sweep panicked".to_string()),
    }
}

/// Executes a sweep job: sample configurations, simulate each (through
/// the shared sweep pool and trace cache), score, pick winners.
fn run_sweep(
    state: &AppState,
    r: &ResolvedSim,
    sampled: usize,
    seed: u64,
) -> Result<String, String> {
    let started = Instant::now();
    let spec = r.kernel.spec(state.harness.scale);
    let (workload, _) = state.suite_workload(r);
    let configs = sample_configs(r.l1_kind, sampled, seed);
    let data = SweepData::simulate(spec, &workload, &configs, state.harness.threads);
    let mut best_perf: Option<ConfigScore> = None;
    let mut best_eff: Option<ConfigScore> = None;
    for (config, trace) in data.configs.iter().zip(&data.traces) {
        let s = summarize_trace(trace);
        let score = ConfigScore {
            config: *config,
            gflops: s.gflops,
            gflops_per_watt: s.gflops_per_watt,
        };
        if best_perf.as_ref().is_none_or(|b| score.gflops > b.gflops) {
            best_perf = Some(score.clone());
        }
        if best_eff
            .as_ref()
            .is_none_or(|b| score.gflops_per_watt > b.gflops_per_watt)
        {
            best_eff = Some(score);
        }
    }
    let result = SweepResult {
        kernel: kernel_name(r.kernel).to_string(),
        matrix: r.matrix.id().to_string(),
        configs: data.configs.len() as u64,
        best_perf: best_perf.ok_or("sweep produced no configurations")?,
        best_eff: best_eff.ok_or("sweep produced no configurations")?,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    };
    serde_json::to_string(&result).map_err(|e| format!("result serialization failed: {e}"))
}
