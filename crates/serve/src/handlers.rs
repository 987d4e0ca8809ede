//! One function per endpoint: parse, resolve, execute, render.
//!
//! Routes that only read in-process state (health, metrics, job polls,
//! drain, topology) return their [`Response`] on the reactor's loop
//! thread. Every other handler runs on a pool worker, admitted by
//! [`crate::queue::admit`], and answers through the request's
//! [`Reply`]. `POST /v{1,2}/simulate` additionally coalesces: a request
//! whose key is already in flight leaves its reply with the leader,
//! which answers every follower with the same bytes.
//!
//! Every handler is *version-aware*: `/v1/*` and `/v2/*` both land
//! here, carrying an [`ApiVersion`]. Handlers compute one typed payload
//! (serialized once), and the version only decides the final wrapping —
//! bare document for v1, `{"v": 2, "data": ...}` envelope for v2 — so
//! the two dialects cannot drift apart. Errors are structured
//! [`ApiError`]s in both dialects. Coalescing happens on the *inner*
//! payload, so a v1 and a v2 request for the same simulation share one
//! computation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sparseadapt::epoch_cache::{simulate_trace_adaptive_keyed, EpochCache, EpochKey};
use sparseadapt::service::{self, summarize_trace};
use sparseadapt::stitch::{sample_configs, SweepData};
use sparseadapt::trace_cache::{TraceCache, TraceKey};

use crate::api::{
    code, kernel_name, parse_body, parse_kernel, ApiError, ApiVersion, ConfigScore, DrainStatusDoc,
    RecommendApiRequest, ResolvedSim, SimulateRequest, SimulateResponse, SweepAccepted,
    SweepRequest, SweepResult, TopologyAck, TopologyDoc, UploadMatrixRequest, UploadMatrixResponse,
};
use crate::http::{Request, Response};
use crate::metrics::QueueGauges;
use crate::reactor::Reply;
use crate::server::AppState;

/// The maximum `sampled` a sweep request may ask for — bounds one job's
/// memory and wall time regardless of what the client sends.
pub const MAX_SWEEP_SAMPLED: u64 = 4096;

/// Renders a success document (`inner`, already serialized JSON) into
/// a response for the request's dialect. Errors go through
/// [`ApiVersion::error_response`].
fn finish(version: ApiVersion, status: u16, inner: &str) -> Response {
    Response::json(status, version.ok_body(inner))
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
        EpochCache::global().stats(),
        state.reactor.snapshot(),
    );
    snap.topology_epoch = state.topology_epoch();
    Response::json(
        200,
        serde_json::to_string_pretty(&snap).expect("metrics snapshot serializes"),
    )
}

/// The enveloped 405 every known `/v2/admin` path returns on a wrong
/// verb — admin paths exist, so a wrong method must not read as 404,
/// and the error carries the structured `/v2` envelope like every other
/// admin answer.
pub fn admin_method_not_allowed() -> Response {
    let err = ApiError::new(code::METHOD_NOT_ALLOWED, "method not allowed for this path");
    Response::json(405, ApiVersion::V2.err_body(&err))
}

/// `POST /v2/admin/drain`: ask the reactor to drain gracefully.
/// Returns immediately; the daemon stops accepting, finishes in-flight
/// work, closes idle connections, and (when run via the binary) exits 0
/// once the drain completes. Idempotent — repeated calls report the
/// current state.
pub fn drain(state: &AppState, version: ApiVersion) -> Response {
    let already = state.drain.requested();
    state.drain.request();
    let doc = DrainStatusDoc {
        draining: true,
        already_requested: already,
    };
    finish(
        version,
        200,
        &serde_json::to_string(&doc).expect("drain status serializes"),
    )
}

/// `GET /v2/admin/topology` on a shard: the shard's own view of the
/// cluster — the last topology the router pushed, or the standalone
/// placeholder `{epoch: 0, shards: []}` when no router has spoken.
/// Tests cross-check this against the router's authoritative document.
pub fn topology_get(state: &AppState, version: ApiVersion) -> Response {
    let doc = state.topology.lock().expect("topology lock").clone();
    let doc = doc.unwrap_or(TopologyDoc {
        epoch: 0,
        shards: Vec::new(),
    });
    finish(
        version,
        200,
        &serde_json::to_string(&doc).expect("topology serializes"),
    )
}

/// `POST /v2/admin/topology` on a shard: accept a topology push from
/// the router. Stale pushes (epoch lower than what the shard already
/// holds) are ignored so an out-of-order delivery cannot roll the view
/// back; the ack always reports the epoch the shard now holds.
pub fn topology_put(state: &AppState, body: &[u8], version: ApiVersion) -> Response {
    let doc: TopologyDoc = match parse_body(body, version, TopologyDoc::FIELDS) {
        Ok(doc) => doc,
        Err(err) => return version.error_response(400, &err),
    };
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
    finish(
        version,
        200,
        &serde_json::to_string(&ack).expect("topology ack serializes"),
    )
}

/// `GET /v2/cache/epoch/{token}`: the serve side of the cluster epoch
/// tier — one encoded (`SAEP`) epoch from this shard's memory or disk
/// tier, as `application/octet-stream`. With `?chain=N` the shard
/// follows the content-addressed digest chain and returns one compact
/// (`SAEG`) segment instead: records for up to `N` consecutive epochs
/// plus the last one's exit state, fast-forwarding the requester's
/// whole run in one response. Runs on the pool: a segment export
/// decodes and digests up to the chain's length of machine states, and
/// the disk tier may be read. A busy shard therefore answers later, and
/// the requester falls back to simulating once its fetch budget
/// expires.
pub fn epoch_get(_state: &Arc<AppState>, req: Request, reply: Reply) {
    let Some(key) = EpochKey::parse_token(epoch_token(&req)) else {
        return reply.send(Response::error(400, "malformed epoch cache key"));
    };
    let chain = req
        .query
        .split('&')
        .find_map(|kv| kv.strip_prefix("chain="))
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or(1);
    let bytes = if chain > 1 {
        EpochCache::global().export_segment(&key, chain)
    } else {
        EpochCache::global().export(&key)
    };
    reply.send(match bytes {
        Some(bytes) => Response::octet(200, bytes),
        None => Response::error(404, "epoch not cached on this shard"),
    });
}

/// `PUT /v2/cache/epoch/{token}`: the receive side of the post-sweep
/// warm push. The body is decoded and fully validated (its key
/// included) before admission; malformed, corrupt, version-skewed or
/// misaddressed pushes are rejected with the typed decode error and
/// admit nothing. Runs on the pool: decoding walks whole machine
/// states, and admission may write the disk tier.
pub fn epoch_put(_state: &Arc<AppState>, req: Request, reply: Reply) {
    let Some(key) = EpochKey::parse_token(epoch_token(&req)) else {
        return reply.send(Response::error(400, "malformed epoch cache key"));
    };
    if !EpochCache::global().is_enabled() {
        return reply.send(Response::error(409, "epoch cache disabled on this shard"));
    }
    reply.send(match EpochCache::global().import(&key, &req.body) {
        Ok(()) => Response::json(200, "{\"accepted\": true}"),
        Err(e) => Response::error(400, &format!("epoch push rejected: {e}")),
    });
}

/// The key token of a `/v2/cache/epoch/{token}` path.
fn epoch_token(req: &Request) -> &str {
    req.path
        .strip_prefix("/v2/cache/epoch/")
        .unwrap_or_default()
}

/// `GET /v1/jobs` and `GET /v2/jobs`.
pub fn jobs(state: &AppState, version: ApiVersion) -> Response {
    finish(version, 200, &state.jobs.render_all())
}

/// `GET /v1/jobs/<id>` and `GET /v2/jobs/<id>`.
pub fn job(state: &AppState, id_str: &str, version: ApiVersion) -> Response {
    let Ok(id) = id_str.parse::<u64>() else {
        return version.error_response(
            400,
            &ApiError::new(code::BAD_REQUEST, "job id must be an integer"),
        );
    };
    match state.jobs.render(id) {
        Some(doc) => finish(version, 200, &doc),
        None => version.error_response(
            404,
            &ApiError::new(code::NOT_FOUND, format!("no such job {id}")),
        ),
    }
}

/// `POST /v{1,2}/simulate`: coalesced, cache-backed simulation, run
/// in place on the pool worker that admitted it. A request whose key is
/// already in flight leaves its reply with the leader and returns at
/// once, freeing its worker; the leader answers every follower in the
/// follower's own dialect, with the leader's 500 if it panics.
pub fn simulate(state: &Arc<AppState>, req: Request, reply: Reply) {
    let version = reply.version();
    let parsed: SimulateRequest = match parse_body(&req.body, version, SimulateRequest::FIELDS) {
        Ok(parsed) => parsed,
        Err(err) => return reply.error(400, &err),
    };
    let resolved = match parsed.resolve() {
        Ok(r) => r,
        Err(msg) => return reply.error(400, &ApiError::new(code::BAD_REQUEST, msg)),
    };
    let Some((inner, waiters)) = state
        .coalescer
        .run(resolved.key(), reply, || run_simulate(state, &resolved))
    else {
        state.metrics.record_coalesced();
        return;
    };
    for waiter in waiters {
        let response = finish(waiter.version(), 200, &inner);
        waiter.send(response);
    }
}

/// Executes one resolved simulation on a pool worker; returns the
/// serialized [`SimulateResponse`].
fn run_simulate(state: &AppState, r: &ResolvedSim) -> String {
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
        // Routed through the epoch cache when enabled (a no-op
        // passthrough to `simulate_trace` otherwise): a trace-cache
        // miss can still fast-forward epoch-by-epoch from memory, the
        // SAEP disk tier, or — with `--epoch-peer-fetch` — the rest of
        // the cluster. Fingerprints are reused from `key` so the warm
        // path hashes nothing twice.
        simulate_trace_adaptive_keyed(spec, &workload, r.config, key.spec, key.workload)
    });
    let response = SimulateResponse {
        kernel: kernel_name(r.kernel).to_string(),
        matrix: r.matrix.id().to_string(),
        config: r.config,
        summary: summarize_trace(&trace),
        cached: !ran.load(Ordering::Relaxed),
        sim_ms: started.elapsed().as_secs_f64() * 1e3,
    };
    serde_json::to_string(&response).expect("simulate response serializes")
}

/// `POST /v2/matrices`: parse and register a MatrixMarket upload under
/// its canonical content hash. Parsing and canonicalisation walk the
/// whole file, so the handler runs on the pool like any other upload or
/// simulation; the response carries the `mtx:<hash>` id that later
/// simulate and sweep requests name.
pub fn upload_matrix(_state: &Arc<AppState>, req: Request, reply: Reply) {
    let version = reply.version();
    let parsed: UploadMatrixRequest =
        match parse_body(&req.body, version, UploadMatrixRequest::FIELDS) {
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
            reply.send(finish(version, 200, &inner));
        }
        Err(e) => reply.error(
            400,
            &ApiError::new(code::BAD_REQUEST, format!("invalid MatrixMarket body: {e}")),
        ),
    }
}

/// `POST /v{1,2}/recommend`: model inference on a pool worker.
pub fn recommend(state: &Arc<AppState>, req: Request, reply: Reply) {
    let version = reply.version();
    let parsed: RecommendApiRequest =
        match parse_body(&req.body, version, RecommendApiRequest::FIELDS) {
            Ok(parsed) => parsed,
            Err(err) => return reply.error(400, &err),
        };
    let kernel = match parse_kernel(&parsed.kernel) {
        Ok(k) => k,
        Err(msg) => return reply.error(400, &ApiError::new(code::BAD_REQUEST, msg)),
    };
    let harness = state.harness;
    let ensemble = sa_bench::models::ensemble(
        harness.scale,
        parsed.l1_kind.unwrap_or_default(),
        parsed.mode.unwrap_or_default(),
        harness.threads,
    );
    let spec = kernel.spec(harness.scale);
    let core_req = service::RecommendRequest {
        telemetry: parsed.telemetry,
        current: parsed.current,
        policy: parsed.policy,
        last_epoch_time_s: parsed.last_epoch_time_s,
    };
    let resp = service::recommend(&ensemble, &spec, &core_req);
    let inner = serde_json::to_string(&resp).expect("recommend response serializes");
    reply.send(finish(version, 200, &inner));
}

/// `POST /v{1,2}/sweep`: launch an asynchronous sweep job; 202 + job
/// id. The pool worker that admitted the request registers the job,
/// answers 202, and then runs the sweep in place, so a full queue
/// rejects the request with 429 before any job exists.
pub fn sweep(state: &Arc<AppState>, req: Request, reply: Reply) {
    let version = reply.version();
    let parsed: SweepRequest = match parse_body(&req.body, version, SweepRequest::FIELDS) {
        Ok(parsed) => parsed,
        Err(err) => return reply.error(400, &err),
    };
    let resolved = match parsed.resolve() {
        Ok(r) => r,
        Err(msg) => return reply.error(400, &ApiError::new(code::BAD_REQUEST, msg)),
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
        poll: format!("{}/{id}", version.jobs_prefix()),
    };
    let inner = serde_json::to_string(&accepted).expect("accepted document serializes");
    reply.send(finish(version, 202, &inner));

    state.jobs.mark_running(id);
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sweep(state, &resolved, sampled, seed)
    }));
    let succeeded = matches!(out, Ok(Ok(_)));
    match out {
        Ok(Ok(json)) => state.jobs.finish(id, json),
        Ok(Err(msg)) => state.jobs.fail(id, msg),
        Err(_) => state.jobs.fail(id, "sweep panicked".to_string()),
    }
    // Optional warm push: the sweep just minted the hottest epoch
    // entries in the fleet; ship the top of the LRU to ring neighbors
    // on a detached thread so this pool worker never waits on peers.
    if succeeded && state.epoch_warm_push > 0 && EpochCache::global().is_enabled() {
        let st = Arc::clone(state);
        std::thread::spawn(move || {
            crate::epoch_tier::warm_push(&st, st.self_addr, st.epoch_warm_push);
        });
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
