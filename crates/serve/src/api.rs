//! The daemon's wire types: requests that name workloads by suite id.
//!
//! Pure-domain shapes (telemetry in, configuration out, trace
//! summaries) live in [`sparseadapt::service`]; this module adds the
//! serving-layer vocabulary — kernel and matrix *names*, named
//! configuration presets — because resolving those names into concrete
//! workloads is the bench harness's business and should not leak into
//! the core crate.
//!
//! # Wire versions
//!
//! Two dialects share one set of typed handlers:
//!
//! - `/v1/*` — the original PR-3 surface: bare response documents,
//!   kept as a compatibility shim. Deprecated; see DESIGN.md §7 for
//!   the removal policy.
//! - `/v2/*` — the versioned envelope `{"v": 2, "data": ...}` on
//!   success and `{"v": 2, "data": null, "error": {...}}` on failure.
//!   The router may additionally mark a failed-over response with
//!   `"rerouted": true` in the envelope.
//!
//! Errors everywhere (both dialects, router and shards alike) use one
//! structured shape, [`ApiError`]: `{code, message, retry_after_ms?}`.

use serde::{Deserialize, Serialize};
use sparseadapt::service::TraceSummary;
use sparseadapt::ReconfigPolicy;
use transmuter::config::{MemKind, TransmuterConfig};
use transmuter::counters::Telemetry;
use transmuter::metrics::OptMode;

use sa_bench::experiments::Kernel;
use sa_bench::mtx::MatrixSource;

/// `POST /v1/simulate`: run (or fetch from the trace cache) one
/// `(kernel, matrix, config)` simulation and return its summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateRequest {
    /// Kernel name: `"spmspm"`, `"spmspv"`, `"spmv"`, `"sptrsv"`, or
    /// `"symgs"` (case-insensitive).
    pub kernel: String,
    /// Suite matrix id (`"R01"`…`"R16"`, or a synthetic id), or the
    /// `"mtx:<hash>"` content id of a matrix uploaded via
    /// `POST /v2/matrices`.
    pub matrix: String,
    /// L1 memory kind; defaults to `Cache`.
    pub l1_kind: Option<MemKind>,
    /// Full explicit configuration. Takes precedence over
    /// `config_name`.
    pub config: Option<TransmuterConfig>,
    /// Named preset: `"baseline"`, `"best_avg_cache"`, `"best_avg_spm"`,
    /// or `"maximum"`. Defaults to `"baseline"` when neither field is
    /// given.
    pub config_name: Option<String>,
}

impl SimulateRequest {
    /// Top-level fields `/v2/simulate` accepts; anything else is a
    /// [`code::UNKNOWN_FIELD`] rejection.
    pub const FIELDS: &'static [&'static str] =
        &["kernel", "matrix", "l1_kind", "config", "config_name"];
}

/// The answer to a [`SimulateRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateResponse {
    /// Kernel, canonical lower-case name.
    pub kernel: String,
    /// Matrix id as resolved from the suite.
    pub matrix: String,
    /// The concrete configuration that ran.
    pub config: TransmuterConfig,
    /// Whole-trace figures of merit.
    pub summary: TraceSummary,
    /// `true` when the trace came from the cache (memory or disk)
    /// rather than a fresh simulation.
    pub cached: bool,
    /// Server-side wall time for this request, milliseconds.
    pub sim_ms: f64,
}

/// The key of [`SimulateResponse::sim_ms`], its last field.
const SIM_MS_KEY: &str = "\"sim_ms\":";

impl SimulateResponse {
    /// This response's body in `version`'s dialect, and that body
    /// without its `sim_ms` value: the one field that differs between
    /// answers to the same request. `sim_ms` is the last field, so its
    /// value ends at the first `}` after the key.
    pub(crate) fn split_body(&self, version: ApiVersion) -> (String, SimulateBody) {
        let inner = serde_json::to_string(self).expect("simulate response serializes");
        let text = version.ok_body(&inner);
        let at = text
            .rfind(SIM_MS_KEY)
            .expect("a simulate body carries sim_ms")
            + SIM_MS_KEY.len();
        let end = at + text[at..].find('}').expect("sim_ms is the last field");
        // Sized exactly: the cut body is kept for as long as it is
        // remembered.
        let mut cut = String::with_capacity(text.len() - (end - at));
        cut.push_str(&text[..at]);
        cut.push_str(&text[end..]);
        (text, SimulateBody { text: cut, at })
    }
}

/// A [`SimulateResponse`] body cut at its `sim_ms` value (see
/// [`SimulateResponse::split_body`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SimulateBody {
    /// The body without the value.
    text: String,
    /// Where the value goes in `text`.
    at: usize,
}

impl SimulateBody {
    /// The body with `sim_ms` written in, as `serde_json` writes a
    /// finite float: Rust's shortest round-trip (`{:?}`) form.
    pub(crate) fn with_sim_ms(&self, sim_ms: f64) -> String {
        use std::fmt::Write;
        let (head, tail) = self.text.split_at(self.at);
        let mut body = String::with_capacity(self.text.len() + 24);
        body.push_str(head);
        write!(body, "{sim_ms:?}").expect("writing to a String cannot fail");
        body.push_str(tail);
        body
    }

    /// Bytes of the body without the value.
    pub(crate) fn len(&self) -> usize {
        self.text.len()
    }
}

/// `POST /v1/recommend`: ask the adaptive policy what the next epoch
/// should run as. Extends [`sparseadapt::service::RecommendRequest`]
/// with the model-selection fields (which trained ensemble to consult).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendApiRequest {
    /// Kernel name (selects epoch sizing): `"spmspm"` or `"spmspv"`.
    pub kernel: String,
    /// L1 kind the model was trained for; defaults to `Cache`.
    pub l1_kind: Option<MemKind>,
    /// Optimisation objective; defaults to `EnergyEfficient`.
    pub mode: Option<OptMode>,
    /// Normalised counter snapshot from the epoch that just finished.
    pub telemetry: Telemetry,
    /// Configuration the epoch ran under.
    pub current: TransmuterConfig,
    /// Hysteresis policy; `None` returns the raw model output.
    pub policy: Option<ReconfigPolicy>,
    /// Elapsed time of the previous epoch in seconds.
    pub last_epoch_time_s: Option<f64>,
}

impl RecommendApiRequest {
    /// Top-level fields `/v2/recommend` accepts; anything else is a
    /// [`code::UNKNOWN_FIELD`] rejection.
    pub const FIELDS: &'static [&'static str] = &[
        "kernel",
        "l1_kind",
        "mode",
        "telemetry",
        "current",
        "policy",
        "last_epoch_time_s",
    ];
}

/// `POST /v1/sweep`: launch an asynchronous configuration sweep; the
/// response is a job id to poll at `GET /v1/jobs/<id>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRequest {
    /// Kernel name (same vocabulary as [`SimulateRequest::kernel`]).
    pub kernel: String,
    /// Suite matrix id or `"mtx:<hash>"` content id.
    pub matrix: String,
    /// L1 memory kind; defaults to `Cache`.
    pub l1_kind: Option<MemKind>,
    /// Number of sampled configurations; defaults to the harness's
    /// scale default.
    pub sampled: Option<u64>,
    /// Sampling seed; defaults to the harness seed.
    pub seed: Option<u64>,
}

impl SweepRequest {
    /// Top-level fields `/v2/sweep` accepts; anything else is a
    /// [`code::UNKNOWN_FIELD`] rejection.
    pub const FIELDS: &'static [&'static str] = &["kernel", "matrix", "l1_kind", "sampled", "seed"];
}

/// One configuration with its whole-trace scores, for sweep results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigScore {
    /// The configuration.
    pub config: TransmuterConfig,
    /// Whole-trace GFLOPS under it.
    pub gflops: f64,
    /// Whole-trace GFLOPS/W under it.
    pub gflops_per_watt: f64,
}

/// The finished result of a sweep job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Kernel, canonical lower-case name.
    pub kernel: String,
    /// Matrix id.
    pub matrix: String,
    /// Configurations swept.
    pub configs: u64,
    /// The best configuration by raw GFLOPS.
    pub best_perf: ConfigScore,
    /// The best configuration by GFLOPS/W.
    pub best_eff: ConfigScore,
    /// Server-side wall time of the sweep, milliseconds.
    pub wall_ms: f64,
}

/// `POST /v2/matrices`: register a MatrixMarket matrix by content. The
/// response names it by canonical content hash (`"mtx:<hash>"`), which
/// later `/v2/simulate` / `/v2/sweep` requests pass as `matrix`.
/// Uploading the same canonical matrix twice — even with different
/// whitespace, comments, entry order, or storage symmetry — dedups to
/// one id.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UploadMatrixRequest {
    /// The MatrixMarket file body, verbatim.
    pub mtx: String,
}

impl UploadMatrixRequest {
    /// Top-level fields `/v2/matrices` accepts; anything else is a
    /// [`code::UNKNOWN_FIELD`] rejection.
    pub const FIELDS: &'static [&'static str] = &["mtx"];
}

/// The answer to an [`UploadMatrixRequest`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UploadMatrixResponse {
    /// The content id (`"mtx:<16 hex digits>"`) to use as `matrix` in
    /// simulate/sweep requests.
    pub matrix: String,
    /// Row count.
    pub rows: u64,
    /// Column count.
    pub cols: u64,
    /// Canonical nonzero count (duplicates summed, symmetry expanded).
    pub nnz: u64,
    /// `true` when this content was already registered on this shard.
    pub deduplicated: bool,
}

/// `202 Accepted` document for a sweep launch: where to poll.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepAccepted {
    /// The job id to poll.
    pub job_id: u64,
    /// Always `"queued"` at accept time.
    pub status: String,
    /// Poll path, versioned to match the request's dialect.
    pub poll: String,
}

// ---------------------------------------------------------------------------
// Control plane (`/v2/admin/*`)
// ---------------------------------------------------------------------------

/// One shard as the control plane sees it (one entry of
/// [`TopologyDoc::shards`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardDoc {
    /// Stable shard id. Ids are allocated once and never reused, so
    /// ring vnode positions (hashed from the id) survive unrelated
    /// topology changes.
    pub id: u32,
    /// The shard daemon's `host:port`.
    pub addr: String,
    /// Relative ring share: a weight-2 shard gets twice the vnodes of a
    /// weight-1 shard (heterogeneous hosts).
    pub weight: f64,
    /// Lifecycle state: `"active"` (on the ring) or `"draining"`
    /// (removal requested — no new assignments, in-flight work
    /// finishing).
    pub state: String,
    /// Whether the router's last health probe succeeded.
    pub healthy: bool,
}

/// The versioned cluster topology: the document `GET /v2/admin/topology`
/// returns and the router pushes to shards on every change.
///
/// `epoch` increments on every mutation and is the optimistic-
/// concurrency token: mutating requests may carry `If-Match: <epoch>`
/// and are rejected with `409 {code: "topology_conflict"}` when the
/// topology moved underneath them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyDoc {
    /// Monotonic topology version.
    pub epoch: u64,
    /// Every shard the router knows, active and draining.
    pub shards: Vec<ShardDoc>,
}

impl TopologyDoc {
    /// Top-level fields a pushed topology (`POST /v2/admin/topology` on
    /// a shard) accepts; anything else is a [`code::UNKNOWN_FIELD`]
    /// rejection.
    pub const FIELDS: &'static [&'static str] = &["epoch", "shards"];
}

/// `POST /v2/admin/shards` (router): add a backend shard to the ring
/// without a restart. The daemon at `addr` must already be running
/// (and should mount the cluster's shared `--cache-dir` so the moved
/// key ranges hand off warm).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AddShardRequest {
    /// The running daemon's `host:port`.
    pub addr: String,
    /// Ring weight; defaults to 1.0.
    pub weight: Option<f64>,
}

impl AddShardRequest {
    /// Top-level fields `/v2/admin/shards` accepts; anything else is a
    /// [`code::UNKNOWN_FIELD`] rejection.
    pub const FIELDS: &'static [&'static str] = &["addr", "weight"];
}

/// One `{id, weight}` entry of a [`ReweightRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardWeightDoc {
    /// The shard to reweight.
    pub id: u32,
    /// Its new ring weight (> 0).
    pub weight: f64,
}

/// `POST /v2/admin/topology` (router): reweight existing shards. Only
/// the named shards change; the ring is rebuilt so only the moved key
/// ranges change owners.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReweightRequest {
    /// The shards to reweight.
    pub shards: Vec<ShardWeightDoc>,
}

impl ReweightRequest {
    /// Top-level fields the router's `/v2/admin/topology` accepts;
    /// anything else is a [`code::UNKNOWN_FIELD`] rejection.
    pub const FIELDS: &'static [&'static str] = &["shards"];
}

/// The answer to every topology mutation (add / remove / reweight):
/// the new topology plus how much of the key space the change moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyChangeResponse {
    /// The topology after the change.
    pub topology: TopologyDoc,
    /// Fraction of the hash ring whose owner changed (the rebalance
    /// cost of this change; consistent hashing bounds it by the moved
    /// shard's share).
    pub moved_fraction: f64,
    /// Number of contiguous moved ring ranges.
    pub moved_ranges: u64,
}

/// Acknowledgement a shard returns for a pushed topology
/// (`POST /v2/admin/topology` on a shard).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyAck {
    /// Always `true` on success.
    pub accepted: bool,
    /// The epoch the shard now reports in `/metrics`.
    pub epoch: u64,
}

/// The answer to `POST /v2/admin/drain`: the daemon (or router) stops
/// accepting, finishes in-flight work, and exits 0.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainStatusDoc {
    /// Always `true`: the drain is (now) requested.
    pub draining: bool,
    /// Whether an earlier request had already started the drain.
    pub already_requested: bool,
}

/// The envelope version served under `/v2/*`.
pub const API_VERSION: u64 = 2;

/// Machine-readable error codes carried in [`ApiError::code`]. One code
/// per failure *class*, not per site — clients branch on these instead
/// of sniffing HTTP status codes.
pub mod code {
    /// Unparseable or unresolvable request (400).
    pub const BAD_REQUEST: &str = "bad_request";
    /// No such endpoint or job (404).
    pub const NOT_FOUND: &str = "not_found";
    /// Wrong verb for the path (405).
    pub const METHOD_NOT_ALLOWED: &str = "method_not_allowed";
    /// Head or body over the limits (413/431): see
    /// [`crate::http::MAX_HEAD_BYTES`] and [`crate::http::MAX_BODY_BYTES`].
    pub const PAYLOAD_TOO_LARGE: &str = "payload_too_large";
    /// Admission queue full — back off and retry (429).
    pub const QUEUE_FULL: &str = "queue_full";
    /// The reactor shed the connection at the connection cap (503).
    /// Back off and retry, same as [`QUEUE_FULL`]; the distinct code
    /// records *where* the edge pushed back.
    pub const OVERLOADED: &str = "overloaded";
    /// The admitted job died without answering (500).
    pub const WORKER_CRASHED: &str = "worker_crashed";
    /// Any other server-side failure (500).
    pub const INTERNAL: &str = "internal";
    /// Every shard behind the router was unreachable (503).
    pub const SHARD_UNAVAILABLE: &str = "shard_unavailable";
    /// Request carried a top-level field the endpoint does not know
    /// (400). Only raised on `/v2/*`; `/v1/*` keeps its original
    /// ignore-unknowns semantics.
    pub const UNKNOWN_FIELD: &str = "unknown_field";
    /// A topology mutation carried `If-Match: <epoch>` but the topology
    /// moved underneath it (409). Re-read `GET /v2/admin/topology` and
    /// retry against the current epoch.
    pub const TOPOLOGY_CONFLICT: &str = "topology_conflict";
    /// A topology mutation hit a router started without `--allow-admin`
    /// (403). Read-only admin endpoints stay available.
    pub const ADMIN_DISABLED: &str = "admin_disabled";
}

/// The one structured error shape used across every 4xx/5xx the daemon
/// and the router emit: `{"code": ..., "message": ...}` plus
/// `retry_after_ms` when the client should back off (429/503).
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub struct ApiError {
    /// Machine-readable class from [`code`].
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// Suggested backoff before retrying, when the failure is load-
    /// or availability-shaped. Omitted from the wire when absent.
    pub retry_after_ms: Option<u64>,
}

// Manual impl (not derived) so `retry_after_ms` is omitted — not
// `null` — when absent: the field is the *optional* part of the shape.
impl Serialize for ApiError {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("code".to_string(), serde::Value::Str(self.code.clone())),
            (
                "message".to_string(),
                serde::Value::Str(self.message.clone()),
            ),
        ];
        if let Some(ms) = self.retry_after_ms {
            fields.push(("retry_after_ms".to_string(), serde::Value::UInt(ms)));
        }
        serde::Value::Obj(fields)
    }
}

impl ApiError {
    /// An error with the given code and message.
    pub fn new(code: &str, message: impl Into<String>) -> ApiError {
        ApiError {
            code: code.to_string(),
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a backoff hint.
    pub fn with_retry_after_ms(mut self, ms: u64) -> ApiError {
        self.retry_after_ms = Some(ms);
        self
    }

    /// The default code for a transport-level status (used where the
    /// failure is detected before any handler runs, e.g. malformed
    /// HTTP).
    pub fn for_status(status: u16, message: &str) -> ApiError {
        let c = match status {
            400 => code::BAD_REQUEST,
            403 => code::ADMIN_DISABLED,
            404 => code::NOT_FOUND,
            405 => code::METHOD_NOT_ALLOWED,
            409 => code::TOPOLOGY_CONFLICT,
            413 | 431 => code::PAYLOAD_TOO_LARGE,
            429 => code::QUEUE_FULL,
            503 => code::SHARD_UNAVAILABLE,
            _ => code::INTERNAL,
        };
        ApiError::new(c, message)
    }

    /// Serialized wire form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("error shape serializes")
    }

    /// Whether this error is the given code.
    pub fn is(&self, code: &str) -> bool {
        self.code == code
    }

    /// `Retry-After` header value (whole seconds, rounded up), when a
    /// backoff hint is present.
    pub fn retry_after_s(&self) -> Option<u64> {
        self.retry_after_ms.map(|ms| ms.div_ceil(1000).max(1))
    }
}

/// Parses a request body for the given dialect. `/v1/*` keeps its
/// original lenient semantics (unknown fields silently ignored, as a
/// compatibility shim); `/v2/*` rejects any top-level field outside
/// `known` with [`code::UNKNOWN_FIELD`], so client typos like
/// `"confg_name"` fail loudly instead of silently falling back to
/// defaults. Admin endpoints share this exact validation path with the
/// data plane (`/v2/simulate` et al.) so the two surfaces cannot drift.
pub fn parse_body<T: serde::Deserialize>(
    body: &[u8],
    version: ApiVersion,
    known: &[&str],
) -> Result<T, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(code::BAD_REQUEST, "request body is not UTF-8"))?;
    let value = serde_json::parse_value_str(text)
        .map_err(|e| ApiError::new(code::BAD_REQUEST, format!("bad request: {e}")))?;
    if version == ApiVersion::V2 {
        let obj = value.as_obj().ok_or_else(|| {
            ApiError::new(code::BAD_REQUEST, "request body must be a JSON object")
        })?;
        if let Some((k, _)) = obj.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(ApiError::new(
                code::UNKNOWN_FIELD,
                format!("unknown field \"{k}\" (known fields: {})", known.join(", ")),
            ));
        }
    }
    T::from_value(&value).map_err(|e| ApiError::new(code::BAD_REQUEST, format!("bad request: {e}")))
}

/// Which wire dialect a request arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiVersion {
    /// Bare documents (compatibility shim).
    V1,
    /// `{"v": 2, ...}` envelope.
    V2,
}

impl ApiVersion {
    /// The dialect a request path speaks: `/v2/*` answers in the
    /// envelope, every other path in the bare v1 shape.
    pub fn of_path(path: &str) -> ApiVersion {
        if path.starts_with("/v2/") {
            ApiVersion::V2
        } else {
            ApiVersion::V1
        }
    }

    /// Wraps a success payload (already-serialized JSON) for this
    /// dialect. The payload is spliced, not re-parsed: all typed
    /// serialization is deterministic, so identical requests produce
    /// byte-identical envelopes.
    pub fn ok_body(self, data_json: &str) -> String {
        match self {
            ApiVersion::V1 => data_json.to_string(),
            ApiVersion::V2 => format!("{{\"v\": {API_VERSION}, \"data\": {data_json}}}"),
        }
    }

    /// Wraps an [`ApiError`] for this dialect.
    pub fn err_body(self, err: &ApiError) -> String {
        let err_json = err.to_json();
        match self {
            ApiVersion::V1 => err_json,
            ApiVersion::V2 => {
                format!("{{\"v\": {API_VERSION}, \"data\": null, \"error\": {err_json}}}")
            }
        }
    }

    /// A structured error response in this dialect, with a
    /// `Retry-After` header when the error carries a backoff hint.
    pub fn error_response(self, status: u16, err: &ApiError) -> crate::http::Response {
        let resp = crate::http::Response::json(status, self.err_body(err));
        match err.retry_after_s() {
            Some(s) => resp.with_header("retry-after", s.to_string()),
            None => resp,
        }
    }

    /// The job-poll path prefix for this dialect.
    pub fn jobs_prefix(self) -> &'static str {
        match self {
            ApiVersion::V1 => "/v1/jobs",
            ApiVersion::V2 => "/v2/jobs",
        }
    }
}

/// A [`SimulateRequest`] with every name resolved against the suite —
/// the canonical form used for coalescing keys and execution.
#[derive(Debug, Clone)]
pub struct ResolvedSim {
    /// The kernel.
    pub kernel: Kernel,
    /// The matrix: a suite spec or a registered `.mtx` upload.
    pub matrix: MatrixSource,
    /// L1 memory kind.
    pub l1_kind: MemKind,
    /// The concrete configuration.
    pub config: TransmuterConfig,
}

/// Parses a kernel name.
pub fn parse_kernel(name: &str) -> Result<Kernel, String> {
    match name.to_ascii_lowercase().as_str() {
        "spmspm" => Ok(Kernel::SpMSpM),
        "spmspv" => Ok(Kernel::SpMSpV),
        "spmv" => Ok(Kernel::SpMV),
        "sptrsv" => Ok(Kernel::SpTRSV),
        "symgs" => Ok(Kernel::SymGS),
        other => Err(format!(
            "unknown kernel '{other}' (expected spmspm, spmspv, spmv, sptrsv, or symgs)"
        )),
    }
}

/// Canonical lower-case name of a kernel (inverse of [`parse_kernel`]).
pub fn kernel_name(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::SpMSpM => "spmspm",
        Kernel::SpMSpV => "spmspv",
        Kernel::SpMV => "spmv",
        Kernel::SpTRSV => "sptrsv",
        Kernel::SymGS => "symgs",
    }
}

/// Resolves a named configuration preset.
pub fn config_by_name(name: &str) -> Result<TransmuterConfig, String> {
    match name.to_ascii_lowercase().as_str() {
        "baseline" => Ok(TransmuterConfig::baseline()),
        "best_avg_cache" => Ok(TransmuterConfig::best_avg_cache()),
        "best_avg_spm" => Ok(TransmuterConfig::best_avg_spm()),
        "maximum" => Ok(TransmuterConfig::maximum()),
        other => Err(format!(
            "unknown config_name '{other}' (expected baseline, best_avg_cache, best_avg_spm, or maximum)"
        )),
    }
}

fn resolve_matrix(id: &str) -> Result<MatrixSource, String> {
    MatrixSource::resolve(id).ok_or_else(|| format!("unknown matrix id '{id}'"))
}

/// The one workload-shape constraint names can violate after resolving:
/// solver kernels need a square operand, and an uploaded matrix can be
/// any shape.
fn check_shape(kernel: Kernel, matrix: &MatrixSource) -> Result<(), String> {
    if kernel.requires_square() && !matrix.is_square() {
        return Err(format!(
            "kernel '{}' requires a square matrix; '{}' is rectangular",
            kernel_name(kernel),
            matrix.id()
        ));
    }
    Ok(())
}

impl SimulateRequest {
    /// Resolves every name against the suite; the resolved form keeps
    /// the configuration concrete, so `{"config_name": "baseline"}` and
    /// the equivalent explicit `config` coalesce to the same key.
    pub fn resolve(&self) -> Result<ResolvedSim, String> {
        let kernel = parse_kernel(&self.kernel)?;
        let matrix = resolve_matrix(&self.matrix)?;
        check_shape(kernel, &matrix)?;
        let l1_kind = self.l1_kind.unwrap_or_default();
        let mut config = match (&self.config, &self.config_name) {
            (Some(c), _) => *c,
            (None, Some(name)) => config_by_name(name)?,
            (None, None) => TransmuterConfig::baseline(),
        };
        // The compile-time L1 kind lives on the config; keep the two
        // fields coherent rather than letting them silently disagree.
        config.l1_kind = l1_kind;
        Ok(ResolvedSim {
            kernel,
            matrix,
            l1_kind,
            config,
        })
    }
}

impl ResolvedSim {
    /// The coalescing/dedup key: everything that determines the
    /// response except server-side timing.
    pub fn key(&self) -> String {
        format!(
            "sim/{}/{}/{:?}/{:016x}",
            kernel_name(self.kernel),
            self.matrix.id(),
            self.l1_kind,
            self.config.fingerprint()
        )
    }
}

impl SweepRequest {
    /// Resolves the kernel/matrix names (configuration is sampled, not
    /// named, so the resolved form carries the baseline placeholder).
    pub fn resolve(&self) -> Result<ResolvedSim, String> {
        let kernel = parse_kernel(&self.kernel)?;
        let matrix = resolve_matrix(&self.matrix)?;
        check_shape(kernel, &matrix)?;
        let l1_kind = self.l1_kind.unwrap_or_default();
        let mut config = TransmuterConfig::baseline();
        config.l1_kind = l1_kind;
        Ok(ResolvedSim {
            kernel,
            matrix,
            l1_kind,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A body split from one response, with a finite `sim_ms` written
        /// back in, is byte for byte the serialized response carrying
        /// that `sim_ms`, in both dialects.
        #[test]
        fn split_body_splices_sim_ms_as_serde_writes_it(
            sim_ms_bits in 0u64..u64::MAX,
            split_bits in 0u64..u64::MAX,
            summary_bits in 0u64..u64::MAX,
            epochs in 0usize..100_000,
        ) {
            let sim_ms = f64::from_bits(sim_ms_bits);
            if !sim_ms.is_finite() {
                return Ok(());
            }
            let figure = f64::from_bits(summary_bits);
            let mut response = SimulateResponse {
                kernel: "symgs".to_string(),
                matrix: "R09".to_string(),
                config: TransmuterConfig::maximum(),
                summary: TraceSummary {
                    epochs,
                    time_s: figure,
                    energy_j: figure * 2.0,
                    fp_ops: summary_bits,
                    gflops: -figure,
                    gflops_per_watt: figure / 3.0,
                    reconfig_time_s: figure * 1e-9,
                    reconfig_count: epochs / 2,
                },
                cached: epochs % 2 == 0,
                // The split is made at another value, even a non-finite
                // one (written as `null`).
                sim_ms: f64::from_bits(split_bits),
            };
            let cut = [ApiVersion::V1, ApiVersion::V2].map(|v| response.split_body(v).1);
            response.sim_ms = sim_ms;
            let inner = serde_json::to_string(&response).expect("serializes");
            for (body, version) in cut.iter().zip([ApiVersion::V1, ApiVersion::V2]) {
                let whole = version.ok_body(&inner);
                prop_assert_eq!(&response.split_body(version).0, &whole);
                prop_assert_eq!(body.with_sim_ms(sim_ms), whole);
            }
        }
    }

    #[test]
    fn simulate_request_round_trips_and_resolves() {
        let req = SimulateRequest {
            kernel: "SpMSpV".to_string(),
            matrix: "R09".to_string(),
            l1_kind: Some(MemKind::Spm),
            config: None,
            config_name: Some("best_avg_spm".to_string()),
        };
        let json = serde_json::to_string(&req).expect("serializes");
        let back: SimulateRequest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, req);
        let resolved = back.resolve().expect("resolves");
        assert_eq!(resolved.kernel, Kernel::SpMSpV);
        assert_eq!(resolved.matrix.id(), "R09");
        assert_eq!(resolved.config.l1_kind, MemKind::Spm);
    }

    #[test]
    fn missing_optional_fields_default() {
        // Sparse hand-written JSON, as a curl user would send it.
        let req: SimulateRequest =
            serde_json::from_str(r#"{"kernel": "spmspm", "matrix": "R01"}"#).expect("parses");
        let resolved = req.resolve().expect("resolves");
        assert_eq!(resolved.l1_kind, MemKind::Cache);
        assert_eq!(resolved.config, TransmuterConfig::baseline());
    }

    #[test]
    fn named_and_explicit_configs_coalesce_to_one_key() {
        let named = SimulateRequest {
            kernel: "spmspm".to_string(),
            matrix: "R01".to_string(),
            l1_kind: None,
            config: None,
            config_name: Some("baseline".to_string()),
        };
        let explicit = SimulateRequest {
            config: Some(TransmuterConfig::baseline()),
            config_name: None,
            ..named.clone()
        };
        assert_eq!(
            named.resolve().unwrap().key(),
            explicit.resolve().unwrap().key()
        );
    }

    #[test]
    fn solver_kernels_parse_and_round_trip() {
        for (name, k) in [
            ("spmv", Kernel::SpMV),
            ("SpTRSV", Kernel::SpTRSV),
            ("SymGS", Kernel::SymGS),
        ] {
            assert_eq!(parse_kernel(name).unwrap(), k);
            assert_eq!(parse_kernel(kernel_name(k)).unwrap(), k);
        }
    }

    #[test]
    fn uploaded_matrix_ids_resolve_and_square_checks_apply() {
        let square = "%%MatrixMarket matrix coordinate real general\n\
                      2 2 3\n1 1 4.0\n2 1 -1.0\n2 2 5.0\n";
        let (src, _) = sa_bench::mtx::register_text(square).expect("registers");
        let req = SimulateRequest {
            kernel: "sptrsv".to_string(),
            matrix: src.id().to_string(),
            l1_kind: None,
            config: None,
            config_name: None,
        };
        let resolved = req.resolve().expect("mtx id resolves");
        assert_eq!(resolved.matrix.id(), src.id());
        assert!(resolved.key().contains(src.id()));

        let rect = "%%MatrixMarket matrix coordinate real general\n\
                    2 3 2\n1 1 1.0\n2 3 2.0\n";
        let (rect_src, _) = sa_bench::mtx::register_text(rect).expect("registers");
        let rejected = SimulateRequest {
            kernel: "symgs".to_string(),
            matrix: rect_src.id().to_string(),
            ..req.clone()
        };
        let err = rejected.resolve().expect_err("rectangular solver input");
        assert!(err.contains("square"), "unexpected error: {err}");
        // SpMV takes any shape.
        let spmv = SimulateRequest {
            kernel: "spmv".to_string(),
            matrix: rect_src.id().to_string(),
            ..req
        };
        assert!(spmv.resolve().is_ok());
    }

    #[test]
    fn bad_names_produce_errors_not_panics() {
        assert!(parse_kernel("gemm").is_err());
        assert!(config_by_name("fastest").is_err());
        let req = SimulateRequest {
            kernel: "spmspm".to_string(),
            matrix: "R99".to_string(),
            l1_kind: None,
            config: None,
            config_name: None,
        };
        assert!(req.resolve().is_err());
    }
}
