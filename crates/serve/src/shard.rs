//! Cluster mode: a consistent-hash router in front of N daemon shards.
//!
//! The SparseAdapt premise is that reconfiguration is cheap once the
//! expensive simulation is cached; one process caps out at one LRU and
//! one worker pool. Cluster mode scales past that while keeping the
//! cache economics: the router hashes each request's *workload key*
//! (kernel/matrix/L1 kind) onto a [`Ring`] of shards, so every shard's
//! in-memory LRU and memoized suite workloads stay hot for a disjoint
//! key range, and the shards mount one shared on-disk trace-cache tier
//! (see `sparseadapt::trace_cache` for why concurrent publishes stay
//! whole) so a cold miss on one shard can still hit bytes another shard
//! published.
//!
//! The topology is *elastic*: shards carry a ring `weight`
//! (heterogeneous hosts get proportional vnode shares) and the shard
//! set itself changes at runtime through a typed `/v2/admin` control
//! plane — `POST /v2/admin/shards` adds a running daemon to the ring,
//! `DELETE /v2/admin/shards/{id}` drains and drops one, and
//! `POST /v2/admin/topology` reweights. Every mutation bumps a
//! monotonic topology `epoch`; the whole view ([`TopologyView`]) is
//! immutable and swapped atomically, so in-flight requests route
//! against a consistent snapshot, and `If-Match: <epoch>` gives
//! concurrent operators optimistic concurrency (`409
//! topology_conflict` on a stale epoch). [`ring_diff`] computes exactly
//! which key ranges a change moves — consistent hashing bounds the
//! moved fraction by the changed shard's share, and the shared disk
//! tier makes the handoff warm.
//!
//! Robustness machinery, in the shape an inference stack needs it:
//! - background health checks driven off each shard's `/healthz`;
//! - bounded retry-with-backoff on connect/transport failure;
//! - failover to the next ring node, marked `"rerouted": true` in the
//!   v2 response envelope (and an `x-sparseadapt-rerouted` header in
//!   both dialects, since the bare v1 body has nowhere to put it);
//! - *intentional* moves — a key whose pre-drain owner is still
//!   finishing its drain — are marked `"resharded"` instead, and the
//!   two are counted separately in `/metrics`;
//! - `GET /metrics` scrapes every shard and merges the histograms
//!   ([`crate::metrics::merge_snapshots`]) into one cluster document.
//!
//! Job ids are allocated per shard, so `GET /vN/jobs/<id>` fans out to
//! every shard and the first `200` wins; the listing merges all
//! registries with a `"shard"` field injected per entry.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Value};
use sparseadapt::exec::{parallel_map, Pool};
use transmuter::config::MemKind;

use crate::api::{
    code, kernel_name, parse_body, parse_kernel, AddShardRequest, ApiError, ApiVersion,
    DrainStatusDoc, ReweightRequest, ShardDoc, TopologyChangeResponse, TopologyDoc,
};
use crate::http::{read_response, write_request, Request, Response};
use crate::metrics::{merge_snapshots, MetricsSnapshot, QueueGauges, ServerMetrics};
use crate::queue;
use crate::reactor::{self, ReactorStats, Reply, RouteFn};
use crate::server::DrainControl;

/// Virtual nodes per unit of shard weight on the hash ring. More vnodes
/// smooth the key distribution and shrink the fraction of keys that
/// move when the topology changes; 64 keeps the ring a few KiB while
/// holding the imbalance under ~20% for small clusters.
pub const DEFAULT_VNODES: usize = 64;

/// How long a shard gets to accept a proxied connection.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// How long a shard gets to answer a proxied request. Generous: a cold
/// simulate holds the connection for the whole simulation.
const PROXY_READ_TIMEOUT: Duration = Duration::from_secs(120);
/// Transport attempts per shard before failing over to the next ring
/// node.
const ATTEMPTS_PER_SHARD: u32 = 2;
/// Backoff between same-shard retries (doubled on each attempt).
const RETRY_BACKOFF: Duration = Duration::from_millis(40);
/// Health-check cadence and per-probe read timeout.
const HEALTH_PERIOD: Duration = Duration::from_millis(300);
const HEALTH_READ_TIMEOUT: Duration = Duration::from_secs(1);
/// How long a draining shard gets to finish in-flight work before its
/// removal stops waiting for the process to exit.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
/// Grace period between the drained shard closing its listener and the
/// slot leaving the topology. Connect-refused only proves the listener
/// is gone — accepted requests are still being answered for a moment,
/// and observers (and the resharded-marker classification) deserve a
/// stable window in which the shard is visibly `draining`.
const DRAIN_SETTLE: Duration = Duration::from_secs(1);
/// Read timeout for control-plane pushes to shards.
const PUSH_TIMEOUT: Duration = Duration::from_secs(2);
/// Router pool workers. Proxying blocks on shard round-trips, not the
/// CPU, so the router runs far more workers than a shard.
const ROUTER_WORKERS: usize = 16;
/// Router pool queue capacity: requests waiting for a router worker.
const ROUTER_QUEUE_CAP: usize = 1024;

/// 64-bit FNV-1a. Inlined rather than shared with the workload
/// fingerprinting: ring placement is a wire-level contract of its own
/// and must not drift if the simulator's hashing ever changes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Avalanche finalizer (the 64-bit murmur3 fmix). FNV-1a alone mixes
/// short, similar strings ("shard-0/vnode-1", "shard-0/vnode-2")
/// poorly, which clumps vnodes on the ring and blows the rebalance
/// bound; the finalizer spreads them uniformly.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Position of a ring point or key on the u64 ring.
fn ring_hash(bytes: &[u8]) -> u64 {
    mix(fnv1a(bytes))
}

/// Where a routing key lands on the u64 ring. Public so the ring-diff
/// tests (and operators debugging a placement) can check a key against
/// [`MovedRange::contains`] without re-deriving the hash.
pub fn ring_position(key: &str) -> u64 {
    ring_hash(key.as_bytes())
}

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

/// A consistent-hash ring over weighted shards with virtual nodes.
///
/// Shards are keyed by stable `u32` ids — ids are allocated once and
/// never reused, and every vnode position hashes from the id, so a
/// shard's arcs stay put across unrelated topology changes (that is
/// what bounds rebalance cost). Construction is deterministic in the
/// `(id, weight)` entries and `vnodes`: every router (and every test)
/// building a ring over the same topology assigns every key
/// identically, with no coordination.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(position, shard id)` points, sorted by position.
    points: Vec<(u64, u32)>,
    /// Distinct shard ids, in entry order.
    ids: Vec<u32>,
}

impl Ring {
    /// Builds a uniform ring over ids `0..shards`, each with weight 1
    /// (`vnodes` points per shard). `shards` must be at least 1.
    pub fn new(shards: usize, vnodes: usize) -> Ring {
        assert!(shards >= 1, "a ring needs at least one shard");
        let entries: Vec<(u32, f64)> = (0..shards as u32).map(|id| (id, 1.0)).collect();
        Ring::weighted(&entries, vnodes)
    }

    /// Builds a ring over `(id, weight)` entries. A shard gets
    /// `round(weight × vnodes)` virtual nodes (at least 1), so a
    /// weight-2 shard owns about twice the key space of a weight-1
    /// shard. Weights must be positive and finite; ids must be unique.
    pub fn weighted(entries: &[(u32, f64)], vnodes: usize) -> Ring {
        assert!(!entries.is_empty(), "a ring needs at least one shard");
        let vnodes = vnodes.max(1);
        let mut ids: Vec<u32> = Vec::with_capacity(entries.len());
        let mut points = Vec::new();
        for &(id, weight) in entries {
            assert!(
                weight.is_finite() && weight > 0.0,
                "ring weight must be positive and finite, got {weight}"
            );
            assert!(!ids.contains(&id), "duplicate shard id {id} on the ring");
            ids.push(id);
            let count = ((weight * vnodes as f64).round() as usize).max(1);
            for vnode in 0..count {
                let h = ring_hash(format!("shard-{id}/vnode-{vnode}").as_bytes());
                points.push((h, id));
            }
        }
        points.sort_unstable();
        Ring { points, ids }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.ids.len()
    }

    /// The shard ids on the ring, in entry order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The shard owning a ring position: the first point at or after
    /// it, wrapping.
    fn owner_of(&self, h: u64) -> u32 {
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[i % self.points.len()].1
    }

    /// The owning shard for a key.
    pub fn assign(&self, key: &str) -> u32 {
        self.owner_of(ring_hash(key.as_bytes()))
    }

    /// All shards in failover preference order for a key: the owner
    /// first, then successive distinct ring successors. Every shard
    /// appears exactly once.
    pub fn order(&self, key: &str) -> Vec<u32> {
        let h = ring_hash(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut out = Vec::with_capacity(self.ids.len());
        for i in 0..self.points.len() {
            let (_, id) = self.points[(start + i) % self.points.len()];
            if !out.contains(&id) {
                out.push(id);
                if out.len() == self.ids.len() {
                    break;
                }
            }
        }
        out
    }
}

/// One contiguous ring arc whose owner differs between two rings.
/// `start` is exclusive, `end` inclusive (arcs follow ring-point
/// semantics: a point owns the arc *ending* at it), wrapping through
/// `u64::MAX → 0` when `start > end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovedRange {
    /// Arc start, exclusive.
    pub start: u64,
    /// Arc end, inclusive.
    pub end: u64,
    /// The owner in the old ring.
    pub from: u32,
    /// The owner in the new ring.
    pub to: u32,
}

impl MovedRange {
    /// Whether a ring position falls inside this arc.
    pub fn contains(&self, pos: u64) -> bool {
        if self.start == self.end {
            // Degenerate single-bound diff: the arc is the whole ring.
            return true;
        }
        if self.start < self.end {
            pos > self.start && pos <= self.end
        } else {
            pos > self.start || pos <= self.end
        }
    }

    /// Arc length in ring units (the whole ring is `2^64`).
    fn len(&self) -> u128 {
        if self.start == self.end {
            1u128 << 64
        } else {
            u128::from(self.end.wrapping_sub(self.start))
        }
    }
}

/// The exact difference between two rings: which arcs changed owner,
/// and what fraction of the key space that is.
#[derive(Debug, Clone)]
pub struct RingDiff {
    /// Disjoint moved arcs, adjacent same-`(from, to)` arcs merged.
    pub moved: Vec<MovedRange>,
    /// Total moved arc length over the whole ring (`0.0..=1.0`).
    pub moved_fraction: f64,
}

impl RingDiff {
    /// An empty diff (identical rings).
    pub fn empty() -> RingDiff {
        RingDiff {
            moved: Vec::new(),
            moved_fraction: 0.0,
        }
    }
}

/// Computes which key ranges change owner between two rings.
///
/// Every point of either ring bounds an arc; between consecutive
/// bounds neither ring has a point, so each arc has one constant owner
/// per ring — compare the two and keep the arcs that differ. This is
/// exact (not sampled): a key moves between the rings iff its position
/// falls in one of the returned arcs.
pub fn ring_diff(before: &Ring, after: &Ring) -> RingDiff {
    let mut bounds: Vec<u64> = before
        .points
        .iter()
        .chain(after.points.iter())
        .map(|&(p, _)| p)
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let n = bounds.len();
    let mut moved: Vec<MovedRange> = Vec::new();
    let mut moved_len: u128 = 0;
    for k in 0..n {
        let end = bounds[k];
        let start = bounds[(k + n - 1) % n];
        let from = before.owner_of(end);
        let to = after.owner_of(end);
        if from == to {
            continue;
        }
        let range = MovedRange {
            start,
            end,
            from,
            to,
        };
        moved_len += range.len();
        if let Some(last) = moved.last_mut() {
            if last.end == range.start && last.from == from && last.to == to {
                last.end = range.end;
                continue;
            }
        }
        moved.push(range);
    }
    RingDiff {
        moved,
        moved_fraction: moved_len as f64 / (u64::MAX as f64 + 1.0),
    }
}

/// The routing key of a request body: the workload identity
/// (`kernel/matrix/l1_kind`) when the body parses as a simulate-shaped
/// document, so simulate and sweep requests for one workload land on
/// one shard (sharing its memoized workload and hot LRU entries); a
/// content hash otherwise, so even unparseable bodies route
/// deterministically and the shard — not the router — owns rejecting
/// them.
///
/// The identity is built the way a shard resolves the names: the
/// canonical kernel name whatever its case, a missing `l1_kind` as the
/// default one, and an `mtx:` id by the hash it parses to, so every
/// spelling of one workload routes to one shard and simulates there
/// once.
pub fn routing_key(body: &[u8]) -> String {
    workload_identity(body).unwrap_or_else(|| format!("raw/{:016x}", fnv1a(body)))
}

/// The canonical `kernel/matrix/l1_kind` a simulate or sweep body names;
/// `None` when it names no workload a shard would accept.
fn workload_identity(body: &[u8]) -> Option<String> {
    let Value::Obj(fields) = serde_json::parse_value_str(std::str::from_utf8(body).ok()?).ok()?
    else {
        return None;
    };
    let (Value::Str(kernel), Value::Str(matrix)) = (
        serde::obj_get(&fields, "kernel"),
        serde::obj_get(&fields, "matrix"),
    ) else {
        return None;
    };
    let kernel = kernel_name(parse_kernel(kernel).ok()?);
    let l1_kind: Option<MemKind> =
        Deserialize::from_value(serde::obj_get(&fields, "l1_kind")).ok()?;
    let matrix = match matrix.strip_prefix("mtx:") {
        Some(hex) => sparse::mtx::hash_id(u64::from_str_radix(hex, 16).ok()?),
        None => matrix.clone(),
    };
    Some(format!(
        "{kernel}/{matrix}/{:?}",
        l1_kind.unwrap_or_default()
    ))
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

/// A shard's lifecycle state in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardState {
    /// On the active ring, taking new assignments.
    Active,
    /// Removal requested: off the active ring (no new assignments), but
    /// still in the topology while it finishes in-flight work. The
    /// full ring remembers it so moved keys are marked `resharded`, not
    /// `rerouted`.
    Draining,
}

impl ShardState {
    fn as_str(self) -> &'static str {
        match self {
            ShardState::Active => "active",
            ShardState::Draining => "draining",
        }
    }
}

/// One backend shard as the router sees it. Immutable except for the
/// health flag; topology changes build new slots (and new views) rather
/// than mutating in place, so readers never see a half-applied change.
#[derive(Debug)]
struct ShardSlot {
    id: u32,
    addr: SocketAddr,
    weight: f64,
    state: ShardState,
    healthy: AtomicBool,
}

impl ShardSlot {
    /// A fresh slot, optimistically healthy until the first probe says
    /// otherwise (so a burst right after an add is not refused).
    fn new(id: u32, addr: SocketAddr, weight: f64) -> Arc<ShardSlot> {
        Arc::new(ShardSlot {
            id,
            addr,
            weight,
            state: ShardState::Active,
            healthy: AtomicBool::new(true),
        })
    }

    /// A copy with a new weight/state, carrying the health flag's
    /// current value over so a topology change never resets health.
    fn reshaped(&self, weight: f64, state: ShardState) -> Arc<ShardSlot> {
        Arc::new(ShardSlot {
            id: self.id,
            addr: self.addr,
            weight,
            state,
            healthy: AtomicBool::new(self.healthy.load(Ordering::Relaxed)),
        })
    }

    fn doc(&self) -> ShardDoc {
        ShardDoc {
            id: self.id,
            addr: self.addr.to_string(),
            weight: self.weight,
            state: self.state.as_str().to_string(),
            healthy: self.healthy.load(Ordering::Relaxed),
        }
    }
}

/// One immutable snapshot of the cluster topology. The router holds the
/// current view behind an `RwLock<Arc<_>>`; every request clones the
/// `Arc` once and routes against a consistent snapshot while mutations
/// swap in a successor.
#[derive(Debug)]
struct TopologyView {
    /// Monotonic topology version (starts at 1).
    epoch: u64,
    /// Every shard, active and draining. Unchanged shards share their
    /// `Arc` (and health flag) with the previous view.
    shards: Vec<Arc<ShardSlot>>,
    /// Active shards only — where *new* assignments go.
    ring: Ring,
    /// Active + draining shards — the pre-drain intent, used to tell an
    /// intentional reshard move from a health failover.
    full_ring: Ring,
}

impl TopologyView {
    fn slot(&self, id: u32) -> Option<&Arc<ShardSlot>> {
        self.shards.iter().find(|s| s.id == id)
    }

    fn doc(&self) -> TopologyDoc {
        TopologyDoc {
            epoch: self.epoch,
            shards: self.shards.iter().map(|s| s.doc()).collect(),
        }
    }
}

/// Builds a view from slots: the active ring over non-draining shards,
/// the full ring over everything. Callers must keep at least one
/// active shard (the admin handlers enforce it).
fn build_view(epoch: u64, shards: Vec<Arc<ShardSlot>>) -> TopologyView {
    let active: Vec<(u32, f64)> = shards
        .iter()
        .filter(|s| s.state == ShardState::Active)
        .map(|s| (s.id, s.weight))
        .collect();
    let all: Vec<(u32, f64)> = shards.iter().map(|s| (s.id, s.weight)).collect();
    TopologyView {
        epoch,
        ring: Ring::weighted(&active, DEFAULT_VNODES),
        full_ring: Ring::weighted(&all, DEFAULT_VNODES),
        shards,
    }
}

// ---------------------------------------------------------------------------
// Router state
// ---------------------------------------------------------------------------

/// Shared state of a running router.
#[derive(Debug)]
pub struct RouterState {
    /// The current topology; mutations build a successor view and swap
    /// the `Arc` (readers never block on a mutation in progress).
    topology: RwLock<Arc<TopologyView>>,
    /// Serializes topology mutations: the read-check-build-install
    /// sequence of each admin request runs under this lock, so two
    /// concurrent mutations cannot both build from the same parent.
    admin: Mutex<()>,
    /// Next shard id to allocate. Ids are never reused — ring placement
    /// hashes from the id, so a reused id would resurrect a dead
    /// shard's arcs.
    next_id: AtomicU32,
    /// Whether topology *mutations* are accepted (`--allow-admin`).
    /// Reads are always allowed.
    allow_admin: bool,
    /// The router's own request counters/latency histogram (its view of
    /// end-to-end cluster latency, shard time included).
    pub metrics: Arc<ServerMetrics>,
    /// Runs every router route that talks to shards: proxying, fan-out
    /// and topology mutations (which push to every shard).
    pool: Pool,
    rerouted: AtomicU64,
    resharded: AtomicU64,
    /// f64 bits of the last topology change's moved key-space fraction.
    last_moved_bits: AtomicU64,
    record: Option<Mutex<std::fs::File>>,
    started: Instant,
    /// The router's own reactor counters.
    reactor: Arc<ReactorStats>,
    /// Graceful-drain coordination for the router's own listener
    /// (`POST /v2/admin/drain` on the router).
    drain: Arc<DrainControl>,
}

impl RouterState {
    /// The current topology snapshot.
    fn view(&self) -> Arc<TopologyView> {
        Arc::clone(&self.topology.read().expect("topology lock"))
    }

    /// Swaps in a successor view.
    fn install(&self, view: TopologyView) {
        *self.topology.write().expect("topology lock") = Arc::new(view);
    }

    /// Shard addresses, active and draining, in topology order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.view().shards.iter().map(|s| s.addr).collect()
    }

    /// The current topology document (what `GET /v2/admin/topology`
    /// serves).
    pub fn topology_doc(&self) -> TopologyDoc {
        self.view().doc()
    }

    /// The current topology epoch.
    pub fn topology_epoch(&self) -> u64 {
        self.view().epoch
    }

    /// Requests that were answered by a shard other than their ring
    /// owner (unplanned failover).
    pub fn rerouted_total(&self) -> u64 {
        self.rerouted.load(Ordering::Relaxed)
    }

    /// Requests whose owner moved *intentionally* (the pre-change owner
    /// is draining or removed). Counted apart from `rerouted` so a
    /// planned topology change does not read as a failover storm.
    pub fn resharded_total(&self) -> u64 {
        self.resharded.load(Ordering::Relaxed)
    }

    /// Shards whose last health probe succeeded.
    pub fn healthy_shards(&self) -> usize {
        self.view()
            .shards
            .iter()
            .filter(|s| s.healthy.load(Ordering::Relaxed))
            .count()
    }

    /// The router's drain control (`POST /v2/admin/drain` flips it; the
    /// binary waits on it to exit 0).
    pub fn drain_control(&self) -> &Arc<DrainControl> {
        &self.drain
    }

    /// Records a topology change's rebalance cost for `/metrics`.
    fn note_reshard(&self, diff: &RingDiff) {
        self.last_moved_bits
            .store(diff.moved_fraction.to_bits(), Ordering::Relaxed);
    }

    fn last_moved_fraction(&self) -> f64 {
        f64::from_bits(self.last_moved_bits.load(Ordering::Relaxed))
    }

    /// Appends one request to the record log (JSONL, the format
    /// `loadgen --replay` consumes). Relative timestamps let a replay
    /// reproduce the arrival process without caring when the recording
    /// was made.
    fn record(&self, method: &str, target: &str, body: &str) {
        let Some(file) = &self.record else { return };
        let line = serde_json::to_string(&Value::Obj(vec![
            (
                "ts_ms".to_string(),
                Value::UInt(self.started.elapsed().as_millis() as u64),
            ),
            ("method".to_string(), Value::Str(method.to_string())),
            ("target".to_string(), Value::Str(target.to_string())),
            ("body".to_string(), Value::Str(body.to_string())),
        ]))
        .expect("record line serializes");
        let mut f = file.lock().expect("record file lock");
        let _ = writeln!(f, "{line}");
    }
}

/// Boot-time settings of the router.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend shard addresses, in initial ring order (ids `0..n`).
    pub shards: Vec<SocketAddr>,
    /// Per-shard ring weights; empty means every shard weighs 1.0,
    /// otherwise one positive finite weight per shard.
    pub weights: Vec<f64>,
    /// Optional JSONL request log (`loadgen --replay` input).
    pub record: Option<PathBuf>,
    /// Whether `/v2/admin` topology *mutations* are accepted. Off by
    /// default: an exposed router must opt into runtime resharding.
    pub allow_admin: bool,
}

/// A running router; dropping it (or [`RouterHandle::shutdown`]) stops
/// the reactor and the health checker. Shard processes are owned by
/// the caller (see [`spawn_shards`]), not by this handle.
#[derive(Debug)]
pub struct RouterHandle {
    /// The bound address.
    pub addr: SocketAddr,
    /// Shared state, exposed so tests can read counters directly.
    pub state: Arc<RouterState>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// Signals shutdown and joins the router threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.health.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds the router, starts the health checker, pushes the initial
/// topology (epoch 1) to the shards, and returns immediately.
///
/// # Errors
///
/// Propagates bind and record-file-open failures; rejects an empty
/// shard list and malformed weights.
pub fn start_router(config: RouterConfig) -> io::Result<RouterHandle> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one shard",
        ));
    }
    if !config.weights.is_empty() && config.weights.len() != config.shards.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "got {} weights for {} shards",
                config.weights.len(),
                config.shards.len()
            ),
        ));
    }
    if config.weights.iter().any(|w| !(w.is_finite() && *w > 0.0)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "shard weights must be positive and finite",
        ));
    }
    let record = match &config.record {
        Some(path) => Some(Mutex::new(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        )),
        None => None,
    };
    let listener = TcpListener::bind(&config.addr)?;
    // Same backlog resize as `server::start`: the std default of 128
    // collapses under a high-fanout connect burst.
    {
        use std::os::fd::AsRawFd;
        let _ = sysio::listen_backlog(listener.as_raw_fd(), 4096);
    }
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let slots: Vec<Arc<ShardSlot>> = config
        .shards
        .iter()
        .enumerate()
        .map(|(i, &addr)| {
            let weight = config.weights.get(i).copied().unwrap_or(1.0);
            ShardSlot::new(i as u32, addr, weight)
        })
        .collect();
    let drain = Arc::new(DrainControl::new());
    let state = Arc::new(RouterState {
        topology: RwLock::new(Arc::new(build_view(1, slots))),
        admin: Mutex::new(()),
        next_id: AtomicU32::new(config.shards.len() as u32),
        allow_admin: config.allow_admin,
        metrics: Arc::new(ServerMetrics::new()),
        pool: Pool::new(ROUTER_WORKERS, ROUTER_QUEUE_CAP),
        rerouted: AtomicU64::new(0),
        resharded: AtomicU64::new(0),
        last_moved_bits: AtomicU64::new(0.0f64.to_bits()),
        record,
        started: Instant::now(),
        reactor: Arc::new(ReactorStats::new()),
        drain: Arc::clone(&drain),
    });
    let stop = Arc::new(AtomicBool::new(false));

    let route: RouteFn = {
        let state = Arc::clone(&state);
        Arc::new(move |req, reply| route_router(&state, req, reply))
    };
    let drain_idle: Arc<dyn Fn() -> bool + Send + Sync> = {
        let state = Arc::clone(&state);
        Arc::new(move || state.pool.queue_depth() == 0 && state.pool.in_flight() == 0)
    };
    let accept = reactor::spawn(
        listener,
        reactor::Shared {
            route,
            stop: Arc::clone(&stop),
            drain,
            drain_idle,
            stats: Arc::clone(&state.reactor),
            metrics: Arc::clone(&state.metrics),
        },
        reactor::ReactorConfig {
            max_conns: 12288,
            idle_timeout: Duration::from_millis(30_000),
        },
    )?;
    let health = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || health_loop(&state, &stop))
    };
    // Seed every shard with the boot topology so each member reports
    // epoch 1 from the start (best-effort; the next push repairs any
    // shard that was not up yet).
    push_topology(&state);

    Ok(RouterHandle {
        addr,
        state,
        stop,
        accept: Some(accept),
        health: Some(health),
    })
}

fn health_loop(state: &RouterState, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        let view = state.view();
        for shard in &view.shards {
            let up = forward(shard.addr, "GET", "/healthz", None, HEALTH_READ_TIMEOUT)
                .map(|r| r.status == 200)
                .unwrap_or(false);
            shard.healthy.store(up, Ordering::Relaxed);
        }
        std::thread::sleep(HEALTH_PERIOD);
    }
}

/// One client-side HTTP exchange with a shard.
fn forward(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
    read_timeout: Duration,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_read_timeout(Some(read_timeout))?;
    stream.set_write_timeout(Some(CONNECT_TIMEOUT))?;
    let _ = stream.set_nodelay(true);
    write_request(&mut stream, method, target, body)?;
    read_response(&stream)
}

/// Strips hop-by-hop headers a proxied response must not carry twice
/// (the router's writer emits its own `content-length`/`connection`).
fn sanitize(mut resp: Response) -> Response {
    resp.headers
        .retain(|(n, _)| n != "content-length" && n != "connection");
    resp
}

/// Marks a response that was answered somewhere other than the active
/// ring owner's pre-change position: `kind` is `"rerouted"` (unplanned
/// health failover) or `"resharded"` (planned move off a draining
/// shard). Both dialects get an `x-sparseadapt-<kind>` header; the v2
/// envelope additionally gets a `"<kind>": true` field spliced in (the
/// bare v1 body has no envelope to carry it).
fn mark_moved(mut resp: Response, version: ApiVersion, kind: &str) -> Response {
    if version == ApiVersion::V2 {
        if let Ok(text) = std::str::from_utf8(&resp.body) {
            if let Some(rest) = text.trim_start().strip_prefix('{') {
                resp.body = format!("{{\"{kind}\": true,{rest}").into_bytes();
            }
        }
    }
    let header = format!("x-sparseadapt-{kind}");
    resp.with_header(&header, "1")
}

/// Where a matched router route runs.
enum Handler {
    /// Answered on the loop thread: the route reads router state only.
    Loop(Response),
    /// Run on the router's pool: the route talks to shards.
    Pool(fn(&Arc<RouterState>, &Request) -> Response),
}

/// Dispatches one router request. Mirrors [`crate::router::route`]'s
/// label contract so the router's `/metrics` breakdown reads the same
/// way a shard's does.
fn route_router(state: &Arc<RouterState>, req: Request, mut reply: Reply) {
    use Handler::{Loop, Pool};
    let (label, handler) = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("GET /healthz", Loop(router_healthz(state))),
        ("GET", "/metrics") => ("GET /metrics", Pool(|st, _| router_metrics(st))),
        ("GET", "/v2/admin/topology") => {
            ("GET /v2/admin/topology", Loop(admin_topology_get(state)))
        }
        ("POST", "/v2/admin/topology") => ("POST /v2/admin/topology", Pool(admin_reweight)),
        ("POST", "/v2/admin/shards") => ("POST /v2/admin/shards", Pool(admin_add_shard)),
        ("DELETE", path) if path.starts_with("/v2/admin/shards/") => (
            "DELETE /v2/admin/shards/:id",
            Pool(|st, req| admin_remove_shard(st, req, &req.path["/v2/admin/shards/".len()..])),
        ),
        ("POST", "/v2/admin/drain") => ("POST /v2/admin/drain", Loop(router_drain(state))),
        ("GET", "/v1/jobs") => ("GET /v1/jobs", Pool(|st, _| jobs_list(st, ApiVersion::V1))),
        ("GET", "/v2/jobs") => ("GET /v2/jobs", Pool(|st, _| jobs_list(st, ApiVersion::V2))),
        ("GET", path) if path.starts_with("/v1/jobs/") => ("GET /v1/jobs/:id", Pool(jobs_get)),
        ("GET", path) if path.starts_with("/v2/jobs/") => ("GET /v2/jobs/:id", Pool(jobs_get)),
        ("POST", "/v1/simulate") => ("POST /v1/simulate", Pool(proxy_post)),
        ("POST", "/v2/simulate") => ("POST /v2/simulate", Pool(proxy_post)),
        ("POST", "/v1/recommend") => ("POST /v1/recommend", Pool(proxy_post)),
        ("POST", "/v2/recommend") => ("POST /v2/recommend", Pool(proxy_post)),
        ("POST", "/v1/sweep") => ("POST /v1/sweep", Pool(proxy_post)),
        ("POST", "/v2/sweep") => ("POST /v2/sweep", Pool(proxy_post)),
        // Uploads route by body content hash (no kernel/matrix fields
        // to key on); any shard can take one, because registrations
        // spill to the shared cache tier every shard mounts.
        ("POST", "/v2/matrices") => ("POST /v2/matrices", Pool(proxy_post)),
        // Known admin paths answer wrong-method hits with an enveloped
        // 405 (never a 404: the path exists, the verb is wrong).
        (_, "/v2/admin/topology" | "/v2/admin/shards" | "/v2/admin/drain") => {
            ("method_not_allowed", Loop(admin_method_not_allowed()))
        }
        (_, path) if path.starts_with("/v2/admin/shards/") => {
            ("method_not_allowed", Loop(admin_method_not_allowed()))
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/jobs" | "/v1/simulate" | "/v1/recommend" | "/v1/sweep"
            | "/v2/jobs" | "/v2/simulate" | "/v2/recommend" | "/v2/sweep" | "/v2/matrices",
        ) => (
            "method_not_allowed",
            Loop(Response::error(405, "method not allowed for this path")),
        ),
        _ => ("not_found", Loop(Response::error(404, "no such endpoint"))),
    };
    reply.set_route(label);
    match handler {
        Loop(response) => reply.send(response),
        Pool(handler) => {
            let st = Arc::clone(state);
            queue::admit(&state.pool, reply, move |reply| {
                let response = handler(&st, &req);
                reply.send(response);
            });
        }
    }
}

fn router_healthz(state: &RouterState) -> Response {
    let view = state.view();
    Response::json(
        200,
        format!(
            "{{\"ok\": true, \"role\": \"router\", \"shards\": {}, \"healthy\": {}}}",
            view.shards.len(),
            state.healthy_shards()
        ),
    )
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

/// Wraps a success document in the `/v2` envelope (every admin route is
/// v2-only).
fn admin_ok(doc_json: &str) -> Response {
    Response::json(200, ApiVersion::V2.ok_body(doc_json))
}

/// Wraps a structured error in the `/v2` envelope.
fn admin_err(status: u16, err: &ApiError) -> Response {
    Response::json(status, ApiVersion::V2.err_body(err))
}

/// The enveloped 405 every known admin path returns on a wrong verb.
fn admin_method_not_allowed() -> Response {
    admin_err(
        405,
        &ApiError::new(code::METHOD_NOT_ALLOWED, "method not allowed for this path"),
    )
}

/// Refuses topology mutations unless the router opted in.
fn require_admin(state: &RouterState) -> Result<(), Response> {
    if state.allow_admin {
        return Ok(());
    }
    Err(admin_err(
        403,
        &ApiError::new(
            code::ADMIN_DISABLED,
            "router started without --allow-admin; topology is read-only",
        ),
    ))
}

/// Enforces `If-Match: <epoch>` optimistic concurrency when the header
/// is present: a stale epoch gets `409 topology_conflict` so concurrent
/// operators cannot clobber each other's changes.
fn check_if_match(req: &Request, current: u64) -> Option<Response> {
    let raw = req.header("if-match")?;
    match raw.trim().trim_matches('"').parse::<u64>() {
        Err(_) => Some(admin_err(
            400,
            &ApiError::new(code::BAD_REQUEST, "if-match must be a topology epoch"),
        )),
        Ok(want) if want != current => Some(admin_err(
            409,
            &ApiError::new(
                code::TOPOLOGY_CONFLICT,
                format!("topology is at epoch {current}, request expected {want}"),
            ),
        )),
        Ok(_) => None,
    }
}

/// The mutation answer: new topology + rebalance cost.
fn change_response(doc: TopologyDoc, diff: &RingDiff) -> Response {
    let resp = TopologyChangeResponse {
        topology: doc,
        moved_fraction: diff.moved_fraction,
        moved_ranges: diff.moved.len() as u64,
    };
    admin_ok(&serde_json::to_string(&resp).expect("topology change serializes"))
}

/// Best-effort push of the current topology to every shard, so each
/// member's `GET /v2/admin/topology` and `/metrics` epoch track the
/// router's. A shard that is down (or already drained) just misses the
/// push; the next change repeats it.
fn push_topology(state: &Arc<RouterState>) {
    let view = state.view();
    let doc = serde_json::to_string(&view.doc()).expect("topology serializes");
    for slot in &view.shards {
        let _ = forward(
            slot.addr,
            "POST",
            "/v2/admin/topology",
            Some(&doc),
            PUSH_TIMEOUT,
        );
    }
}

/// `GET /v2/admin/topology` (router): the authoritative topology.
fn admin_topology_get(state: &RouterState) -> Response {
    let doc = state.view().doc();
    admin_ok(&serde_json::to_string(&doc).expect("topology serializes"))
}

/// `POST /v2/admin/drain` (router): drain the router's own listener and
/// let the binary exit 0 — the last step of replacing a router.
fn router_drain(state: &RouterState) -> Response {
    let already = state.drain.requested();
    state.drain.request();
    let doc = DrainStatusDoc {
        draining: true,
        already_requested: already,
    };
    admin_ok(&serde_json::to_string(&doc).expect("drain status serializes"))
}

/// `POST /v2/admin/shards` (router): add a running daemon to the ring.
fn admin_add_shard(state: &Arc<RouterState>, req: &Request) -> Response {
    if let Err(resp) = require_admin(state) {
        return resp;
    }
    let _serial = state.admin.lock().expect("admin lock");
    let view = state.view();
    if let Some(conflict) = check_if_match(req, view.epoch) {
        return conflict;
    }
    let parsed: AddShardRequest =
        match parse_body(&req.body, ApiVersion::V2, AddShardRequest::FIELDS) {
            Ok(p) => p,
            Err(e) => return admin_err(400, &e),
        };
    let Ok(addr) = parsed.addr.parse::<SocketAddr>() else {
        return admin_err(
            400,
            &ApiError::new(code::BAD_REQUEST, "addr must be a host:port socket address"),
        );
    };
    let weight = parsed.weight.unwrap_or(1.0);
    if !(weight.is_finite() && weight > 0.0) {
        return admin_err(
            400,
            &ApiError::new(code::BAD_REQUEST, "weight must be positive and finite"),
        );
    }
    if view.shards.iter().any(|s| s.addr == addr) {
        return admin_err(
            400,
            &ApiError::new(
                code::BAD_REQUEST,
                format!("shard {addr} is already in the topology"),
            ),
        );
    }
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    let mut shards = view.shards.clone();
    shards.push(ShardSlot::new(id, addr, weight));
    let next = build_view(view.epoch + 1, shards);
    let diff = ring_diff(&view.ring, &next.ring);
    state.note_reshard(&diff);
    let doc = next.doc();
    state.install(next);
    push_topology(state);
    change_response(doc, &diff)
}

/// `DELETE /v2/admin/shards/{id}` (router): drain a shard out of the
/// topology. The shard leaves the active ring immediately (new
/// assignments move, marked `resharded`), then a background worker
/// drains it via its own `/v2/admin/drain`, waits for the process to
/// finish in-flight work and exit, and drops it from the topology.
/// Idempotent: deleting an already-draining shard reports the current
/// topology with nothing moved.
fn admin_remove_shard(state: &Arc<RouterState>, req: &Request, id_str: &str) -> Response {
    if let Err(resp) = require_admin(state) {
        return resp;
    }
    let _serial = state.admin.lock().expect("admin lock");
    let view = state.view();
    if let Some(conflict) = check_if_match(req, view.epoch) {
        return conflict;
    }
    let Ok(id) = id_str.parse::<u32>() else {
        return admin_err(
            400,
            &ApiError::new(code::BAD_REQUEST, "shard id must be an integer"),
        );
    };
    let Some(slot) = view.slot(id) else {
        return admin_err(
            404,
            &ApiError::new(code::NOT_FOUND, format!("no shard {id} in the topology")),
        );
    };
    if slot.state == ShardState::Draining {
        return change_response(view.doc(), &RingDiff::empty());
    }
    let active = view
        .shards
        .iter()
        .filter(|s| s.state == ShardState::Active)
        .count();
    if active <= 1 {
        return admin_err(
            400,
            &ApiError::new(
                code::BAD_REQUEST,
                "cannot remove the last active shard; add a replacement first",
            ),
        );
    }
    let addr = slot.addr;
    let shards: Vec<Arc<ShardSlot>> = view
        .shards
        .iter()
        .map(|s| {
            if s.id == id {
                s.reshaped(s.weight, ShardState::Draining)
            } else {
                Arc::clone(s)
            }
        })
        .collect();
    let next = build_view(view.epoch + 1, shards);
    let diff = ring_diff(&view.ring, &next.ring);
    state.note_reshard(&diff);
    let doc = next.doc();
    state.install(next);
    push_topology(state);
    let worker_state = Arc::clone(state);
    std::thread::Builder::new()
        .name(format!("drain-shard-{id}"))
        .spawn(move || drain_and_remove(&worker_state, id, addr))
        .expect("spawn drain worker");
    change_response(doc, &diff)
}

/// Drains a removed shard to completion, then drops it from the
/// topology: ask the daemon to drain gracefully (it stops accepting,
/// finishes in-flight work, and exits 0 — the graceful-drain
/// machinery), poll `/healthz` until the listener is gone (connect
/// refused) or [`DRAIN_DEADLINE`] passes, wait out [`DRAIN_SETTLE`] so
/// already-accepted requests finish answering, then install a successor
/// view without the shard.
fn drain_and_remove(state: &Arc<RouterState>, id: u32, addr: SocketAddr) {
    let _ = forward(addr, "POST", "/v2/admin/drain", Some("{}"), PUSH_TIMEOUT);
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while Instant::now() < deadline {
        if forward(addr, "GET", "/healthz", None, HEALTH_READ_TIMEOUT).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    std::thread::sleep(DRAIN_SETTLE);
    let _serial = state.admin.lock().expect("admin lock");
    let view = state.view();
    if view.slot(id).is_none() {
        return;
    }
    let shards: Vec<Arc<ShardSlot>> = view.shards.iter().filter(|s| s.id != id).cloned().collect();
    if shards.iter().all(|s| s.state != ShardState::Active) {
        // Unreachable by construction (removal refuses the last active
        // shard), but never build a view with an empty active ring.
        return;
    }
    state.install(build_view(view.epoch + 1, shards));
    push_topology(state);
}

/// `POST /v2/admin/topology` (router): reweight active shards. Only the
/// named shards change; ring placement keys on ids, so only the arcs
/// the weight change gains or loses move owners.
fn admin_reweight(state: &Arc<RouterState>, req: &Request) -> Response {
    if let Err(resp) = require_admin(state) {
        return resp;
    }
    let _serial = state.admin.lock().expect("admin lock");
    let view = state.view();
    if let Some(conflict) = check_if_match(req, view.epoch) {
        return conflict;
    }
    let parsed: ReweightRequest =
        match parse_body(&req.body, ApiVersion::V2, ReweightRequest::FIELDS) {
            Ok(p) => p,
            Err(e) => return admin_err(400, &e),
        };
    if parsed.shards.is_empty() {
        return admin_err(
            400,
            &ApiError::new(code::BAD_REQUEST, "shards must name at least one shard"),
        );
    }
    for entry in &parsed.shards {
        let Some(slot) = view.slot(entry.id) else {
            return admin_err(
                404,
                &ApiError::new(
                    code::NOT_FOUND,
                    format!("no shard {} in the topology", entry.id),
                ),
            );
        };
        if slot.state != ShardState::Active {
            return admin_err(
                400,
                &ApiError::new(
                    code::BAD_REQUEST,
                    format!("shard {} is draining and cannot be reweighted", entry.id),
                ),
            );
        }
        if !(entry.weight.is_finite() && entry.weight > 0.0) {
            return admin_err(
                400,
                &ApiError::new(code::BAD_REQUEST, "weight must be positive and finite"),
            );
        }
    }
    let shards: Vec<Arc<ShardSlot>> = view
        .shards
        .iter()
        .map(|s| match parsed.shards.iter().find(|e| e.id == s.id) {
            Some(e) => s.reshaped(e.weight, s.state),
            None => Arc::clone(s),
        })
        .collect();
    let next = build_view(view.epoch + 1, shards);
    let diff = ring_diff(&view.ring, &next.ring);
    state.note_reshard(&diff);
    let doc = next.doc();
    state.install(next);
    push_topology(state);
    change_response(doc, &diff)
}

// ---------------------------------------------------------------------------
// Data-plane proxying
// ---------------------------------------------------------------------------

/// Forwards a POST to its ring owner, with bounded retry on transport
/// failure and failover to successive ring nodes. Shard-produced HTTP
/// errors (400/429/…) are *not* failed over: they are deterministic
/// answers, and retrying them elsewhere would just double the load.
///
/// Two distinct "not the usual owner" outcomes are marked apart:
/// - the active owner answered, but a draining shard used to own the
///   key → `resharded` (planned move; the drain is working as designed);
/// - some other shard answered because the owner was unreachable →
///   `rerouted` (unplanned failover).
fn proxy_post(state: &Arc<RouterState>, req: &Request) -> Response {
    let body = String::from_utf8_lossy(&req.body).into_owned();
    state.record(&req.method, &req.path, &body);
    let version = ApiVersion::of_path(&req.path);
    let view = state.view();
    let key = routing_key(&req.body);
    let order = view.ring.order(&key);
    let owner = order[0];
    // Who would own the key if draining shards were still active: when
    // that differs from the active owner, the move is intentional.
    let intended = view.full_ring.assign(&key);
    let slots: Vec<&Arc<ShardSlot>> = order.iter().filter_map(|&id| view.slot(id)).collect();
    // Healthy shards first, but never refuse outright on stale health
    // state: an unhealthy-marked shard is still attempted last.
    let (up, down): (Vec<&Arc<ShardSlot>>, Vec<&Arc<ShardSlot>>) = slots
        .iter()
        .partition(|s| s.healthy.load(Ordering::Relaxed));
    for slot in up.into_iter().chain(down) {
        for attempt in 0..ATTEMPTS_PER_SHARD {
            if attempt > 0 {
                std::thread::sleep(RETRY_BACKOFF * attempt);
            }
            match forward(
                slot.addr,
                &req.method,
                &req.path,
                Some(&body),
                PROXY_READ_TIMEOUT,
            ) {
                Ok(resp) => {
                    slot.healthy.store(true, Ordering::Relaxed);
                    let resp = sanitize(resp);
                    if slot.id != owner {
                        state.rerouted.fetch_add(1, Ordering::Relaxed);
                        return mark_moved(resp, version, "rerouted");
                    }
                    if owner != intended {
                        state.resharded.fetch_add(1, Ordering::Relaxed);
                        return mark_moved(resp, version, "resharded");
                    }
                    return resp;
                }
                Err(_) => slot.healthy.store(false, Ordering::Relaxed),
            }
        }
    }
    let err = ApiError::new(
        code::SHARD_UNAVAILABLE,
        "no shard reachable for this request",
    )
    .with_retry_after_ms(1000);
    version.error_response(503, &err)
}

/// Fans a `GET` out to every shard in parallel (reusing the exec
/// layer's work distribution) and returns the per-shard slot/response
/// pairs; `None` for shards that failed transport.
fn fan_out_get(view: &TopologyView, target: &str) -> Vec<(Arc<ShardSlot>, Option<Response>)> {
    let n = view.shards.len();
    let responses = parallel_map(n, n, |i| {
        forward(view.shards[i].addr, "GET", target, None, PROXY_READ_TIMEOUT).ok()
    });
    view.shards.iter().cloned().zip(responses).collect()
}

/// `GET /vN/jobs/<id>`: ids are per-shard, so ask everyone; the first
/// shard that knows the id answers.
fn jobs_get(state: &Arc<RouterState>, req: &Request) -> Response {
    let version = ApiVersion::of_path(&req.path);
    let view = state.view();
    for (_, resp) in fan_out_get(&view, &req.path) {
        if let Some(resp) = resp.filter(|r| r.status == 200) {
            return sanitize(resp);
        }
    }
    let err = ApiError::new(code::NOT_FOUND, "no shard knows this job id");
    Response::json(404, version.err_body(&err))
}

/// `GET /vN/jobs`: merge every shard's registry, tagging each entry
/// with its shard id (ids alone are ambiguous cluster-wide).
fn jobs_list(state: &Arc<RouterState>, version: ApiVersion) -> Response {
    // Shards are always asked in the bare v1 dialect; the router wraps
    // the merged document for the client's dialect.
    let view = state.view();
    let mut merged: Vec<Value> = Vec::new();
    for (slot, resp) in fan_out_get(&view, "/v1/jobs") {
        let Some(resp) = resp.filter(|r| r.status == 200) else {
            continue;
        };
        let Ok(text) = std::str::from_utf8(&resp.body) else {
            continue;
        };
        let Ok(Value::Obj(fields)) = serde_json::parse_value_str(text) else {
            continue;
        };
        if let Some(jobs) = serde::obj_get(&fields, "jobs").as_arr() {
            for job in jobs {
                let mut entry = match job {
                    Value::Obj(pairs) => pairs.clone(),
                    other => vec![("job".to_string(), other.clone())],
                };
                entry.push(("shard".to_string(), Value::UInt(u64::from(slot.id))));
                merged.push(Value::Obj(entry));
            }
        }
    }
    let doc = serde_json::to_string(&Value::Obj(vec![("jobs".to_string(), Value::Arr(merged))]))
        .expect("merged job list serializes");
    Response::json(200, version.ok_body(&doc))
}

/// `GET /metrics`: scrape every shard, merge the histograms, and report
/// the router's own counters alongside the per-shard documents.
fn router_metrics(state: &Arc<RouterState>) -> Response {
    let view = state.view();
    let scraped = fan_out_get(&view, "/metrics");
    let mut shard_docs: Vec<String> = Vec::with_capacity(scraped.len());
    let mut snaps: Vec<MetricsSnapshot> = Vec::with_capacity(scraped.len());
    for (slot, resp) in scraped {
        let body = resp
            .filter(|r| r.status == 200)
            .and_then(|r| String::from_utf8(r.body).ok());
        let parsed = body.as_deref().and_then(|b| serde_json::from_str(b).ok());
        let head = format!(
            "{{\"id\": {}, \"addr\": \"{}\", \"weight\": {}, \"state\": \"{}\", \"healthy\": {}",
            slot.id,
            slot.addr,
            slot.weight,
            slot.state.as_str(),
            slot.healthy.load(Ordering::Relaxed),
        );
        match (&body, &parsed) {
            (Some(b), Some(_)) => shard_docs.push(format!("{head}, \"metrics\": {b}}}")),
            _ => shard_docs.push(format!("{head}, \"metrics\": null}}")),
        }
        if let Some(snap) = parsed {
            snaps.push(snap);
        }
    }
    let merged_doc = merge_snapshots(&snaps)
        .map(|m| serde_json::to_string(&m).expect("merged snapshot serializes"))
        .unwrap_or_else(|| "null".to_string());
    let mut own = state.metrics.snapshot(
        QueueGauges {
            queue_depth: state.pool.queue_depth(),
            in_flight: state.pool.in_flight(),
            queue_cap: state.pool.queue_cap(),
            workers: state.pool.workers(),
        },
        sparseadapt::trace_cache::CacheStats::default(),
        crate::answer_memo::AnswerMemoStats::default(),
        state.reactor.snapshot(),
    );
    own.topology_epoch = view.epoch;
    let own_doc = serde_json::to_string(&own).expect("router snapshot serializes");
    Response::json(
        200,
        format!(
            "{{\"role\": \"router\", \"shard_count\": {}, \"healthy_shards\": {}, \
             \"topology_epoch\": {}, \"rerouted_total\": {}, \"resharded_total\": {}, \
             \"last_reshard_moved_fraction\": {}, \"router\": {own_doc}, \
             \"merged\": {merged_doc}, \"shards\": [{}]}}",
            view.shards.len(),
            state.healthy_shards(),
            view.epoch,
            state.rerouted_total(),
            state.resharded_total(),
            state.last_moved_fraction(),
            shard_docs.join(", "),
        ),
    )
}

// ---------------------------------------------------------------------------
// Shard process spawning
// ---------------------------------------------------------------------------

/// Settings for spawning backend shard processes.
#[derive(Debug, Clone)]
pub struct ShardSpawn {
    /// Path to the `serve` binary (usually `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Number of shards.
    pub count: usize,
    /// Worker threads per shard (0 = per-shard default).
    pub workers: usize,
    /// Admission queue capacity per shard.
    pub queue_cap: usize,
    /// Shared on-disk trace-cache tier, mounted by every shard.
    pub cache_dir: Option<PathBuf>,
    /// Per-shard in-memory cache cap, bytes.
    pub cache_mem_cap: Option<usize>,
    /// Directory for the address rendezvous files.
    pub run_dir: PathBuf,
    /// Enable shard-to-shard trace fetch-on-miss on every shard.
    pub peer_fetch: bool,
    /// Per-fetch wall-clock budget forwarded to every shard, ms.
    pub peer_fetch_budget_ms: u64,
}

/// A spawned shard process; killed (and reaped) on drop.
#[derive(Debug)]
pub struct ShardChild {
    /// The shard's bound address.
    pub addr: SocketAddr,
    child: std::process::Child,
}

impl ShardChild {
    /// Kills the shard process immediately (failover testing).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Whether the process has exited (a drained daemon exits 0 on its
    /// own; reaped here without blocking).
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }
}

impl Drop for ShardChild {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns `count` shard daemons on ephemeral ports and waits for each
/// to publish its bound address via `--addr-file`.
///
/// # Errors
///
/// Fails if a child cannot be spawned or does not publish its address
/// within the boot timeout (the children spawned so far are killed by
/// their `Drop`).
pub fn spawn_shards(spawn: &ShardSpawn) -> io::Result<Vec<ShardChild>> {
    std::fs::create_dir_all(&spawn.run_dir)?;
    let mut children = Vec::with_capacity(spawn.count);
    for i in 0..spawn.count {
        let addr_file = spawn.run_dir.join(format!("shard-{i}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let mut cmd = std::process::Command::new(&spawn.exe);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--workers")
            .arg(spawn.workers.to_string())
            .arg("--queue-cap")
            .arg(spawn.queue_cap.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if let Some(dir) = &spawn.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        if let Some(cap) = spawn.cache_mem_cap {
            cmd.arg("--cache-mem-cap").arg(cap.to_string());
        }
        if spawn.peer_fetch {
            cmd.arg("--peer-fetch")
                .arg("--peer-fetch-budget-ms")
                .arg(spawn.peer_fetch_budget_ms.to_string());
        }
        let child = cmd.spawn()?;
        let addr = wait_for_addr(&addr_file, Duration::from_secs(10))?;
        children.push(ShardChild { addr, child });
    }
    Ok(children)
}

/// Polls an address rendezvous file until the shard publishes its bound
/// address (written atomically, so a read never sees a partial write).
fn wait_for_addr(path: &Path, timeout: Duration) -> io::Result<SocketAddr> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                return Ok(addr);
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("shard did not publish its address at {}", path.display()),
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("spmspm/R{:02}/Csr{i}", i % 40))
            .collect()
    }

    #[test]
    fn assignment_is_deterministic_across_ring_instances() {
        let a = Ring::new(3, DEFAULT_VNODES);
        let b = Ring::new(3, DEFAULT_VNODES);
        for key in keys(500) {
            assert_eq!(a.assign(&key), b.assign(&key));
            assert_eq!(a.order(&key), b.order(&key));
        }
    }

    #[test]
    fn weighted_construction_is_deterministic_and_id_keyed() {
        let entries = [(0u32, 1.0), (7, 2.5), (42, 0.5)];
        let a = Ring::weighted(&entries, DEFAULT_VNODES);
        let b = Ring::weighted(&entries, DEFAULT_VNODES);
        assert_eq!(a.ids(), &[0, 7, 42]);
        for key in keys(500) {
            assert_eq!(a.assign(&key), b.assign(&key));
            assert_eq!(a.order(&key), b.order(&key));
            assert!(entries.iter().any(|&(id, _)| id == a.assign(&key)));
        }
    }

    #[test]
    fn uniform_weighted_ring_matches_the_unweighted_constructor() {
        // `Ring::new` is the weight-1.0 special case; the vnode labels
        // (and therefore every assignment) must be identical, or a
        // weighted upgrade would silently reshuffle existing clusters.
        let plain = Ring::new(4, DEFAULT_VNODES);
        let weighted = Ring::weighted(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], DEFAULT_VNODES);
        for key in keys(500) {
            assert_eq!(plain.assign(&key), weighted.assign(&key));
        }
    }

    #[test]
    fn order_covers_every_shard_once_starting_with_the_owner() {
        let ring = Ring::new(5, DEFAULT_VNODES);
        for key in keys(100) {
            let order = ring.order(&key);
            assert_eq!(order[0], ring.assign(&key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn every_shard_owns_a_reasonable_share() {
        let ring = Ring::new(3, DEFAULT_VNODES);
        let mut counts = [0usize; 3];
        let all = keys(2000);
        for key in &all {
            counts[ring.assign(key) as usize] += 1;
        }
        for (shard, &n) in counts.iter().enumerate() {
            let share = n as f64 / all.len() as f64;
            assert!(
                (0.15..=0.55).contains(&share),
                "shard {shard} owns {share:.2} of keys"
            );
        }
    }

    #[test]
    fn weights_shift_key_shares_proportionally() {
        // Weights 1:1:2 → the heavy shard should own roughly half.
        let ring = Ring::weighted(&[(0, 1.0), (1, 1.0), (2, 2.0)], DEFAULT_VNODES);
        let all = keys(4000);
        let mut counts = [0usize; 3];
        for key in &all {
            counts[ring.assign(key) as usize] += 1;
        }
        let heavy = counts[2] as f64 / all.len() as f64;
        assert!(
            (0.35..=0.65).contains(&heavy),
            "weight-2 shard owns {heavy:.2}, expected ~0.5"
        );
        for (shard, &n) in counts.iter().take(2).enumerate() {
            let share = n as f64 / all.len() as f64;
            assert!(
                (0.10..=0.40).contains(&share),
                "weight-1 shard {shard} owns {share:.2}, expected ~0.25"
            );
        }
    }

    #[test]
    fn adding_a_shard_moves_a_bounded_fraction_of_keys() {
        let before = Ring::new(3, DEFAULT_VNODES);
        let after = Ring::new(4, DEFAULT_VNODES);
        let all = keys(2000);
        let moved = all
            .iter()
            .filter(|k| before.assign(k) != after.assign(k))
            .count();
        let fraction = moved as f64 / all.len() as f64;
        // Ideal is 1/4; vnode granularity wobbles around it but must
        // stay far below the ~2/3 a naive `hash % n` reshuffle causes.
        assert!(
            fraction < 0.45,
            "adding a shard moved {fraction:.2} of keys"
        );
        assert!(fraction > 0.05, "suspiciously few keys moved: {fraction}");
    }

    #[test]
    fn adding_a_shard_only_steals_keys_for_the_new_shard() {
        // The consistent-hashing invariant, exactly: a key either keeps
        // its owner or moves TO the added shard — no third party ever
        // gains or loses a key it would not otherwise touch.
        let before = Ring::weighted(&[(0, 1.0), (1, 2.0), (2, 1.0)], DEFAULT_VNODES);
        let after = Ring::weighted(&[(0, 1.0), (1, 2.0), (2, 1.0), (9, 1.5)], DEFAULT_VNODES);
        let all = keys(4000);
        let mut moved = 0usize;
        for key in &all {
            let b = before.assign(key);
            let a = after.assign(key);
            if b != a {
                assert_eq!(a, 9, "key {key} moved to {a}, not the added shard");
                moved += 1;
            }
        }
        // Rebalance bound: the new shard's weight share (1.5 / 5.5), a
        // tolerance for vnode granularity on top.
        let fraction = moved as f64 / all.len() as f64;
        let share = 1.5 / 5.5;
        assert!(
            fraction <= share + 0.10,
            "adding a weight-1.5 shard moved {fraction:.3}, share bound {share:.3}"
        );
    }

    #[test]
    fn removing_a_shard_moves_only_its_own_keys() {
        let before = Ring::weighted(&[(0, 1.0), (1, 1.0), (2, 2.0)], DEFAULT_VNODES);
        let after = Ring::weighted(&[(0, 1.0), (2, 2.0)], DEFAULT_VNODES);
        for key in keys(4000) {
            let b = before.assign(&key);
            let a = after.assign(&key);
            if b != a {
                assert_eq!(b, 1, "key {key} moved off surviving shard {b}");
            }
            if b != 1 {
                assert_eq!(a, b, "key {key} on shard {b} should not move");
            }
        }
    }

    #[test]
    fn upweighting_moves_keys_only_toward_the_upweighted_shard() {
        let before = Ring::weighted(&[(0, 1.0), (1, 1.0), (2, 1.0)], DEFAULT_VNODES);
        let after = Ring::weighted(&[(0, 1.0), (1, 3.0), (2, 1.0)], DEFAULT_VNODES);
        for key in keys(4000) {
            let b = before.assign(&key);
            let a = after.assign(&key);
            if b != a {
                assert_eq!(a, 1, "key {key} moved to {a}, not the upweighted shard");
            }
        }
    }

    #[test]
    fn ring_diff_is_exact_over_keys() {
        // A key changes owner iff its position falls in a moved range,
        // and the range's from/to agree with the rings. This is the
        // "only moved key ranges change owners" proof the control
        // plane's moved_fraction reporting rests on.
        let before = Ring::weighted(&[(0, 1.0), (1, 1.0), (2, 1.0)], DEFAULT_VNODES);
        let after = Ring::weighted(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], DEFAULT_VNODES);
        let diff = ring_diff(&before, &after);
        assert!(!diff.moved.is_empty());
        assert!(diff.moved_fraction > 0.0 && diff.moved_fraction < 0.45);
        for key in keys(4000) {
            let pos = ring_position(&key);
            let b = before.assign(&key);
            let a = after.assign(&key);
            let hits: Vec<&MovedRange> = diff.moved.iter().filter(|r| r.contains(pos)).collect();
            if b == a {
                assert!(hits.is_empty(), "unmoved key {key} inside a moved range");
            } else {
                assert_eq!(hits.len(), 1, "moved key {key} in {} ranges", hits.len());
                assert_eq!(hits[0].from, b);
                assert_eq!(hits[0].to, a);
            }
        }
    }

    #[test]
    fn ring_diff_ranges_are_disjoint() {
        let before = Ring::weighted(&[(0, 1.0), (1, 2.0), (2, 1.0)], DEFAULT_VNODES);
        let after = Ring::weighted(&[(0, 1.5), (1, 1.0), (2, 1.0), (7, 1.0)], DEFAULT_VNODES);
        let diff = ring_diff(&before, &after);
        assert!(diff.moved.len() >= 2);
        // Every arc endpoint lies in exactly its own arc; sampling each
        // arc's end position against all others proves disjointness.
        for (i, r) in diff.moved.iter().enumerate() {
            for (j, other) in diff.moved.iter().enumerate() {
                if i != j {
                    assert!(
                        !other.contains(r.end),
                        "range {j} overlaps range {i} at {:#x}",
                        r.end
                    );
                }
            }
        }
    }

    #[test]
    fn ring_diff_add_remove_reweight_bound_moved_fraction() {
        let base = Ring::weighted(&[(0, 1.0), (1, 1.0), (2, 1.0)], DEFAULT_VNODES);
        // Add: bounded by the new shard's share of the new total.
        let add = ring_diff(
            &base,
            &Ring::weighted(&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], DEFAULT_VNODES),
        );
        assert!(add.moved_fraction <= 0.25 + 0.10, "{}", add.moved_fraction);
        // Remove: bounded by the removed shard's old share.
        let remove = ring_diff(
            &base,
            &Ring::weighted(&[(0, 1.0), (1, 1.0)], DEFAULT_VNODES),
        );
        assert!(
            remove.moved_fraction <= 1.0 / 3.0 + 0.10,
            "{}",
            remove.moved_fraction
        );
        // Reweight: bounded by the share delta the weight change asks
        // for (1→2 of 4 total ≈ +0.25).
        let reweight = ring_diff(
            &base,
            &Ring::weighted(&[(0, 1.0), (1, 2.0), (2, 1.0)], DEFAULT_VNODES),
        );
        assert!(
            reweight.moved_fraction <= 0.25 + 0.10,
            "{}",
            reweight.moved_fraction
        );
        // Identity: nothing moves.
        let same = ring_diff(&base, &base.clone());
        assert!(same.moved.is_empty());
        assert_eq!(same.moved_fraction, 0.0);
    }

    #[test]
    fn routing_key_prefers_workload_identity() {
        let body = br#"{"kernel": "spmspm", "matrix": "R01", "config_name": "baseline"}"#;
        assert_eq!(routing_key(body), "spmspm/R01/Cache");
        let with_l1 = br#"{"kernel": "spmspv", "matrix": "R02", "l1_kind": "Spm"}"#;
        assert_eq!(routing_key(with_l1), "spmspv/R02/Spm");
        // A sweep for the same workload routes to the same shard.
        let sweep = br#"{"kernel": "spmspm", "matrix": "R01", "sampled": 16}"#;
        assert_eq!(routing_key(sweep), "spmspm/R01/Cache");
    }

    #[test]
    fn every_spelling_of_one_workload_shares_a_routing_key() {
        let same = [
            &br#"{"kernel": "SpMSpV", "matrix": "R10"}"#[..],
            br#"{"kernel": "spmspv", "matrix": "R10", "l1_kind": "Cache"}"#,
            br#"{"kernel": "SPMSPV", "matrix": "R10", "l1_kind": null, "sampled": 4}"#,
        ];
        for body in same {
            assert_eq!(routing_key(body), "spmspv/R10/Cache");
        }
        let hex = "00000000deadbeef";
        let upper = routing_key(
            format!(
                r#"{{"kernel": "spmv", "matrix": "mtx:{}"}}"#,
                hex.to_uppercase()
            )
            .as_bytes(),
        );
        let lower =
            routing_key(format!(r#"{{"kernel": "SpMV", "matrix": "mtx:{hex}"}}"#).as_bytes());
        assert_eq!(upper, lower);
        assert_eq!(lower, format!("spmv/mtx:{hex}/Cache"));
        // Names a shard would reject route by content hash.
        for bad in [
            &br#"{"kernel": "nope", "matrix": "R10"}"#[..],
            br#"{"kernel": "spmv", "matrix": "mtx:not-hex"}"#,
            br#"{"kernel": "spmv", "matrix": "R10", "l1_kind": "Spad"}"#,
        ] {
            assert!(
                routing_key(bad).starts_with("raw/"),
                "{:?}",
                std::str::from_utf8(bad)
            );
        }
    }

    #[test]
    fn unparseable_bodies_fall_back_to_a_content_hash() {
        let a = routing_key(b"not json");
        let b = routing_key(b"not json");
        let c = routing_key(b"different");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("raw/"));
    }

    #[test]
    fn moved_markers_splice_into_the_v2_envelope() {
        let resp = Response::json(200, "{\"v\": 2, \"data\": {\"x\": 1}}");
        let marked = mark_moved(resp, ApiVersion::V2, "rerouted");
        let body = std::str::from_utf8(&marked.body).unwrap();
        assert!(body.starts_with("{\"rerouted\": true,"));
        assert!(body.contains("\"data\""));
        assert_eq!(marked.header("x-sparseadapt-rerouted"), Some("1"));
        // The planned-move marker uses its own vocabulary end to end.
        let resharded = mark_moved(
            Response::json(200, "{\"v\": 2, \"data\": {\"x\": 1}}"),
            ApiVersion::V2,
            "resharded",
        );
        let body = std::str::from_utf8(&resharded.body).unwrap();
        assert!(body.starts_with("{\"resharded\": true,"));
        assert_eq!(resharded.header("x-sparseadapt-resharded"), Some("1"));
        assert_eq!(resharded.header("x-sparseadapt-rerouted"), None);
        // v1 has no envelope: body untouched, header still present.
        let v1 = mark_moved(
            Response::json(200, "{\"x\": 1}"),
            ApiVersion::V1,
            "rerouted",
        );
        assert_eq!(v1.body, b"{\"x\": 1}");
        assert_eq!(v1.header("x-sparseadapt-rerouted"), Some("1"));
    }
}
