//! The discrete-event machine: GPEs, crossbars, the cache hierarchy and
//! the epoch/reconfiguration loop.
//!
//! Each GPE owns a local clock. Compute ops advance it directly; memory
//! ops route through the L1/L2/HBM hierarchy, where shared banks
//! serialise requesters through busy-until timestamps. GPEs are processed
//! in global time order via a binary heap, so shared state is always
//! touched in non-decreasing time.
//!
//! **Epochs.** Every GPE pauses after executing `epoch_ops` FP operations
//! (including loads/stores). When all active GPEs have paused, the
//! machine synchronises them to the latest local time, snapshots and
//! resets the performance counters, and gives the [`Controller`] a chance
//! to reconfigure (paying the §3.4 costs). Quota-based boundaries make an
//! epoch's op content *identical across configurations*, which is what
//! lets the evaluation stitch per-config epoch traces together
//! (DESIGN.md §2).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::cache::{BankPages, CacheBank, Page};
use crate::config::{MachineSpec, MemKind, SharingMode, TransmuterConfig};
use crate::counters::{RawEpochCounters, Telemetry};
use crate::hbm::Hbm;
use crate::metrics::Metrics;
use crate::power::{EnergyTable, PowerModel};
use crate::prefetch::{PrefetchBuf, PrefetcherState, StridePrefetcher};
use crate::reconfig::{self, ReconfigCost};
use crate::workload::{Op, OpStream, OpTag, Region, Workload};

/// L2 hit latency in core cycles (beyond crossbar arbitration).
pub(crate) const L2_HIT_CYCLES: u64 = 4;

/// Decides, at each epoch boundary, whether to reconfigure.
pub trait Controller {
    /// Called with the record of the epoch that just ended (telemetry,
    /// metrics, active configuration); returns the configuration for the
    /// next epoch (or `None` to keep the current one).
    fn on_epoch(&mut self, record: &EpochRecord) -> Option<TransmuterConfig>;
}

/// A controller that never reconfigures (static runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticController;

impl Controller for StaticController {
    fn on_epoch(&mut self, _: &EpochRecord) -> Option<TransmuterConfig> {
        None
    }
}

/// Everything recorded about one epoch of execution.
///
/// Serializable so sweep traces can live in the on-disk trace cache.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpochRecord {
    /// Epoch index within the run.
    pub index: usize,
    /// Configuration active during this epoch.
    pub config: TransmuterConfig,
    /// Time/energy/FLOPs of the epoch itself (excluding reconfiguration).
    pub metrics: Metrics,
    /// FP ops in the epoch currency (FP + loads + stores).
    pub fp_ops: u64,
    /// Normalised counter snapshot at the epoch's end.
    pub telemetry: Telemetry,
    /// Stall time paid reconfiguring *into* this epoch's config.
    pub reconfig_time_s: f64,
    /// Energy paid reconfiguring *into* this epoch's config.
    pub reconfig_energy_j: f64,
}

/// The outcome of running a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub name: String,
    /// End-to-end wall-clock time in seconds (including reconfigurations).
    pub time_s: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Pure floating-point operations executed.
    pub flops: u64,
    /// FP ops in the epoch currency (FP + loads + stores).
    pub fp_ops: u64,
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
}

impl RunResult {
    /// Whole-run metrics.
    pub fn metrics(&self) -> Metrics {
        Metrics::new(self.time_s, self.energy_j, self.flops)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GpeState {
    Running,
    PausedAtQuota,
    Done,
}

impl GpeState {
    fn as_u8(self) -> u8 {
        match self {
            GpeState::Running => 0,
            GpeState::PausedAtQuota => 1,
            GpeState::Done => 2,
        }
    }

    fn from_u8(v: u8) -> Option<GpeState> {
        match v {
            0 => Some(GpeState::Running),
            1 => Some(GpeState::PausedAtQuota),
            2 => Some(GpeState::Done),
            _ => None,
        }
    }
}

/// Position of the run loop within a workload, captured alongside the
/// machine state so a snapshot can resume mid-run. Epochs are quota-based
/// and can span phase boundaries, so the loop position is genuine machine
/// state: two runs at the same epoch index can sit at different points of
/// the phase list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LoopState {
    /// Index of the phase being executed (equals the phase count once the
    /// run is complete).
    pub(crate) phase_idx: usize,
    /// Whether the current phase's cursors and states are initialised.
    pub(crate) entered: bool,
    /// Per-GPE stream cursor within the current phase.
    pub(crate) cursors: Vec<usize>,
    /// Per-GPE run state within the current phase.
    pub(crate) states: Vec<GpeState>,
}

impl LoopState {
    pub(crate) fn initial() -> Self {
        LoopState {
            phase_idx: 0,
            entered: false,
            cursors: Vec::new(),
            states: Vec::new(),
        }
    }
}

/// Identity of an epoch boundary as observed by an [`EpochHook`]: the
/// epoch's position in the run, the fingerprint of the configuration that
/// will execute it, and a digest of the machine state entering it.
///
/// Together with the workload and machine spec (which the hook's owner
/// keys on separately), these fully determine the epoch's execution: the
/// simulator is deterministic, quota boundaries make the epoch's op
/// content position-dependent only, and controllers act exclusively at
/// boundaries. Two boundaries with equal keys therefore produce
/// bit-identical epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpochBoundary {
    /// Epoch index within the run.
    pub index: usize,
    /// [`TransmuterConfig::fingerprint`] of the configuration active for
    /// the epoch.
    pub config_fp: u64,
    /// [`MachineState::digest`] of the state entering the epoch.
    pub entry_digest: u64,
}

/// What an [`EpochHook`] stores per epoch: the record the epoch produced
/// and the machine state at its exit boundary (taken before the
/// controller's decision, so it is controller-agnostic and reusable
/// across schemes).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEpoch {
    /// The epoch's record. `index` and the `reconfig_*` fields are
    /// attributed by the run that recorded it; a consumer splices in its
    /// own values on reuse.
    pub record: EpochRecord,
    /// Machine state at the epoch's exit boundary.
    pub exit: MachineState,
}

/// Observes epoch boundaries during [`Machine::run_with_hook`] /
/// [`Machine::run_with_controller_and_hook`], enabling epoch-granular
/// memoization: a `lookup` hit fast-forwards the run through the epoch by
/// restoring the cached exit state and splicing the cached record.
///
/// The reference simulation path never consults hooks, so it stays an
/// independent witness for differential testing.
pub trait EpochHook {
    /// Called when the run reaches `boundary`, before simulating the
    /// epoch. Returning a cached epoch skips its simulation entirely.
    fn lookup(&mut self, boundary: &EpochBoundary) -> Option<std::sync::Arc<CachedEpoch>>;

    /// Called after an epoch was simulated (cache miss), with the same
    /// boundary key `lookup` saw and the freshly produced epoch.
    fn record(&mut self, boundary: &EpochBoundary, epoch: CachedEpoch);
}

/// A snapshot of everything a [`Machine`] carries across epoch
/// boundaries: cache bank tags and LRU state, prefetcher index tables,
/// the HBM channel regulators, per-epoch counter accumulation, GPE clocks
/// and the run-loop position.
///
/// Cache lines are held as tables of shared, immutable [`Page`]s:
/// snapshots taken at consecutive hooked boundaries of one run share
/// every page the epoch between them did not touch, and pages without a
/// valid line are not stored at all. Only the valid prefetcher entries
/// are kept. Equality, the digest and the byte form see content only.
///
/// Produced by [`Machine::snapshot`] (or internally at epoch boundaries
/// for [`EpochHook`]s); consumed by [`Machine::restore`]. No cache
/// stores snapshots as bytes; [`MachineState::to_bytes`] exists as the
/// snapshot tests' content witness, a form that two states share only
/// when their contents are equal.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    cfg: TransmuterConfig,
    table: EnergyTable,
    l1: Vec<BankPages>,
    l1_pf: Vec<PrefetcherState>,
    l2: Vec<BankPages>,
    l1_busy_ps: Vec<u64>,
    l2_busy_ps: Vec<u64>,
    hbm: Hbm,
    raw: RawEpochCounters,
    dyn_energy_j: f64,
    gpe_time_ps: Vec<u64>,
    gpe_epoch_ops: Vec<u64>,
    epoch_start_ps: u64,
    lcp_factor: f64,
    lcp_ops_carry: f64,
    loop_state: LoopState,
}

/// Snapshot wire-format version ([`MachineState::to_bytes`]).
const STATE_VERSION: u8 = 1;
/// Sanity bound on decoded unit counts (banks, GPEs, channels).
const STATE_MAX_UNITS: usize = 1 << 16;

impl MachineState {
    /// A cheap, stable digest of the full snapshot. Equal states always
    /// digest equally; by construction of the hash the converse holds in
    /// practice (64-bit collision odds), which is what makes the digest
    /// usable as the entry-state component of an epoch-cache key. Cache
    /// lines enter through their pages' cached hashes, so the cost is one
    /// word per page, not per line.
    pub fn digest(&self) -> u64 {
        self.view().digest()
    }

    /// The configuration captured in the snapshot.
    pub fn config(&self) -> &TransmuterConfig {
        &self.cfg
    }

    /// Approximate heap bytes reachable from the snapshot, shared pages
    /// included: what this one snapshot would cost on its own.
    pub fn approx_heap_bytes(&self) -> usize {
        self.approx_fixed_bytes() + self.pages().count() * Page::HEAP_BYTES
    }

    /// Approximate heap bytes the snapshot owns outright: everything but
    /// its shared [`pages`](MachineState::pages) — the page tables,
    /// prefetcher entries, HBM channels and per-unit vectors.
    pub fn approx_fixed_bytes(&self) -> usize {
        let banks = self.l1.iter().chain(&self.l2);
        std::mem::size_of::<MachineState>()
            + (self.l1.len() + self.l2.len()) * std::mem::size_of::<BankPages>()
            + banks.map(BankPages::table_bytes).sum::<usize>()
            + self.l1_pf.len() * std::mem::size_of::<PrefetcherState>()
            + self
                .l1_pf
                .iter()
                .map(PrefetcherState::approx_heap_bytes)
                .sum::<usize>()
            + self.hbm.approx_heap_bytes()
            + (self.l1_busy_ps.len()
                + self.l2_busy_ps.len()
                + self.gpe_time_ps.len()
                + self.gpe_epoch_ops.len()
                + self.loop_state.cursors.len())
                * 8
            + self.loop_state.states.len()
    }

    /// The shared cache pages the snapshot references. Snapshots of one
    /// run share the pages their epochs left untouched, so a store of
    /// many snapshots counts each page once, by `Arc` identity.
    pub fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.l1.iter().chain(&self.l2).flat_map(BankPages::pages)
    }

    fn view(&self) -> StateView<'_, BankPages, PrefetcherState> {
        StateView {
            cfg: &self.cfg,
            table: &self.table,
            l1: &self.l1,
            l1_pf: &self.l1_pf,
            l2: &self.l2,
            l1_busy_ps: &self.l1_busy_ps,
            l2_busy_ps: &self.l2_busy_ps,
            hbm: &self.hbm,
            raw: &self.raw,
            dyn_energy_j: self.dyn_energy_j,
            gpe_time_ps: &self.gpe_time_ps,
            gpe_epoch_ops: &self.gpe_epoch_ops,
            epoch_start_ps: self.epoch_start_ps,
            lcp_factor: self.lcp_factor,
            lcp_ops_carry: self.lcp_ops_carry,
            loop_state: &self.loop_state,
        }
    }

    /// Serialises the snapshot to a self-contained byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::codec::PutBytes as _;
        let mut out = Vec::with_capacity(256 + self.approx_heap_bytes());
        out.put_u8(STATE_VERSION);
        self.cfg.encode_into(&mut out);
        self.table.encode_into(&mut out);
        out.put_u64(self.l1.len() as u64);
        for b in &self.l1 {
            b.encode_into(&mut out);
        }
        out.put_u64(self.l1_pf.len() as u64);
        for p in &self.l1_pf {
            p.encode_into(&mut out);
        }
        out.put_u64(self.l2.len() as u64);
        for b in &self.l2 {
            b.encode_into(&mut out);
        }
        out.put_u64(self.l1_busy_ps.len() as u64);
        for &v in &self.l1_busy_ps {
            out.put_u64(v);
        }
        out.put_u64(self.l2_busy_ps.len() as u64);
        for &v in &self.l2_busy_ps {
            out.put_u64(v);
        }
        self.hbm.encode_into(&mut out);
        self.raw.encode_into(&mut out);
        out.put_f64(self.dyn_energy_j);
        out.put_u64(self.gpe_time_ps.len() as u64);
        for &v in &self.gpe_time_ps {
            out.put_u64(v);
        }
        out.put_u64(self.gpe_epoch_ops.len() as u64);
        for &v in &self.gpe_epoch_ops {
            out.put_u64(v);
        }
        out.put_u64(self.epoch_start_ps);
        out.put_f64(self.lcp_factor);
        out.put_f64(self.lcp_ops_carry);
        out.put_u64(self.loop_state.phase_idx as u64);
        out.put_u8(self.loop_state.entered as u8);
        out.put_u64(self.loop_state.cursors.len() as u64);
        for &c in &self.loop_state.cursors {
            out.put_u64(c as u64);
        }
        out.put_u64(self.loop_state.states.len() as u64);
        for s in &self.loop_state.states {
            out.put_u8(s.as_u8());
        }
        out
    }

    /// Inverse of [`MachineState::to_bytes`]; `None` on any malformed or
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<MachineState> {
        let mut r = crate::codec::Reader::new(bytes);
        if r.u8()? != STATE_VERSION {
            return None;
        }
        let cfg = TransmuterConfig::decode_from(&mut r)?;
        let table = EnergyTable::decode_from(&mut r)?;
        let n_l1 = r.len(STATE_MAX_UNITS)?;
        let mut l1 = Vec::with_capacity(n_l1);
        for _ in 0..n_l1 {
            l1.push(BankPages::decode_from(&mut r)?);
        }
        let n_pf = r.len(STATE_MAX_UNITS)?;
        let mut l1_pf = Vec::with_capacity(n_pf);
        for _ in 0..n_pf {
            l1_pf.push(PrefetcherState::decode_from(&mut r)?);
        }
        let n_l2 = r.len(STATE_MAX_UNITS)?;
        let mut l2 = Vec::with_capacity(n_l2);
        for _ in 0..n_l2 {
            l2.push(BankPages::decode_from(&mut r)?);
        }
        let n = r.len(STATE_MAX_UNITS)?;
        let mut l1_busy_ps = Vec::with_capacity(n);
        for _ in 0..n {
            l1_busy_ps.push(r.u64()?);
        }
        let n = r.len(STATE_MAX_UNITS)?;
        let mut l2_busy_ps = Vec::with_capacity(n);
        for _ in 0..n {
            l2_busy_ps.push(r.u64()?);
        }
        let hbm = Hbm::decode_from(&mut r)?;
        let raw = RawEpochCounters::decode_from(&mut r)?;
        let dyn_energy_j = r.f64()?;
        let n = r.len(STATE_MAX_UNITS)?;
        let mut gpe_time_ps = Vec::with_capacity(n);
        for _ in 0..n {
            gpe_time_ps.push(r.u64()?);
        }
        let n = r.len(STATE_MAX_UNITS)?;
        let mut gpe_epoch_ops = Vec::with_capacity(n);
        for _ in 0..n {
            gpe_epoch_ops.push(r.u64()?);
        }
        let epoch_start_ps = r.u64()?;
        let lcp_factor = r.f64()?;
        let lcp_ops_carry = r.f64()?;
        let phase_idx = r.u64()? as usize;
        let entered = r.bool()?;
        let n = r.len(STATE_MAX_UNITS)?;
        let mut cursors = Vec::with_capacity(n);
        for _ in 0..n {
            cursors.push(r.u64()? as usize);
        }
        let n = r.len(STATE_MAX_UNITS)?;
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            states.push(GpeState::from_u8(r.u8()?)?);
        }
        if !r.is_empty() {
            return None;
        }
        Some(MachineState {
            cfg,
            table,
            l1,
            l1_pf,
            l2,
            l1_busy_ps,
            l2_busy_ps,
            hbm,
            raw,
            dyn_energy_j,
            gpe_time_ps,
            gpe_epoch_ops,
            epoch_start_ps,
            lcp_factor,
            lcp_ops_carry,
            loop_state: LoopState {
                phase_idx,
                entered,
                cursors,
                states,
            },
        })
    }
}

/// A cache bank or prefetcher that folds into the state digest the same
/// way in its live and its snapshot form.
pub(crate) trait DigestInto {
    fn digest_into(&self, h: &mut fxhash::FxHasher);
}

/// Borrowed view over the carried state of a machine (or a snapshot), so
/// the digest is implemented once and computed in place — no cloning on
/// the per-epoch lookup path. `B` and `P` are the live or snapshot form
/// of the cache banks and prefetchers.
pub(crate) struct StateView<'a, B, P> {
    cfg: &'a TransmuterConfig,
    table: &'a EnergyTable,
    l1: &'a [B],
    l1_pf: &'a [P],
    l2: &'a [B],
    l1_busy_ps: &'a [u64],
    l2_busy_ps: &'a [u64],
    hbm: &'a Hbm,
    raw: &'a RawEpochCounters,
    dyn_energy_j: f64,
    gpe_time_ps: &'a [u64],
    gpe_epoch_ops: &'a [u64],
    epoch_start_ps: u64,
    lcp_factor: f64,
    lcp_ops_carry: f64,
    loop_state: &'a LoopState,
}

impl<B: DigestInto, P: DigestInto> StateView<'_, B, P> {
    pub(crate) fn digest(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = fxhash::FxHasher::default();
        h.write_u64(self.cfg.fingerprint());
        self.table.digest_into(&mut h);
        for b in self.l1 {
            b.digest_into(&mut h);
        }
        for p in self.l1_pf {
            p.digest_into(&mut h);
        }
        for b in self.l2 {
            b.digest_into(&mut h);
        }
        for &v in self.l1_busy_ps {
            h.write_u64(v);
        }
        for &v in self.l2_busy_ps {
            h.write_u64(v);
        }
        self.hbm.digest_into(&mut h);
        self.raw.digest_into(&mut h);
        h.write_u64(self.dyn_energy_j.to_bits());
        for &v in self.gpe_time_ps {
            h.write_u64(v);
        }
        for &v in self.gpe_epoch_ops {
            h.write_u64(v);
        }
        h.write_u64(self.epoch_start_ps);
        h.write_u64(self.lcp_factor.to_bits());
        h.write_u64(self.lcp_ops_carry.to_bits());
        h.write_u64(self.loop_state.phase_idx as u64);
        h.write_u8(self.loop_state.entered as u8);
        h.write_u64(self.loop_state.cursors.len() as u64);
        for &c in &self.loop_state.cursors {
            h.write_u64(c as u64);
        }
        for s in &self.loop_state.states {
            h.write_u8(s.as_u8());
        }
        h.finish()
    }
}

/// Which simulation inner loop to run. Both produce bit-identical epoch
/// records; the reference path exists so the differential test suite and
/// the `sweep_bench` A/B mode can hold the optimised path to account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimPath {
    /// Struct-of-arrays op streams, run-ahead event draining, and
    /// timestamp-batched HBM arbitration.
    Soa,
    /// The pre-SoA baseline: streams decoded to `Vec<Op>`, one heap
    /// push/pop per event, immediate per-op HBM occupancy, and the
    /// allocating prefetcher interface.
    Reference,
}

/// The simulated Transmuter machine.
#[derive(Debug)]
pub struct Machine {
    pub(crate) spec: MachineSpec,
    pub(crate) cfg: TransmuterConfig,
    pub(crate) table: EnergyTable,
    pub(crate) power: PowerModel,
    pub(crate) l1: Vec<CacheBank>,
    pub(crate) l1_pf: Vec<StridePrefetcher>,
    pub(crate) l2: Vec<CacheBank>,
    pub(crate) l1_busy_ps: Vec<u64>,
    pub(crate) l2_busy_ps: Vec<u64>,
    pub(crate) hbm: Hbm,
    // Epoch-scoped accumulation.
    pub(crate) raw: RawEpochCounters,
    pub(crate) dyn_energy_j: f64,
    // Run state.
    pub(crate) gpe_time_ps: Vec<u64>,
    pub(crate) gpe_epoch_ops: Vec<u64>,
    pub(crate) epoch_start_ps: u64,
    pub(crate) lcp_factor: f64,
    pub(crate) lcp_ops_carry: f64,
}

impl Machine {
    /// Builds a cold machine in the given configuration.
    pub fn new(spec: MachineSpec, cfg: TransmuterConfig) -> Self {
        let table = EnergyTable::default();
        Machine::with_energy_table(spec, cfg, table)
    }

    /// Builds a machine with a custom energy table (for calibration
    /// studies).
    pub fn with_energy_table(spec: MachineSpec, cfg: TransmuterConfig, table: EnergyTable) -> Self {
        let g = spec.geometry;
        let l1 = (0..g.l1_bank_count())
            .map(|_| CacheBank::new(cfg.l1_capacity_kb, spec.line_bytes, spec.ways))
            .collect();
        let l1_pf = (0..g.l1_bank_count())
            .map(|_| StridePrefetcher::new(cfg.prefetch_degree, spec.line_bytes))
            .collect();
        let l2 = (0..g.l2_bank_count())
            .map(|_| CacheBank::new(cfg.l2_capacity_kb, spec.line_bytes, spec.ways))
            .collect();
        let power = PowerModel::new(table, &spec, &cfg);
        Machine {
            spec,
            cfg,
            table,
            power,
            l1,
            l1_pf,
            l2,
            l1_busy_ps: vec![0; g.l1_bank_count()],
            l2_busy_ps: vec![0; g.l2_bank_count()],
            hbm: Hbm::new(spec.mem_bw_gbps),
            raw: RawEpochCounters::default(),
            dyn_energy_j: 0.0,
            gpe_time_ps: vec![0; g.gpe_count()],
            gpe_epoch_ops: vec![0; g.gpe_count()],
            epoch_start_ps: 0,
            lcp_factor: 0.0,
            lcp_ops_carry: 0.0,
        }
    }

    /// The machine spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The active configuration.
    pub fn config(&self) -> &TransmuterConfig {
        &self.cfg
    }

    /// Runs a workload with no runtime reconfiguration.
    ///
    /// # Panics
    ///
    /// Panics if a phase's stream count differs from the GPE count.
    pub fn run(&mut self, workload: &Workload) -> RunResult {
        self.run_with_controller(workload, &mut StaticController)
    }

    /// Runs a workload under a reconfiguration controller.
    ///
    /// # Panics
    ///
    /// Panics if a phase's stream count differs from the GPE count.
    pub fn run_with_controller(
        &mut self,
        workload: &Workload,
        controller: &mut dyn Controller,
    ) -> RunResult {
        self.run_impl(workload, controller, SimPath::Soa, None)
    }

    /// [`Machine::run`] with an [`EpochHook`] observing (and potentially
    /// short-circuiting) every epoch boundary.
    ///
    /// # Panics
    ///
    /// Panics if a phase's stream count differs from the GPE count.
    pub fn run_with_hook(&mut self, workload: &Workload, hook: &mut dyn EpochHook) -> RunResult {
        self.run_impl(workload, &mut StaticController, SimPath::Soa, Some(hook))
    }

    /// [`Machine::run_with_controller`] with an [`EpochHook`]. The
    /// controller is consulted at every boundary — including cache-hit
    /// boundaries, where it sees the spliced record — so live schemes
    /// behave identically with and without memoization.
    ///
    /// # Panics
    ///
    /// Panics if a phase's stream count differs from the GPE count.
    pub fn run_with_controller_and_hook(
        &mut self,
        workload: &Workload,
        controller: &mut dyn Controller,
        hook: &mut dyn EpochHook,
    ) -> RunResult {
        self.run_impl(workload, controller, SimPath::Soa, Some(hook))
    }

    /// Runs a workload through the legacy (pre-SoA, per-event) inner
    /// loop. Produces results bit-identical to [`Machine::run`]; exists
    /// for differential testing and as the honest baseline in
    /// `sweep_bench`'s A/B mode. Never consults epoch hooks.
    pub fn run_reference(&mut self, workload: &Workload) -> RunResult {
        self.run_reference_with_controller(workload, &mut StaticController)
    }

    /// [`Machine::run_reference`] with a reconfiguration controller.
    pub fn run_reference_with_controller(
        &mut self,
        workload: &Workload,
        controller: &mut dyn Controller,
    ) -> RunResult {
        self.run_impl(workload, controller, SimPath::Reference, None)
    }

    fn run_impl(
        &mut self,
        workload: &Workload,
        controller: &mut dyn Controller,
        path: SimPath,
        mut hook: Option<&mut dyn EpochHook>,
    ) -> RunResult {
        self.hbm.set_batched(path == SimPath::Soa);
        let n = self.spec.geometry.gpe_count();
        // Quota boundaries put roughly `epoch_ops * n` FP ops in each
        // epoch, plus one partial epoch per phase barrier at worst.
        let estimated_epochs = (workload.total_fp_ops() / (self.spec.epoch_ops * n as u64))
            as usize
            + workload.phases.len()
            + 1;
        let mut records: Vec<EpochRecord> = Vec::with_capacity(estimated_epochs);
        let mut pending_reconfig = (0.0f64, 0.0f64);
        let mut total_energy = 0.0f64;
        let mut total_flops = 0u64;
        let mut total_fp_ops = 0u64;
        // Event heap over running GPEs, allocated once and reused across
        // epoch rounds and phases (the inner loop is hot: one rebuild per
        // epoch per phase).
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::with_capacity(n);
        // Reference-path stream decode, cached per phase.
        let mut ref_streams: (Option<usize>, Vec<Vec<Op>>) = (None, Vec::new());
        let mut ls = LoopState::initial();
        // Boundary key of the epoch currently being entered (hooked runs
        // only); still valid after the loop for the final partial epoch.
        let mut entry: Option<EpochBoundary> = None;

        // A cache hit can carry the run past its last phase; it stops
        // there. Probing the hook once more could not hit (nothing is
        // recorded under a finished state once a run has records), and
        // an unhooked run never gets here finished.
        while records.is_empty() || ls.phase_idx < workload.phases.len() {
            // Key the epoch about to run. The reference path never
            // consults hooks, so it stays an independent witness against
            // the memoization layer.
            if path == SimPath::Soa {
                if let Some(h) = hook.as_deref_mut() {
                    self.commit_pages(&ls);
                    let b = EpochBoundary {
                        index: records.len(),
                        config_fp: self.cfg.fingerprint(),
                        entry_digest: self.view(&ls).digest(),
                    };
                    entry = Some(b);
                    if let Some(cached) = h.lookup(&b) {
                        // Fast-forward: restore the cached exit state and
                        // splice the cached record, attributing this
                        // run's own position and entry reconfiguration.
                        self.restore_with(&cached.exit, &mut ls);
                        let mut rec = cached.record.clone();
                        rec.index = records.len();
                        rec.reconfig_time_s = pending_reconfig.0;
                        rec.reconfig_energy_j = pending_reconfig.1;
                        let finished = ls.phase_idx >= workload.phases.len();
                        pending_reconfig = (0.0, 0.0);
                        if !finished {
                            // The controller's decisions belong to this
                            // run, not the cached one: consult it exactly
                            // as the simulating path would.
                            if let Some(new_cfg) = controller.on_epoch(&rec) {
                                if new_cfg != self.cfg {
                                    let cost = self.apply_config(new_cfg);
                                    pending_reconfig = (cost.time_s, cost.energy_j);
                                }
                            }
                            self.epoch_start_ps = self.gpe_time_ps[0];
                        }
                        total_energy += rec.metrics.energy_j + rec.reconfig_energy_j;
                        total_flops += rec.metrics.flops;
                        total_fp_ops += rec.fp_ops;
                        records.push(rec);
                        continue;
                    }
                }
            }

            if !self.advance_to_boundary(workload, path, &mut ls, &mut heap, &mut ref_streams) {
                break; // run complete; final partial epoch handled below
            }

            // Mid-run epoch boundary. Harvest and reset first, then flip
            // paused GPEs, so the exit snapshot recorded to the hook is
            // controller-agnostic: it is the state every scheme passes
            // through before its controller weighs in.
            let rec = self.harvest_epoch(records.len(), pending_reconfig);
            self.reset_epoch_accumulators();
            for s in ls.states.iter_mut() {
                if *s == GpeState::PausedAtQuota {
                    *s = GpeState::Running;
                }
            }
            if let (Some(h), Some(b)) = (hook.as_deref_mut(), entry) {
                self.commit_pages(&ls);
                h.record(
                    &b,
                    CachedEpoch {
                        record: rec.clone(),
                        exit: self.snapshot_with(&ls),
                    },
                );
            }
            let mut next_cost = (0.0, 0.0);
            if let Some(new_cfg) = controller.on_epoch(&rec) {
                if new_cfg != self.cfg {
                    let cost = self.apply_config(new_cfg);
                    next_cost = (cost.time_s, cost.energy_j);
                }
            }
            // Re-base the epoch timer after any reconfiguration stall.
            self.epoch_start_ps = self.gpe_time_ps[0];
            total_energy += rec.metrics.energy_j + rec.reconfig_energy_j;
            total_flops += rec.metrics.flops;
            total_fp_ops += rec.fp_ops;
            records.push(rec);
            pending_reconfig = next_cost;
        }

        // Final (possibly partial) epoch.
        if self.raw.fp_ops() > 0 || records.is_empty() {
            let rec = self.harvest_epoch(records.len(), pending_reconfig);
            self.reset_epoch_accumulators();
            if let (Some(h), Some(b)) = (hook, entry) {
                self.commit_pages(&ls);
                h.record(
                    &b,
                    CachedEpoch {
                        record: rec.clone(),
                        exit: self.snapshot_with(&ls),
                    },
                );
            }
            total_energy += rec.metrics.energy_j + rec.reconfig_energy_j;
            total_flops += rec.metrics.flops;
            total_fp_ops += rec.fp_ops;
            records.push(rec);
        } else {
            total_energy += pending_reconfig.1;
        }

        RunResult {
            name: workload.name.clone(),
            time_s: self.gpe_time_ps.iter().copied().max().unwrap_or(0) as f64 * 1e-12,
            energy_j: total_energy,
            flops: total_flops,
            fp_ops: total_fp_ops,
            epochs: records,
        }
    }

    /// Runs the event loop from the position in `ls` until the next epoch
    /// boundary (`true`: at least one GPE paused at its quota, counters
    /// hold the finished epoch) or the end of the workload (`false`).
    fn advance_to_boundary(
        &mut self,
        workload: &Workload,
        path: SimPath,
        ls: &mut LoopState,
        heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
        ref_streams: &mut (Option<usize>, Vec<Vec<Op>>),
    ) -> bool {
        let n = self.spec.geometry.gpe_count();
        while ls.phase_idx < workload.phases.len() {
            let phase = &workload.phases[ls.phase_idx];
            if !ls.entered {
                assert_eq!(
                    phase.streams.len(),
                    n,
                    "phase '{}' has {} streams for {} GPEs",
                    phase.name,
                    phase.streams.len(),
                    n
                );
                ls.cursors.clear();
                ls.cursors.resize(n, 0);
                ls.states.clear();
                ls.states.extend(phase.streams.iter().map(|s| {
                    if s.is_empty() {
                        GpeState::Done
                    } else {
                        GpeState::Running
                    }
                }));
                ls.entered = true;
            }
            self.lcp_factor = phase.lcp_ops_per_gpe_op;
            // The reference path replays the exact pre-SoA loop over
            // decoded array-of-structs streams.
            if path == SimPath::Reference && ref_streams.0 != Some(ls.phase_idx) {
                *ref_streams = (
                    Some(ls.phase_idx),
                    phase.streams.iter().map(|s| s.iter().collect()).collect(),
                );
            }

            // One epoch round: refill the event heap with the running
            // GPEs and drain.
            heap.clear();
            heap.extend(
                ls.states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s == GpeState::Running)
                    .map(|(g, _)| Reverse((self.gpe_time_ps[g], g))),
            );

            match path {
                SimPath::Soa => {
                    while let Some(Reverse((mut t, g))) = heap.pop() {
                        let stream = &phase.streams[g];
                        loop {
                            let new_t =
                                self.step_gpe(g, t, stream, &phase.spm_regions, &mut ls.cursors[g]);
                            self.gpe_time_ps[g] = new_t;
                            if ls.cursors[g] >= stream.len() {
                                ls.states[g] = GpeState::Done;
                                break;
                            }
                            if self.gpe_epoch_ops[g] >= self.spec.epoch_ops {
                                ls.states[g] = GpeState::PausedAtQuota;
                                break;
                            }
                            // Run ahead without heap churn while this
                            // GPE is still the globally earliest
                            // event. `(new_t, g) <= peek` is exactly
                            // the condition under which pushing
                            // `(new_t, g)` and popping would return
                            // it again, so this skips the push/pop
                            // pair without reordering anything.
                            match heap.peek() {
                                Some(&Reverse(next)) if next < (new_t, g) => {
                                    heap.push(Reverse((new_t, g)));
                                    break;
                                }
                                _ => t = new_t,
                            }
                        }
                    }
                }
                SimPath::Reference => {
                    while let Some(Reverse((t, g))) = heap.pop() {
                        let new_t = self.step_gpe_reference(
                            g,
                            t,
                            &ref_streams.1[g],
                            &phase.spm_regions,
                            &mut ls.cursors[g],
                        );
                        self.gpe_time_ps[g] = new_t;
                        if ls.cursors[g] >= ref_streams.1[g].len() {
                            ls.states[g] = GpeState::Done;
                        } else if self.gpe_epoch_ops[g] >= self.spec.epoch_ops {
                            ls.states[g] = GpeState::PausedAtQuota;
                        } else {
                            heap.push(Reverse((new_t, g)));
                        }
                    }
                }
            }

            if ls.states.contains(&GpeState::PausedAtQuota) {
                return true; // epoch boundary
            }
            // Phase complete — barrier: synchronise to the slowest GPE.
            let t_max = self.gpe_time_ps.iter().copied().max().unwrap_or(0);
            for t in &mut self.gpe_time_ps {
                *t = t_max;
            }
            ls.phase_idx += 1;
            ls.entered = false;
        }
        false
    }

    /// Executes ops for GPE `g` starting at time `t` until one memory
    /// access completes, the epoch quota is reached, or the stream ends.
    /// `spm` is the active phase's scratchpad map (borrowed from the
    /// workload rather than cloned per phase). Returns the new local
    /// time.
    fn step_gpe(
        &mut self,
        g: usize,
        mut t: u64,
        stream: &OpStream,
        spm: &[Region],
        cursor: &mut usize,
    ) -> u64 {
        let period = self.cfg.clock.period_ps();
        let (tags, addrs, auxs) = stream.as_lanes();
        while *cursor < tags.len() {
            let i = *cursor;
            match tags[i] {
                OpTag::Flops => {
                    let n = auxs[i] as u64;
                    t += n * period;
                    self.raw.gpe_flops += n;
                    self.gpe_epoch_ops[g] += n;
                    self.dyn_energy_j += self.power.fp_ops(n);
                    self.charge_lcp(n);
                    *cursor += 1;
                    if self.gpe_epoch_ops[g] >= self.spec.epoch_ops {
                        return t;
                    }
                }
                OpTag::IntOps => {
                    let n = auxs[i] as u64;
                    t += n * period;
                    self.raw.gpe_int_ops += n;
                    self.dyn_energy_j += self.power.int_ops(n);
                    self.charge_lcp(n);
                    *cursor += 1;
                }
                OpTag::Load => {
                    *cursor += 1;
                    self.raw.gpe_loads += 1;
                    self.gpe_epoch_ops[g] += 1;
                    self.charge_lcp(1);
                    self.dyn_energy_j += self.power.int_ops(1); // issue/AGU
                    return self.mem_access(g, t, addrs[i], false, auxs[i], spm);
                }
                OpTag::Store => {
                    *cursor += 1;
                    self.raw.gpe_stores += 1;
                    self.gpe_epoch_ops[g] += 1;
                    self.charge_lcp(1);
                    self.dyn_energy_j += self.power.int_ops(1);
                    return self.mem_access(g, t, addrs[i], true, auxs[i], spm);
                }
            }
        }
        t
    }

    /// The pre-SoA [`Machine::step_gpe`], kept verbatim over decoded
    /// `&[Op]` streams for the reference path.
    fn step_gpe_reference(
        &mut self,
        g: usize,
        mut t: u64,
        stream: &[Op],
        spm: &[Region],
        cursor: &mut usize,
    ) -> u64 {
        let period = self.cfg.clock.period_ps();
        while *cursor < stream.len() {
            match stream[*cursor] {
                Op::Flops(n) => {
                    t += n as u64 * period;
                    self.raw.gpe_flops += n as u64;
                    self.gpe_epoch_ops[g] += n as u64;
                    self.dyn_energy_j += self.power.fp_ops(n as u64);
                    self.charge_lcp(n as u64);
                    *cursor += 1;
                    if self.gpe_epoch_ops[g] >= self.spec.epoch_ops {
                        return t;
                    }
                }
                Op::IntOps(n) => {
                    t += n as u64 * period;
                    self.raw.gpe_int_ops += n as u64;
                    self.dyn_energy_j += self.power.int_ops(n as u64);
                    self.charge_lcp(n as u64);
                    *cursor += 1;
                }
                Op::Load { addr, pc } => {
                    *cursor += 1;
                    self.raw.gpe_loads += 1;
                    self.gpe_epoch_ops[g] += 1;
                    self.charge_lcp(1);
                    self.dyn_energy_j += self.power.int_ops(1); // issue/AGU
                    return self.mem_access_reference(g, t, addr, false, pc, spm);
                }
                Op::Store { addr, pc } => {
                    *cursor += 1;
                    self.raw.gpe_stores += 1;
                    self.gpe_epoch_ops[g] += 1;
                    self.charge_lcp(1);
                    self.dyn_energy_j += self.power.int_ops(1);
                    return self.mem_access_reference(g, t, addr, true, pc, spm);
                }
            }
        }
        t
    }

    pub(crate) fn charge_lcp(&mut self, ops: u64) {
        self.lcp_ops_carry += self.lcp_factor * ops as f64;
        if self.lcp_ops_carry >= 1.0 {
            let whole = self.lcp_ops_carry.floor();
            self.raw.lcp_ops += whole;
            self.dyn_energy_j += self.power.int_ops(whole as u64);
            self.lcp_ops_carry -= whole;
        }
    }

    /// Routes one demand access through the hierarchy; returns completion
    /// time.
    fn mem_access(
        &mut self,
        g: usize,
        t: u64,
        addr: u64,
        write: bool,
        pc: u32,
        spm: &[Region],
    ) -> u64 {
        let period = self.cfg.clock.period_ps();
        match self.cfg.l1_kind {
            MemKind::Spm => {
                if spm.iter().any(|r| r.contains(addr)) {
                    // Scratchpad hit: deterministic, tag-free.
                    self.raw.l1_accesses += 1;
                    self.dyn_energy_j += self.power.l1_access(&self.cfg);
                    match self.cfg.l1_sharing {
                        SharingMode::Private => t + period,
                        SharingMode::Shared => {
                            let bank = self.l1_bank_shared(g, addr);
                            self.arbitrate_l1(bank, t)
                        }
                    }
                } else {
                    // Bypass to L2.
                    self.l2_path(g, t + period, addr, write)
                }
            }
            MemKind::Cache => {
                let bank = match self.cfg.l1_sharing {
                    SharingMode::Private => g,
                    SharingMode::Shared => self.l1_bank_shared(g, addr),
                };
                let hit_done = match self.cfg.l1_sharing {
                    SharingMode::Private => t + period,
                    SharingMode::Shared => self.arbitrate_l1(bank, t),
                };
                self.dyn_energy_j += self.power.l1_access(&self.cfg);
                let outcome = self.l1[bank].access(addr, write);
                // Prefetcher observes every demand access. The fixed
                // stack buffer keeps this allocation-free on the hot
                // path.
                let mut prefetches = PrefetchBuf::new();
                self.l1_pf[bank].observe_into(pc, addr, &mut prefetches);
                let done = if outcome.is_hit() {
                    hit_done
                } else {
                    if let crate::cache::AccessOutcome::Miss {
                        writeback: Some(wb),
                    } = outcome
                    {
                        self.l2_writeback(g, hit_done, wb);
                    }
                    self.l2_path(g, hit_done, addr, false)
                };
                for &pf_addr in prefetches.as_slice() {
                    self.issue_prefetch(g, bank, hit_done, pf_addr);
                }
                done
            }
        }
    }

    /// The pre-SoA [`Machine::mem_access`], using the allocating
    /// prefetcher interface — kept so the reference path's performance
    /// profile matches the historical baseline exactly.
    fn mem_access_reference(
        &mut self,
        g: usize,
        t: u64,
        addr: u64,
        write: bool,
        pc: u32,
        spm: &[Region],
    ) -> u64 {
        let period = self.cfg.clock.period_ps();
        match self.cfg.l1_kind {
            MemKind::Spm => {
                if spm.iter().any(|r| r.contains(addr)) {
                    // Scratchpad hit: deterministic, tag-free.
                    self.raw.l1_accesses += 1;
                    self.dyn_energy_j += self.power.l1_access(&self.cfg);
                    match self.cfg.l1_sharing {
                        SharingMode::Private => t + period,
                        SharingMode::Shared => {
                            let bank = self.l1_bank_shared(g, addr);
                            self.arbitrate_l1(bank, t)
                        }
                    }
                } else {
                    // Bypass to L2.
                    self.l2_path(g, t + period, addr, write)
                }
            }
            MemKind::Cache => {
                let bank = match self.cfg.l1_sharing {
                    SharingMode::Private => g,
                    SharingMode::Shared => self.l1_bank_shared(g, addr),
                };
                let hit_done = match self.cfg.l1_sharing {
                    SharingMode::Private => t + period,
                    SharingMode::Shared => self.arbitrate_l1(bank, t),
                };
                self.dyn_energy_j += self.power.l1_access(&self.cfg);
                let outcome = self.l1[bank].access(addr, write);
                // Prefetcher observes every demand access.
                let prefetches = self.l1_pf[bank].observe(pc, addr);
                let done = if outcome.is_hit() {
                    hit_done
                } else {
                    if let crate::cache::AccessOutcome::Miss {
                        writeback: Some(wb),
                    } = outcome
                    {
                        self.l2_writeback(g, hit_done, wb);
                    }
                    self.l2_path(g, hit_done, addr, false)
                };
                for pf_addr in prefetches {
                    self.issue_prefetch(g, bank, hit_done, pf_addr);
                }
                done
            }
        }
    }

    /// Shared-mode L1 bank selection: line-interleaved across the tile's
    /// banks.
    pub(crate) fn l1_bank_shared(&self, g: usize, addr: u64) -> usize {
        let n = self.spec.geometry.gpes_per_tile as usize;
        let tile = self.spec.geometry.tile_of(g);
        let line = addr / self.spec.line_bytes as u64;
        tile * n + (line as usize % n)
    }

    /// L2 bank selection under the active sharing mode.
    pub(crate) fn l2_bank(&self, g: usize, addr: u64) -> usize {
        let tiles = self.spec.geometry.l2_bank_count();
        match self.cfg.l2_sharing {
            SharingMode::Private => self.spec.geometry.tile_of(g),
            SharingMode::Shared => {
                let line = addr / self.spec.line_bytes as u64;
                line as usize % tiles
            }
        }
    }

    /// Crossbar arbitration at an L1 bank: one-cycle service, serialised.
    fn arbitrate_l1(&mut self, bank: usize, t: u64) -> u64 {
        let period = self.cfg.clock.period_ps();
        let request = t + period; // one cycle to traverse the crossbar
        self.raw.l1_xbar_accesses += 1;
        self.dyn_energy_j += self.power.xbar();
        let start = self.l1_busy_ps[bank].max(request);
        if self.l1_busy_ps[bank] > request {
            self.raw.l1_xbar_contentions += 1;
        }
        self.l1_busy_ps[bank] = start + period;
        start + period
    }

    /// Crossbar arbitration at an L2 bank.
    fn arbitrate_l2(&mut self, bank: usize, t: u64) -> u64 {
        let period = self.cfg.clock.period_ps();
        let request = t + period;
        self.raw.l2_xbar_accesses += 1;
        self.dyn_energy_j += self.power.xbar();
        let start = self.l2_busy_ps[bank].max(request);
        if self.l2_busy_ps[bank] > request {
            self.raw.l2_xbar_contentions += 1;
        }
        self.l2_busy_ps[bank] = start + period;
        start + period
    }

    /// Demand path through L2 (and HBM on miss); returns completion time.
    fn l2_path(&mut self, g: usize, t: u64, addr: u64, write: bool) -> u64 {
        let period = self.cfg.clock.period_ps();
        let bank = self.l2_bank(g, addr);
        let granted = self.arbitrate_l2(bank, t);
        self.dyn_energy_j += self.power.l2_access(&self.cfg);
        let outcome = self.l2[bank].access(addr, write);
        if outcome.is_hit() {
            granted + L2_HIT_CYCLES * period
        } else {
            if let crate::cache::AccessOutcome::Miss {
                writeback: Some(wb),
            } = outcome
            {
                self.hbm.write(granted, wb, self.spec.line_bytes);
                self.dyn_energy_j += self.power.hbm(self.spec.line_bytes as u64);
            }
            let mem_done = self.hbm.read(granted, addr, self.spec.line_bytes);
            self.dyn_energy_j += self.power.hbm(self.spec.line_bytes as u64);
            mem_done + period // return crossing
        }
    }

    /// Posted writeback of an evicted dirty L1 line into L2.
    fn l2_writeback(&mut self, g: usize, t: u64, addr: u64) {
        let bank = self.l2_bank(g, addr);
        let granted = self.arbitrate_l2(bank, t);
        self.dyn_energy_j += self.power.l2_access(&self.cfg);
        if let crate::cache::AccessOutcome::Miss {
            writeback: Some(wb),
        } = self.l2[bank].access(addr, true)
        {
            self.hbm.write(granted, wb, self.spec.line_bytes);
            self.dyn_energy_j += self.power.hbm(self.spec.line_bytes as u64);
        }
    }

    /// Issues one prefetch on behalf of L1 `bank`: posted (no GPE
    /// latency), fills L1 (and L2 on an off-chip fetch), consumes
    /// bandwidth.
    fn issue_prefetch(&mut self, g: usize, bank: usize, t: u64, addr: u64) {
        if self.l1[bank].probe(addr) {
            return;
        }
        let l2_bank = self.l2_bank(g, addr);
        self.dyn_energy_j += self.power.l2_access(&self.cfg);
        if self.l2[l2_bank].probe(addr) {
            // On-chip prefetch: L2 → L1.
            if let Some(wb) = self.l1[bank].install_prefetch(addr) {
                self.l2_writeback(g, t, wb);
            }
            self.dyn_energy_j += self.power.l1_access(&self.cfg);
        } else {
            // Off-chip prefetch: posted bandwidth consumption.
            self.hbm.prefetch_read(t, addr, self.spec.line_bytes);
            self.dyn_energy_j += self.power.hbm(self.spec.line_bytes as u64);
            if let Some(wb) = self.l2[l2_bank].install_prefetch(addr) {
                self.hbm.write(t, wb, self.spec.line_bytes);
                self.dyn_energy_j += self.power.hbm(self.spec.line_bytes as u64);
            }
            self.raw.l2_prefetches += 1;
            if let Some(wb) = self.l1[bank].install_prefetch(addr) {
                self.l2_writeback(g, t, wb);
            }
            self.dyn_energy_j += self.power.l1_access(&self.cfg);
        }
    }

    /// Ends the current epoch's accumulation: synchronises GPEs, harvests
    /// the counters and builds the epoch's record. Leaves the
    /// accumulators untouched — callers pair this with
    /// [`Machine::reset_epoch_accumulators`].
    pub(crate) fn harvest_epoch(&mut self, index: usize, paid_at_entry: (f64, f64)) -> EpochRecord {
        // Synchronise to the slowest GPE.
        let t_sync = self.gpe_time_ps.iter().copied().max().unwrap_or(0);
        for t in &mut self.gpe_time_ps {
            *t = t_sync;
        }
        let duration_ps = t_sync.saturating_sub(self.epoch_start_ps);
        let period = self.cfg.clock.period_ps();
        let elapsed_cycles = duration_ps as f64 / period as f64;

        // Sample occupancies.
        self.raw.l1_occupancy =
            self.l1.iter().map(|b| b.occupancy()).sum::<f64>() / self.l1.len() as f64;
        self.raw.l2_occupancy =
            self.l2.iter().map(|b| b.occupancy()).sum::<f64>() / self.l2.len() as f64;
        // Harvest bank and HBM stats.
        let mut l1_acc = 0u64;
        let mut l1_miss = 0u64;
        let mut l1_pf = 0u64;
        for b in &mut self.l1 {
            let s = b.take_stats();
            l1_acc += s.accesses;
            l1_miss += s.misses;
            l1_pf += s.prefetches;
        }
        // SPM accesses were counted directly into raw.l1_accesses.
        self.raw.l1_accesses += l1_acc;
        self.raw.l1_misses += l1_miss;
        self.raw.l1_prefetches += l1_pf;
        let mut l2_acc = 0u64;
        let mut l2_miss = 0u64;
        for b in &mut self.l2 {
            let s = b.take_stats();
            l2_acc += s.accesses;
            l2_miss += s.misses;
        }
        self.raw.l2_accesses += l2_acc;
        self.raw.l2_misses += l2_miss;
        let hbm_stats = self.hbm.take_stats();
        self.raw.mem_bytes_read += hbm_stats.bytes_read;
        self.raw.mem_bytes_written += hbm_stats.bytes_written;

        let telemetry = Telemetry::from_raw(
            &self.raw,
            elapsed_cycles,
            self.hbm.capacity_bytes(duration_ps),
            self.l1.len(),
            self.l2.len(),
            self.spec.geometry.gpe_count(),
            self.cfg.l1_capacity_kb,
            self.cfg.l2_capacity_kb,
            self.cfg.clock.mhz(),
        );
        let static_energy = self.power.static_power_w() * duration_ps as f64 * 1e-12;
        let energy = self.dyn_energy_j + static_energy;
        EpochRecord {
            index,
            config: self.cfg,
            // The paper's FP-op currency includes loads and stores
            // (§4: "FP-ops executed, inclusive of loads and stores"), so
            // the GFLOPS numerator does too — this also keeps the
            // Energy-Efficient objective meaningful in phases with few
            // arithmetic FLOPs (e.g. the SpMSpM merge sort).
            metrics: Metrics::new(duration_ps as f64 * 1e-12, energy, self.raw.fp_ops()),
            fp_ops: self.raw.fp_ops(),
            telemetry,
            reconfig_time_s: paid_at_entry.0,
            reconfig_energy_j: paid_at_entry.1,
        }
    }

    /// Clears the per-epoch accumulators and re-bases the epoch timer at
    /// the current (synchronised) time.
    pub(crate) fn reset_epoch_accumulators(&mut self) {
        self.raw = RawEpochCounters::default();
        self.dyn_energy_j = 0.0;
        for q in &mut self.gpe_epoch_ops {
            *q = 0;
        }
        self.epoch_start_ps = self.gpe_time_ps[0];
    }

    pub(crate) fn view<'a>(
        &'a self,
        ls: &'a LoopState,
    ) -> StateView<'a, CacheBank, StridePrefetcher> {
        self.view_with(ls, &self.l1, &self.l2)
    }

    /// [`Machine::view`] with the cache banks supplied by the caller.
    fn view_with<'a, B>(
        &'a self,
        ls: &'a LoopState,
        l1: &'a [B],
        l2: &'a [B],
    ) -> StateView<'a, B, StridePrefetcher> {
        StateView {
            cfg: &self.cfg,
            table: &self.table,
            l1,
            l1_pf: &self.l1_pf,
            l2,
            l1_busy_ps: &self.l1_busy_ps,
            l2_busy_ps: &self.l2_busy_ps,
            hbm: &self.hbm,
            raw: &self.raw,
            dyn_energy_j: self.dyn_energy_j,
            gpe_time_ps: &self.gpe_time_ps,
            gpe_epoch_ops: &self.gpe_epoch_ops,
            epoch_start_ps: self.epoch_start_ps,
            lcp_factor: self.lcp_factor,
            lcp_ops_carry: self.lcp_ops_carry,
            loop_state: ls,
        }
    }

    /// Commits every cache bank's touched pages (hooked boundaries only),
    /// so the next digest folds cached page hashes and the next snapshot
    /// shares every untouched page. Debug builds check the commit
    /// against a from-scratch copy of the live lines: a line mutation
    /// that did not mark its page would leave a stale page behind.
    fn commit_pages(&mut self, ls: &LoopState) {
        for b in self.l1.iter_mut().chain(self.l2.iter_mut()) {
            b.commit();
        }
        debug_assert_eq!(
            self.view(ls).digest(),
            self.digest_from_scratch(ls),
            "a cache line changed without marking its page"
        );
    }

    /// The state digest with every page copied and hashed from the live
    /// lines, bypassing the committed page tables.
    fn digest_from_scratch(&self, ls: &LoopState) -> u64 {
        let l1: Vec<BankPages> = self
            .l1
            .iter()
            .map(CacheBank::snapshot_from_scratch)
            .collect();
        let l2: Vec<BankPages> = self
            .l2
            .iter()
            .map(CacheBank::snapshot_from_scratch)
            .collect();
        self.view_with(ls, &l1, &l2).digest()
    }

    /// Captures everything the machine carries across epoch boundaries
    /// (see [`MachineState`]). Pairs with [`Machine::restore`].
    pub fn snapshot(&self) -> MachineState {
        self.snapshot_with(&LoopState::initial())
    }

    pub(crate) fn snapshot_with(&self, ls: &LoopState) -> MachineState {
        MachineState {
            cfg: self.cfg,
            table: self.table,
            l1: self.l1.iter().map(CacheBank::snapshot).collect(),
            l1_pf: self.l1_pf.iter().map(StridePrefetcher::snapshot).collect(),
            l2: self.l2.iter().map(CacheBank::snapshot).collect(),
            l1_busy_ps: self.l1_busy_ps.clone(),
            l2_busy_ps: self.l2_busy_ps.clone(),
            hbm: self.hbm.clone(),
            raw: self.raw,
            dyn_energy_j: self.dyn_energy_j,
            gpe_time_ps: self.gpe_time_ps.clone(),
            gpe_epoch_ops: self.gpe_epoch_ops.clone(),
            epoch_start_ps: self.epoch_start_ps,
            lcp_factor: self.lcp_factor,
            lcp_ops_carry: self.lcp_ops_carry,
            loop_state: ls.clone(),
        }
    }

    /// Restores a snapshot taken by [`Machine::snapshot`] (possibly on a
    /// different machine instance with the same spec). The power model is
    /// rebuilt from the snapshot's energy table and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's geometry (bank or GPE counts) differs
    /// from this machine's spec.
    pub fn restore(&mut self, state: &MachineState) {
        let mut ls = LoopState::initial();
        self.restore_with(state, &mut ls);
    }

    pub(crate) fn restore_with(&mut self, state: &MachineState, ls: &mut LoopState) {
        assert_eq!(
            self.l1.len(),
            state.l1.len(),
            "snapshot is from a different machine geometry"
        );
        assert_eq!(
            self.l2.len(),
            state.l2.len(),
            "snapshot is from a different machine geometry"
        );
        assert_eq!(
            self.l1_pf.len(),
            state.l1_pf.len(),
            "snapshot is from a different machine geometry"
        );
        assert_eq!(
            self.gpe_time_ps.len(),
            state.gpe_time_ps.len(),
            "snapshot is from a different machine geometry"
        );
        self.cfg = state.cfg;
        self.table = state.table;
        self.power = PowerModel::new(state.table, &self.spec, &state.cfg);
        for (bank, snap) in self.l1.iter_mut().zip(&state.l1) {
            bank.restore(snap);
        }
        for (pf, snap) in self.l1_pf.iter_mut().zip(&state.l1_pf) {
            pf.restore(snap);
        }
        for (bank, snap) in self.l2.iter_mut().zip(&state.l2) {
            bank.restore(snap);
        }
        self.l1_busy_ps.clone_from(&state.l1_busy_ps);
        self.l2_busy_ps.clone_from(&state.l2_busy_ps);
        self.hbm = state.hbm.clone();
        self.raw = state.raw;
        self.dyn_energy_j = state.dyn_energy_j;
        self.gpe_time_ps.clone_from(&state.gpe_time_ps);
        self.gpe_epoch_ops.clone_from(&state.gpe_epoch_ops);
        self.epoch_start_ps = state.epoch_start_ps;
        self.lcp_factor = state.lcp_factor;
        self.lcp_ops_carry = state.lcp_ops_carry;
        ls.clone_from(&state.loop_state);
    }

    /// Applies a new configuration, paying the reconfiguration cost
    /// (stalling all GPEs). Returns the cost.
    ///
    /// # Panics
    ///
    /// Panics if the new configuration changes the compile-time L1 kind.
    pub fn apply_config(&mut self, new_cfg: TransmuterConfig) -> ReconfigCost {
        assert_eq!(
            self.cfg.l1_kind, new_cfg.l1_kind,
            "the L1 memory type is a compile-time (coarse-grained) choice"
        );
        let cost = reconfig::cost(&self.spec, &self.table, &self.cfg, &new_cfg);
        let stall_ps = (cost.time_s * 1e12) as u64;
        for t in &mut self.gpe_time_ps {
            *t += stall_ps;
        }
        if cost.flush_l1 {
            for b in &mut self.l1 {
                b.flush();
            }
        }
        if cost.flush_l2 {
            for b in &mut self.l2 {
                b.flush();
            }
        }
        if new_cfg.l1_capacity_kb != self.cfg.l1_capacity_kb {
            for b in &mut self.l1 {
                b.resize(new_cfg.l1_capacity_kb);
            }
        }
        if new_cfg.l2_capacity_kb != self.cfg.l2_capacity_kb {
            for b in &mut self.l2 {
                b.resize(new_cfg.l2_capacity_kb);
            }
        }
        for pf in &mut self.l1_pf {
            pf.set_degree(new_cfg.prefetch_degree);
        }
        self.cfg = new_cfg;
        self.power = PowerModel::new(self.table, &self.spec, &self.cfg);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClockFreq;
    use crate::workload::Phase;

    fn streaming_workload(n_gpes: usize, loads_per_gpe: u64, stride: u64) -> Workload {
        let streams: Vec<Vec<Op>> = (0..n_gpes)
            .map(|g| {
                let base = g as u64 * (loads_per_gpe * stride + 4096);
                (0..loads_per_gpe)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: base + i * stride,
                                pc: 1,
                            },
                            Op::Flops(2),
                        ]
                    })
                    .collect()
            })
            .collect();
        Workload::new("stream", vec![Phase::new("stream", streams)])
    }

    #[test]
    fn run_produces_time_energy_flops() {
        let spec = MachineSpec::default();
        let wl = streaming_workload(spec.geometry.gpe_count(), 500, 8);
        let mut m = Machine::new(spec, TransmuterConfig::baseline());
        let r = m.run(&wl);
        assert!(r.time_s > 0.0);
        assert!(r.energy_j > 0.0);
        assert_eq!(r.flops, 16 * 500 * 3); // FP-op currency includes loads
        assert_eq!(r.fp_ops, 16 * 500 * 3);
        assert!(!r.epochs.is_empty());
    }

    #[test]
    fn epoch_quota_splits_run() {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let wl = streaming_workload(spec.geometry.gpe_count(), 500, 8);
        let mut m = Machine::new(spec, TransmuterConfig::baseline());
        let r = m.run(&wl);
        // 500 loads + 1000 flops = 1500 fp ops per GPE -> 5 epochs.
        assert_eq!(r.epochs.len(), 5);
        for e in &r.epochs {
            assert!(e.fp_ops > 0);
        }
        let sum: u64 = r.epochs.iter().map(|e| e.fp_ops).sum();
        assert_eq!(sum, r.fp_ops);
    }

    #[test]
    fn sequential_stream_hits_after_warmup() {
        let spec = MachineSpec::default();
        let wl = streaming_workload(spec.geometry.gpe_count(), 2000, 8);
        let mut m = Machine::new(spec, TransmuterConfig::best_avg_cache());
        let r = m.run(&wl);
        let last = r.epochs.last().unwrap();
        // 8-byte stride in 32-byte lines: at most 1 miss per 4 accesses.
        assert!(
            last.telemetry.l1_miss_rate < 0.30,
            "sequential stream miss rate {}",
            last.telemetry.l1_miss_rate
        );
    }

    #[test]
    fn slower_clock_saves_energy_when_memory_bound() {
        let spec = MachineSpec::default().with_bandwidth_gbps(0.5);
        // Pointer-chase-like random strides to stay memory bound.
        let n = spec.geometry.gpe_count();
        let streams: Vec<Vec<Op>> = (0..n)
            .map(|g| {
                let mut x = 12345u64 + g as u64;
                (0..3000)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        Op::Load {
                            addr: (x >> 20) % (1 << 24),
                            pc: (x % 13) as u32,
                        }
                    })
                    .collect()
            })
            .collect();
        let wl = Workload::new("random", vec![Phase::new("random", streams)]);

        let mut fast = Machine::new(spec, TransmuterConfig::baseline());
        let rf = fast.run(&wl);
        let mut slow_cfg = TransmuterConfig::baseline();
        slow_cfg.clock = ClockFreq::Mhz125;
        let mut slow = Machine::new(spec, slow_cfg);
        let rs = slow.run(&wl);

        // Memory bound: slowdown should be mild, energy saving real.
        assert!(
            rs.time_s < rf.time_s * 1.6,
            "slow {} vs fast {}",
            rs.time_s,
            rf.time_s
        );
        assert!(
            rs.energy_j < rf.energy_j,
            "slow should save energy: {} vs {}",
            rs.energy_j,
            rf.energy_j
        );
    }

    #[test]
    fn bandwidth_limits_random_traffic() {
        let spec_slow = MachineSpec::default().with_bandwidth_gbps(0.25);
        let spec_fast = MachineSpec::default().with_bandwidth_gbps(8.0);
        let wl = streaming_workload(16, 1000, 4096); // line-missing strides
        let t_slow = Machine::new(spec_slow, TransmuterConfig::baseline())
            .run(&wl)
            .time_s;
        let t_fast = Machine::new(spec_fast, TransmuterConfig::baseline())
            .run(&wl)
            .time_s;
        assert!(
            t_slow > 3.0 * t_fast,
            "bandwidth should matter: {t_slow} vs {t_fast}"
        );
    }

    #[test]
    fn reconfiguration_mid_run_is_accounted() {
        struct SwitchOnce;
        impl Controller for SwitchOnce {
            fn on_epoch(&mut self, record: &EpochRecord) -> Option<TransmuterConfig> {
                if record.index == 0 {
                    let mut c = record.config;
                    c.clock = ClockFreq::Mhz250;
                    Some(c)
                } else {
                    None
                }
            }
        }
        let spec = MachineSpec::default().with_epoch_ops(300);
        let wl = streaming_workload(16, 500, 8);
        let mut m = Machine::new(spec, TransmuterConfig::baseline());
        let r = m.run_with_controller(&wl, &mut SwitchOnce);
        assert!(r.epochs.len() >= 2);
        assert_eq!(r.epochs[0].config.clock, ClockFreq::Mhz1000);
        assert_eq!(r.epochs[1].config.clock, ClockFreq::Mhz250);
        assert!(r.epochs[1].reconfig_time_s > 0.0);
    }

    #[test]
    fn epoch_content_is_config_independent() {
        let spec = MachineSpec::default().with_epoch_ops(250);
        let wl = streaming_workload(16, 400, 8);
        let mut a = Machine::new(spec, TransmuterConfig::baseline());
        let ra = a.run(&wl);
        let mut b = Machine::new(spec, TransmuterConfig::maximum());
        let rb = b.run(&wl);
        assert_eq!(ra.epochs.len(), rb.epochs.len());
        for (ea, eb) in ra.epochs.iter().zip(&rb.epochs) {
            assert_eq!(ea.fp_ops, eb.fp_ops, "epoch {} content differs", ea.index);
            assert_eq!(ea.metrics.flops, eb.metrics.flops);
        }
    }

    #[test]
    fn shared_l1_contends_private_does_not() {
        // All GPEs hammer the same line: in shared mode one bank
        // serialises them.
        let streams: Vec<Vec<Op>> = (0..16)
            .map(|_| (0..500).map(|_| Op::Load { addr: 64, pc: 3 }).collect())
            .collect();
        let wl = Workload::new("hot", vec![Phase::new("hot", streams)]);
        let mut shared_cfg = TransmuterConfig::baseline();
        shared_cfg.prefetch_degree = 0;
        let mut private_cfg = shared_cfg;
        private_cfg.l1_sharing = SharingMode::Private;

        let rs = Machine::new(MachineSpec::default(), shared_cfg).run(&wl);
        let rp = Machine::new(MachineSpec::default(), private_cfg).run(&wl);
        let cs = rs.epochs.last().unwrap().telemetry.l1_xbar_contention_ratio;
        let cp = rp.epochs.last().unwrap().telemetry.l1_xbar_contention_ratio;
        assert!(cs > 0.5, "shared hot bank should contend, got {cs}");
        assert_eq!(cp, 0.0, "private mode bypasses the crossbar");
        assert!(rp.time_s < rs.time_s);
    }

    #[test]
    fn spm_mode_serves_mapped_regions_quickly() {
        let region = Region {
            base: 0,
            bytes: 1 << 20,
        };
        let streams: Vec<Vec<Op>> = (0..16)
            .map(|g| {
                (0..1000)
                    .map(|i| Op::Load {
                        addr: (g as u64 * 4096 + i * 8) % (1 << 20),
                        pc: 1,
                    })
                    .collect()
            })
            .collect();
        let phase = Phase::new("spm", streams).with_spm_regions(vec![region]);
        let wl = Workload::new("spm", vec![phase]);
        let mut cfg = TransmuterConfig::best_avg_spm();
        cfg.l2_sharing = SharingMode::Shared;
        let r = Machine::new(MachineSpec::default(), cfg).run(&wl);
        // Every access is an SPM hit: no off-chip reads at all.
        let t = r.epochs.last().unwrap().telemetry;
        assert_eq!(t.mem_read_util, 0.0);
        assert_eq!(t.l1_miss_rate, 0.0);
    }

    #[test]
    fn reference_path_is_bit_identical_to_soa_path() {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let wl = streaming_workload(16, 600, 8);
        let r_soa = Machine::new(spec, TransmuterConfig::baseline()).run(&wl);
        let r_ref = Machine::new(spec, TransmuterConfig::baseline()).run_reference(&wl);
        assert_eq!(r_soa, r_ref);
    }

    #[test]
    #[should_panic(expected = "compile-time")]
    fn changing_l1_kind_at_runtime_panics() {
        let mut m = Machine::new(MachineSpec::default(), TransmuterConfig::baseline());
        m.apply_config(TransmuterConfig::best_avg_spm());
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let wl = streaming_workload(16, 500, 8);
        let mut m = Machine::new(spec, TransmuterConfig::baseline());
        m.run(&wl);
        let snap = m.snapshot();
        // Byte round trip is lossless.
        let decoded = MachineState::from_bytes(&snap.to_bytes()).expect("decodes");
        assert_eq!(snap, decoded);
        assert_eq!(snap.digest(), decoded.digest());
        // Restoring into a fresh machine reproduces the state.
        let mut fresh = Machine::new(spec, TransmuterConfig::baseline());
        assert_ne!(fresh.snapshot().digest(), snap.digest());
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap);
        assert_eq!(fresh.snapshot().digest(), snap.digest());
    }

    #[test]
    fn corrupt_snapshot_bytes_fail_to_decode() {
        let m = Machine::new(MachineSpec::default(), TransmuterConfig::baseline());
        let mut bytes = m.snapshot().to_bytes();
        assert!(MachineState::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        bytes.push(0);
        assert!(MachineState::from_bytes(&bytes).is_none(), "trailing bytes");
    }

    /// A minimal in-memory epoch cache for tests.
    #[derive(Default)]
    struct MapHook {
        map: std::collections::HashMap<EpochBoundary, std::sync::Arc<CachedEpoch>>,
        hits: usize,
        misses: usize,
    }

    impl EpochHook for MapHook {
        fn lookup(&mut self, b: &EpochBoundary) -> Option<std::sync::Arc<CachedEpoch>> {
            let found = self.map.get(b).cloned();
            if found.is_some() {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            found
        }

        fn record(&mut self, b: &EpochBoundary, e: CachedEpoch) {
            self.map.insert(*b, std::sync::Arc::new(e));
        }
    }

    #[test]
    fn hooked_rerun_hits_every_epoch_and_is_bit_identical() {
        let spec = MachineSpec::default().with_epoch_ops(300);
        let wl = streaming_workload(16, 500, 8);
        let plain = Machine::new(spec, TransmuterConfig::baseline()).run(&wl);

        let mut hook = MapHook::default();
        let cold = Machine::new(spec, TransmuterConfig::baseline()).run_with_hook(&wl, &mut hook);
        assert_eq!(cold, plain, "a cold hooked run must not change results");
        assert_eq!(hook.hits, 0);

        let warm = Machine::new(spec, TransmuterConfig::baseline()).run_with_hook(&wl, &mut hook);
        assert_eq!(warm, plain, "a warm hooked run must be bit-identical");
        assert_eq!(warm.epochs.len(), hook.hits, "every epoch should hit");
    }

    #[test]
    fn live_controller_reuses_static_epochs_up_to_first_reconfig() {
        struct SwitchOnce;
        impl Controller for SwitchOnce {
            fn on_epoch(&mut self, record: &EpochRecord) -> Option<TransmuterConfig> {
                if record.index == 1 {
                    let mut c = record.config;
                    c.clock = ClockFreq::Mhz250;
                    Some(c)
                } else {
                    None
                }
            }
        }
        let spec = MachineSpec::default().with_epoch_ops(300);
        let wl = streaming_workload(16, 500, 8);
        let plain = Machine::new(spec, TransmuterConfig::baseline())
            .run_with_controller(&wl, &mut SwitchOnce);

        // Warm the cache with a static (no-reconfiguration) run, as a
        // sweep would.
        let mut hook = MapHook::default();
        Machine::new(spec, TransmuterConfig::baseline()).run_with_hook(&wl, &mut hook);
        let warmed = hook.map.len();

        // The live run must reuse the static epochs until its first
        // reconfiguration diverges the machine state, then simulate (and
        // record) its own epochs — bit-identically either way.
        hook.hits = 0;
        hook.misses = 0;
        let live = Machine::new(spec, TransmuterConfig::baseline()).run_with_controller_and_hook(
            &wl,
            &mut SwitchOnce,
            &mut hook,
        );
        assert_eq!(live, plain);
        // Epochs 0 and 1 run under the baseline config from shared
        // states; the reconfiguration lands entering epoch 2.
        assert_eq!(hook.hits, 2, "pre-reconfiguration epochs should hit");
        assert!(hook.map.len() > warmed, "post-reconfig epochs get recorded");

        // A second identical live run now hits everywhere.
        hook.hits = 0;
        let again = Machine::new(spec, TransmuterConfig::baseline()).run_with_controller_and_hook(
            &wl,
            &mut SwitchOnce,
            &mut hook,
        );
        assert_eq!(again, plain);
        assert_eq!(hook.hits, again.epochs.len());
    }
}
