//! The hardware configuration space of Table 1 and the machine geometry.

use serde::{Deserialize, Serialize};

/// On-chip memory type of the L1 banks (selected at compile time, §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MemKind {
    /// Hardware-managed set-associative cache.
    #[default]
    Cache,
    /// Software-managed scratchpad (tag array power-gated).
    Spm,
}

/// Sharing mode of a memory layer (§3.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SharingMode {
    /// All requesters interleave across all banks of the layer through the
    /// crossbar: arbitration latency, but no duplication and better reuse.
    #[default]
    Shared,
    /// Each requester owns its bank: fixed one-cycle access, possible
    /// duplication of shared data.
    Private,
}

/// Global DVFS clock (§3.2.1): a divider chain f, f/2, …, f/32 from a
/// 1 GHz system clock.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum ClockFreq {
    /// 31.25 MHz (f/32).
    Mhz31,
    /// 62.5 MHz (f/16).
    Mhz62,
    /// 125 MHz (f/8).
    Mhz125,
    /// 250 MHz (f/4).
    Mhz250,
    /// 500 MHz (f/2).
    Mhz500,
    /// 1 GHz (f).
    #[default]
    Mhz1000,
}

impl ClockFreq {
    /// All six steps, slowest first.
    pub const ALL: [ClockFreq; 6] = [
        ClockFreq::Mhz31,
        ClockFreq::Mhz62,
        ClockFreq::Mhz125,
        ClockFreq::Mhz250,
        ClockFreq::Mhz500,
        ClockFreq::Mhz1000,
    ];

    /// Frequency in MHz.
    pub fn mhz(self) -> f64 {
        match self {
            ClockFreq::Mhz31 => 31.25,
            ClockFreq::Mhz62 => 62.5,
            ClockFreq::Mhz125 => 125.0,
            ClockFreq::Mhz250 => 250.0,
            ClockFreq::Mhz500 => 500.0,
            ClockFreq::Mhz1000 => 1000.0,
        }
    }

    /// Clock period in integer picoseconds (1 GHz → 1000 ps,
    /// 31.25 MHz → 32000 ps).
    pub fn period_ps(self) -> u64 {
        match self {
            ClockFreq::Mhz31 => 32_000,
            ClockFreq::Mhz62 => 16_000,
            ClockFreq::Mhz125 => 8_000,
            ClockFreq::Mhz250 => 4_000,
            ClockFreq::Mhz500 => 2_000,
            ClockFreq::Mhz1000 => 1_000,
        }
    }

    /// Ordinal index in [`ClockFreq::ALL`].
    pub fn index(self) -> usize {
        ClockFreq::ALL
            .iter()
            .position(|&c| c == self)
            .expect("ALL is exhaustive")
    }
}

/// Bank capacities explored for both layers (kB).
pub const CAPACITIES_KB: [u32; 5] = [4, 8, 16, 32, 64];

/// Prefetcher aggressiveness steps (lines ahead; 0 = off).
pub const PREFETCH_DEGREES: [u8; 3] = [0, 4, 8];

/// One point in the Table 1 configuration space.
///
/// Construct with the named reference points ([`TransmuterConfig::baseline`]
/// and friends, Table 4) or by mutating a copy through
/// [`ConfigParam::set_index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransmuterConfig {
    /// L1 memory type (compile-time; not predicted at run time).
    pub l1_kind: MemKind,
    /// L1 layer sharing mode.
    pub l1_sharing: SharingMode,
    /// L2 layer sharing mode.
    pub l2_sharing: SharingMode,
    /// L1 bank capacity in kB (one of [`CAPACITIES_KB`]; ignored for SPM).
    pub l1_capacity_kb: u32,
    /// L2 bank capacity in kB (one of [`CAPACITIES_KB`]).
    pub l2_capacity_kb: u32,
    /// Global clock.
    pub clock: ClockFreq,
    /// Prefetch degree (one of [`PREFETCH_DEGREES`]).
    pub prefetch_degree: u8,
}

impl Default for TransmuterConfig {
    fn default() -> Self {
        TransmuterConfig::baseline()
    }
}

impl TransmuterConfig {
    /// Table 4 "Baseline": 4 kB shared / 4 kB shared / 1 GHz / prefetch 4.
    pub fn baseline() -> Self {
        TransmuterConfig {
            l1_kind: MemKind::Cache,
            l1_sharing: SharingMode::Shared,
            l2_sharing: SharingMode::Shared,
            l1_capacity_kb: 4,
            l2_capacity_kb: 4,
            clock: ClockFreq::Mhz1000,
            prefetch_degree: 4,
        }
    }

    /// Table 4 "Best Avg (L1: cache)": 4 kB private / 4 kB shared /
    /// 1 GHz / prefetch 0.
    pub fn best_avg_cache() -> Self {
        TransmuterConfig {
            l1_kind: MemKind::Cache,
            l1_sharing: SharingMode::Private,
            l2_sharing: SharingMode::Shared,
            l1_capacity_kb: 4,
            l2_capacity_kb: 4,
            clock: ClockFreq::Mhz1000,
            prefetch_degree: 0,
        }
    }

    /// Table 4 "Best Avg (L1: SPM)": 4 kB private / 32 kB private /
    /// 500 MHz / prefetch 8.
    pub fn best_avg_spm() -> Self {
        TransmuterConfig {
            l1_kind: MemKind::Spm,
            l1_sharing: SharingMode::Private,
            l2_sharing: SharingMode::Private,
            l1_capacity_kb: 4,
            l2_capacity_kb: 32,
            clock: ClockFreq::Mhz500,
            prefetch_degree: 8,
        }
    }

    /// Table 4 "Maximum": 64 kB shared / 64 kB shared / 1 GHz / prefetch 8.
    pub fn maximum() -> Self {
        TransmuterConfig {
            l1_kind: MemKind::Cache,
            l1_sharing: SharingMode::Shared,
            l2_sharing: SharingMode::Shared,
            l1_capacity_kb: 64,
            l2_capacity_kb: 64,
            clock: ClockFreq::Mhz1000,
            prefetch_degree: 8,
        }
    }

    /// Enumerates the runtime-predicted space for a fixed L1 kind:
    /// 2 × 2 × 5 × 5 × 6 × 3 = 1 800 configurations.
    pub fn runtime_space(l1_kind: MemKind) -> Vec<TransmuterConfig> {
        let mut out = Vec::with_capacity(1_800);
        for &l1_sharing in &[SharingMode::Shared, SharingMode::Private] {
            for &l2_sharing in &[SharingMode::Shared, SharingMode::Private] {
                for &l1_cap in &CAPACITIES_KB {
                    for &l2_cap in &CAPACITIES_KB {
                        for &clock in &ClockFreq::ALL {
                            for &pf in &PREFETCH_DEGREES {
                                out.push(TransmuterConfig {
                                    l1_kind,
                                    l1_sharing,
                                    l2_sharing,
                                    l1_capacity_kb: l1_cap,
                                    l2_capacity_kb: l2_cap,
                                    clock,
                                    prefetch_degree: pf,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Axis-aligned neighbours: every configuration reachable by moving
    /// exactly one parameter one step (ordinals ±1, categoricals flipped).
    /// This is the neighbourhood evaluated in step 2 of the paper's
    /// best-config search (Fig 4a).
    pub fn axis_neighbors(&self) -> Vec<TransmuterConfig> {
        let mut out = Vec::new();
        for param in ConfigParam::ALL {
            let idx = param.get_index(self);
            for cand in [idx.wrapping_sub(1), idx + 1] {
                if cand < param.value_count() && cand != idx {
                    let mut c = *self;
                    param.set_index(&mut c, cand);
                    out.push(c);
                }
            }
        }
        out
    }

    /// A stable 64-bit fingerprint of this configuration point, suitable
    /// for trace-cache keys and on-disk cache filenames (unlike `Hash`,
    /// which std does not guarantee stable across releases).
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::workload::Fnv::new();
        h.write_u64(match self.l1_kind {
            MemKind::Cache => 0,
            MemKind::Spm => 1,
        });
        for param in ConfigParam::ALL {
            h.write_u64(param.get_index(self) as u64);
        }
        h.finish()
    }

    /// Compact short string for logs: `c-P/S-8/32-500-4` style.
    pub fn short(&self) -> String {
        format!(
            "{}-{}{}-{}k/{}k-{}MHz-pf{}",
            match self.l1_kind {
                MemKind::Cache => "c",
                MemKind::Spm => "s",
            },
            match self.l1_sharing {
                SharingMode::Shared => "S",
                SharingMode::Private => "P",
            },
            match self.l2_sharing {
                SharingMode::Shared => "S",
                SharingMode::Private => "P",
            },
            self.l1_capacity_kb,
            self.l2_capacity_kb,
            self.clock.mhz(),
            self.prefetch_degree
        )
    }
}

/// The six runtime-predicted configuration dimensions (§3.4 excludes the
/// L1 memory type, which is fixed at compile time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ConfigParam {
    /// L1 sharing mode (categorical).
    L1Sharing,
    /// L2 sharing mode (categorical).
    L2Sharing,
    /// L1 bank capacity (ordinal).
    L1Capacity,
    /// L2 bank capacity (ordinal).
    L2Capacity,
    /// Global clock (ordinal).
    Clock,
    /// Prefetch degree (ordinal).
    Prefetch,
}

impl ConfigParam {
    /// All six dimensions, in canonical order.
    pub const ALL: [ConfigParam; 6] = [
        ConfigParam::L1Sharing,
        ConfigParam::L2Sharing,
        ConfigParam::L1Capacity,
        ConfigParam::L2Capacity,
        ConfigParam::Clock,
        ConfigParam::Prefetch,
    ];

    /// Short stable name, used in dataset headers and model files.
    pub fn name(self) -> &'static str {
        match self {
            ConfigParam::L1Sharing => "l1_sharing",
            ConfigParam::L2Sharing => "l2_sharing",
            ConfigParam::L1Capacity => "l1_capacity",
            ConfigParam::L2Capacity => "l2_capacity",
            ConfigParam::Clock => "clock",
            ConfigParam::Prefetch => "prefetch",
        }
    }

    /// Number of discrete values along this dimension.
    pub fn value_count(self) -> usize {
        match self {
            ConfigParam::L1Sharing | ConfigParam::L2Sharing => 2,
            ConfigParam::L1Capacity | ConfigParam::L2Capacity => CAPACITIES_KB.len(),
            ConfigParam::Clock => ClockFreq::ALL.len(),
            ConfigParam::Prefetch => PREFETCH_DEGREES.len(),
        }
    }

    /// The ordinal index of this dimension's value in `cfg`.
    pub fn get_index(self, cfg: &TransmuterConfig) -> usize {
        match self {
            ConfigParam::L1Sharing => (cfg.l1_sharing == SharingMode::Private) as usize,
            ConfigParam::L2Sharing => (cfg.l2_sharing == SharingMode::Private) as usize,
            ConfigParam::L1Capacity => cap_index(cfg.l1_capacity_kb),
            ConfigParam::L2Capacity => cap_index(cfg.l2_capacity_kb),
            ConfigParam::Clock => cfg.clock.index(),
            ConfigParam::Prefetch => PREFETCH_DEGREES
                .iter()
                .position(|&d| d == cfg.prefetch_degree)
                .expect("prefetch degree is one of PREFETCH_DEGREES"),
        }
    }

    /// Sets this dimension of `cfg` to the value at ordinal index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.value_count()`.
    pub fn set_index(self, cfg: &mut TransmuterConfig, idx: usize) {
        assert!(
            idx < self.value_count(),
            "index {idx} out of range for {self:?}"
        );
        match self {
            ConfigParam::L1Sharing => {
                cfg.l1_sharing = if idx == 1 {
                    SharingMode::Private
                } else {
                    SharingMode::Shared
                }
            }
            ConfigParam::L2Sharing => {
                cfg.l2_sharing = if idx == 1 {
                    SharingMode::Private
                } else {
                    SharingMode::Shared
                }
            }
            ConfigParam::L1Capacity => cfg.l1_capacity_kb = CAPACITIES_KB[idx],
            ConfigParam::L2Capacity => cfg.l2_capacity_kb = CAPACITIES_KB[idx],
            ConfigParam::Clock => cfg.clock = ClockFreq::ALL[idx],
            ConfigParam::Prefetch => cfg.prefetch_degree = PREFETCH_DEGREES[idx],
        }
    }

    /// All configurations obtained by sweeping this dimension of `cfg`
    /// while holding the others fixed (step 3 of Fig 4a).
    pub fn sweep(self, cfg: &TransmuterConfig) -> Vec<TransmuterConfig> {
        (0..self.value_count())
            .map(|i| {
                let mut c = *cfg;
                self.set_index(&mut c, i);
                c
            })
            .collect()
    }
}

fn cap_index(kb: u32) -> usize {
    CAPACITIES_KB
        .iter()
        .position(|&c| c == kb)
        .expect("capacity is one of CAPACITIES_KB")
}

/// Tile/GPE geometry of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Number of processing tiles (M); also the number of L2 banks.
    pub tiles: u32,
    /// GPEs per tile (N); also the number of L1 banks per tile.
    pub gpes_per_tile: u32,
}

impl Geometry {
    /// Total GPE count (M × N).
    pub fn gpe_count(self) -> usize {
        (self.tiles * self.gpes_per_tile) as usize
    }

    /// Total L1 bank count (one per GPE).
    pub fn l1_bank_count(self) -> usize {
        self.gpe_count()
    }

    /// Total L2 bank count (one per tile).
    pub fn l2_bank_count(self) -> usize {
        self.tiles as usize
    }

    /// The tile that owns a GPE.
    pub fn tile_of(self, gpe: usize) -> usize {
        gpe / self.gpes_per_tile as usize
    }
}

impl Default for Geometry {
    /// The evaluated 2×8 system (§5.2).
    fn default() -> Self {
        Geometry {
            tiles: 2,
            gpes_per_tile: 8,
        }
    }
}

/// Fixed (non-reconfigurable) parameters of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Tile/GPE geometry.
    pub geometry: Geometry,
    /// Off-chip memory bandwidth in GB/s (§5.2 uses 1 GB/s to keep the
    /// small system's compute-to-memory ratio representative).
    pub mem_bw_gbps: f64,
    /// Epoch size: mean FP-ops (including loads/stores) per GPE between
    /// telemetry snapshots (500 for SpMSpV, 5 000 for SpMSpM, §5.4).
    pub epoch_ops: u64,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Cache associativity for both layers.
    pub ways: u32,
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec {
            geometry: Geometry::default(),
            mem_bw_gbps: 1.0,
            epoch_ops: 5_000,
            line_bytes: 32,
            ways: 4,
        }
    }
}

impl MachineSpec {
    /// Spec with a different epoch size.
    pub fn with_epoch_ops(mut self, epoch_ops: u64) -> Self {
        self.epoch_ops = epoch_ops;
        self
    }

    /// Spec with a different off-chip bandwidth.
    pub fn with_bandwidth_gbps(mut self, gbps: f64) -> Self {
        self.mem_bw_gbps = gbps;
        self
    }

    /// Spec with a different geometry.
    pub fn with_geometry(mut self, tiles: u32, gpes_per_tile: u32) -> Self {
        self.geometry = Geometry {
            tiles,
            gpes_per_tile,
        };
        self
    }

    /// A stable 64-bit fingerprint of every spec field, for trace-cache
    /// keys (`mem_bw_gbps` is hashed by bit pattern).
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::workload::Fnv::new();
        h.write_u64(self.geometry.tiles as u64);
        h.write_u64(self.geometry.gpes_per_tile as u64);
        h.write_u64(self.mem_bw_gbps.to_bits());
        h.write_u64(self.epoch_ops);
        h.write_u64(self.line_bytes as u64);
        h.write_u64(self.ways as u64);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_space_has_1800_configs() {
        let space = TransmuterConfig::runtime_space(MemKind::Cache);
        assert_eq!(space.len(), 1_800);
        // all distinct
        let set: std::collections::HashSet<_> = space.iter().collect();
        assert_eq!(set.len(), 1_800);
    }

    #[test]
    fn param_roundtrip() {
        let mut cfg = TransmuterConfig::baseline();
        for p in ConfigParam::ALL {
            for i in 0..p.value_count() {
                p.set_index(&mut cfg, i);
                assert_eq!(p.get_index(&cfg), i, "{p:?} index {i}");
            }
        }
    }

    #[test]
    fn axis_neighbors_move_one_step() {
        let cfg = TransmuterConfig::baseline();
        let n = cfg.axis_neighbors();
        assert!(!n.is_empty());
        for nb in &n {
            let mut diffs = 0;
            for p in ConfigParam::ALL {
                let a = p.get_index(&cfg) as i64;
                let b = p.get_index(nb) as i64;
                if a != b {
                    diffs += 1;
                    assert_eq!((a - b).abs(), 1, "{p:?} moved more than one step");
                }
            }
            assert_eq!(diffs, 1);
        }
    }

    #[test]
    fn interior_point_has_ten_neighbors() {
        let mut cfg = TransmuterConfig::baseline();
        cfg.l1_capacity_kb = 16;
        cfg.l2_capacity_kb = 16;
        cfg.clock = ClockFreq::Mhz250;
        cfg.prefetch_degree = 4;
        // 4 interior ordinals x 2 directions + 2 binary categoricals x 1 flip.
        assert_eq!(cfg.axis_neighbors().len(), 10);
    }

    #[test]
    fn clock_period_matches_mhz() {
        for c in ClockFreq::ALL {
            let period_s = c.period_ps() as f64 * 1e-12;
            let freq = 1.0 / period_s / 1e6;
            assert!((freq - c.mhz()).abs() < 1e-6, "{c:?}");
        }
    }

    #[test]
    fn table4_configs() {
        assert_eq!(
            TransmuterConfig::baseline().short(),
            "c-SS-4k/4k-1000MHz-pf4"
        );
        assert_eq!(
            TransmuterConfig::maximum().short(),
            "c-SS-64k/64k-1000MHz-pf8"
        );
        assert_eq!(
            TransmuterConfig::best_avg_spm().short(),
            "s-PP-4k/32k-500MHz-pf8"
        );
    }

    #[test]
    fn fingerprints_distinguish_configs_and_specs() {
        let space = TransmuterConfig::runtime_space(MemKind::Cache);
        let fps: std::collections::HashSet<u64> =
            space.iter().map(TransmuterConfig::fingerprint).collect();
        assert_eq!(fps.len(), space.len(), "config fingerprint collision");
        let mut spm = TransmuterConfig::baseline();
        spm.l1_kind = MemKind::Spm;
        assert_ne!(
            spm.fingerprint(),
            TransmuterConfig::baseline().fingerprint()
        );

        let spec = MachineSpec::default();
        assert_eq!(spec.fingerprint(), MachineSpec::default().fingerprint());
        assert_ne!(spec.fingerprint(), spec.with_epoch_ops(500).fingerprint());
        assert_ne!(
            spec.fingerprint(),
            spec.with_bandwidth_gbps(2.0).fingerprint()
        );
    }

    #[test]
    fn geometry_tile_of() {
        let g = Geometry::default();
        assert_eq!(g.tile_of(0), 0);
        assert_eq!(g.tile_of(7), 0);
        assert_eq!(g.tile_of(8), 1);
        assert_eq!(g.gpe_count(), 16);
    }
}
