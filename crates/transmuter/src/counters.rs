//! Hardware performance counters (Table 2) and the per-epoch telemetry
//! snapshot fed to the predictive model.
//!
//! Raw counters are accumulated by the machine during an epoch, then
//! averaged spatially (across replicated hardware blocks) and normalised
//! temporally (to the elapsed cycle count) at the epoch boundary — the
//! light-weight pre-processing the paper's runtime performs on received
//! telemetry (§3.3).

use serde::{Deserialize, Serialize};

/// Raw counters accumulated over one epoch, before normalisation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RawEpochCounters {
    /// Demand accesses summed over L1 banks.
    pub l1_accesses: u64,
    /// Demand misses summed over L1 banks.
    pub l1_misses: u64,
    /// Prefetches issued at the L1 layer.
    pub l1_prefetches: u64,
    /// Mean fraction of valid tags across L1 banks, sampled at the
    /// epoch boundary.
    pub l1_occupancy: f64,
    /// Demand accesses summed over L2 banks.
    pub l2_accesses: u64,
    /// Demand misses summed over L2 banks.
    pub l2_misses: u64,
    /// Prefetches installed at the L2 layer.
    pub l2_prefetches: u64,
    /// Mean fraction of valid tags across L2 banks.
    pub l2_occupancy: f64,
    /// Crossings through the GPE↔L1 crossbar layer.
    pub l1_xbar_accesses: u64,
    /// Delayed crossings (another requester held the bank).
    pub l1_xbar_contentions: u64,
    /// Crossings through the tile↔L2 crossbar layer.
    pub l2_xbar_accesses: u64,
    /// Delayed crossings at the L2 layer.
    pub l2_xbar_contentions: u64,
    /// Pure floating-point operations executed by GPEs.
    pub gpe_flops: u64,
    /// Integer/bookkeeping operations executed by GPEs.
    pub gpe_int_ops: u64,
    /// Loads issued by GPEs.
    pub gpe_loads: u64,
    /// Stores issued by GPEs.
    pub gpe_stores: u64,
    /// Bookkeeping operations executed by LCPs.
    pub lcp_ops: f64,
    /// Bytes read from HBM.
    pub mem_bytes_read: u64,
    /// Bytes written to HBM.
    pub mem_bytes_written: u64,
}

impl RawEpochCounters {
    /// FP ops in the paper's epoch currency: FP + loads + stores.
    pub fn fp_ops(&self) -> u64 {
        self.gpe_flops + self.gpe_loads + self.gpe_stores
    }

    /// Folds every counter into a digest.
    pub(crate) fn digest_into(&self, h: &mut fxhash::FxHasher) {
        use std::hash::Hasher as _;
        h.write_u64(self.l1_accesses);
        h.write_u64(self.l1_misses);
        h.write_u64(self.l1_prefetches);
        h.write_u64(self.l1_occupancy.to_bits());
        h.write_u64(self.l2_accesses);
        h.write_u64(self.l2_misses);
        h.write_u64(self.l2_prefetches);
        h.write_u64(self.l2_occupancy.to_bits());
        h.write_u64(self.l1_xbar_accesses);
        h.write_u64(self.l1_xbar_contentions);
        h.write_u64(self.l2_xbar_accesses);
        h.write_u64(self.l2_xbar_contentions);
        h.write_u64(self.gpe_flops);
        h.write_u64(self.gpe_int_ops);
        h.write_u64(self.gpe_loads);
        h.write_u64(self.gpe_stores);
        h.write_u64(self.lcp_ops.to_bits());
        h.write_u64(self.mem_bytes_read);
        h.write_u64(self.mem_bytes_written);
    }
}

/// The normalised telemetry snapshot — one row of predictive-model input.
///
/// Everything is averaged across hardware instances and normalised to the
/// epoch's elapsed cycles (throughputs) or expressed as ratios, so the
/// features are comparable across epochs of different lengths and clocks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Telemetry {
    /// L1 demand accesses per cycle per bank.
    pub l1_access_throughput: f64,
    /// Fraction of valid L1 tags.
    pub l1_occupancy: f64,
    /// L1 demand miss rate.
    pub l1_miss_rate: f64,
    /// Prefetches issued per L1 demand access.
    pub l1_prefetch_per_access: f64,
    /// Active L1 bank capacity (kB).
    pub l1_capacity_kb: f64,
    /// L2 demand accesses per cycle per bank.
    pub l2_access_throughput: f64,
    /// Fraction of valid L2 tags.
    pub l2_occupancy: f64,
    /// L2 demand miss rate.
    pub l2_miss_rate: f64,
    /// Prefetches installed per L2 demand access.
    pub l2_prefetch_per_access: f64,
    /// Active L2 bank capacity (kB).
    pub l2_capacity_kb: f64,
    /// Contention-to-access ratio of the GPE↔L1 crossbars.
    pub l1_xbar_contention_ratio: f64,
    /// Contention-to-access ratio of the tile↔L2 crossbars.
    pub l2_xbar_contention_ratio: f64,
    /// GPE floating-point instructions (incl. loads/stores) per cycle.
    pub gpe_fp_ipc: f64,
    /// GPE overall instructions per cycle.
    pub gpe_ipc: f64,
    /// LCP instructions per cycle.
    pub lcp_ipc: f64,
    /// Active clock in MHz.
    pub clock_mhz: f64,
    /// Read bandwidth used / available.
    pub mem_read_util: f64,
    /// Write bandwidth used / available.
    pub mem_write_util: f64,
}

/// Stable feature names, aligned with [`Telemetry::to_features`].
pub const TELEMETRY_FEATURES: [&str; 18] = [
    "l1_access_throughput",
    "l1_occupancy",
    "l1_miss_rate",
    "l1_prefetch_per_access",
    "l1_capacity_kb",
    "l2_access_throughput",
    "l2_occupancy",
    "l2_miss_rate",
    "l2_prefetch_per_access",
    "l2_capacity_kb",
    "l1_xbar_contention_ratio",
    "l2_xbar_contention_ratio",
    "gpe_fp_ipc",
    "gpe_ipc",
    "lcp_ipc",
    "clock_mhz",
    "mem_read_util",
    "mem_write_util",
];

impl Telemetry {
    /// Builds the snapshot from raw counters.
    ///
    /// `elapsed_cycles` is the epoch duration in core cycles,
    /// `bw_capacity_bytes` the bytes the HBM interface could have moved in
    /// the epoch window, and the bank counts give the spatial averages.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw(
        raw: &RawEpochCounters,
        elapsed_cycles: f64,
        bw_capacity_bytes: f64,
        l1_banks: usize,
        l2_banks: usize,
        gpes: usize,
        l1_capacity_kb: u32,
        l2_capacity_kb: u32,
        clock_mhz: f64,
    ) -> Telemetry {
        let cyc = elapsed_cycles.max(1.0);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let gpe_fp = raw.fp_ops() as f64;
        let gpe_all = gpe_fp + raw.gpe_int_ops as f64;
        Telemetry {
            l1_access_throughput: raw.l1_accesses as f64 / cyc / l1_banks as f64,
            l1_occupancy: raw.l1_occupancy,
            l1_miss_rate: ratio(raw.l1_misses, raw.l1_accesses),
            l1_prefetch_per_access: ratio(raw.l1_prefetches, raw.l1_accesses),
            l1_capacity_kb: l1_capacity_kb as f64,
            l2_access_throughput: raw.l2_accesses as f64 / cyc / l2_banks as f64,
            l2_occupancy: raw.l2_occupancy,
            l2_miss_rate: ratio(raw.l2_misses, raw.l2_accesses),
            l2_prefetch_per_access: ratio(raw.l2_prefetches, raw.l2_accesses),
            l2_capacity_kb: l2_capacity_kb as f64,
            l1_xbar_contention_ratio: ratio(raw.l1_xbar_contentions, raw.l1_xbar_accesses),
            l2_xbar_contention_ratio: ratio(raw.l2_xbar_contentions, raw.l2_xbar_accesses),
            gpe_fp_ipc: gpe_fp / cyc / gpes as f64,
            gpe_ipc: gpe_all / cyc / gpes as f64,
            lcp_ipc: raw.lcp_ops / cyc,
            clock_mhz,
            mem_read_util: (raw.mem_bytes_read as f64 / bw_capacity_bytes.max(1.0)).min(1.0),
            mem_write_util: (raw.mem_bytes_written as f64 / bw_capacity_bytes.max(1.0)).min(1.0),
        }
    }

    /// The snapshot as a feature vector, ordered per
    /// [`TELEMETRY_FEATURES`].
    pub fn to_features(&self) -> Vec<f64> {
        vec![
            self.l1_access_throughput,
            self.l1_occupancy,
            self.l1_miss_rate,
            self.l1_prefetch_per_access,
            self.l1_capacity_kb,
            self.l2_access_throughput,
            self.l2_occupancy,
            self.l2_miss_rate,
            self.l2_prefetch_per_access,
            self.l2_capacity_kb,
            self.l1_xbar_contention_ratio,
            self.l2_xbar_contention_ratio,
            self.gpe_fp_ipc,
            self.gpe_ipc,
            self.lcp_ipc,
            self.clock_mhz,
            self.mem_read_util,
            self.mem_write_util,
        ]
    }

    /// The counter class of each feature, for the Figure 10 grouping.
    pub fn feature_class(index: usize) -> &'static str {
        match index {
            0..=4 => "L1 R-DCache",
            5..=9 => "L2 R-DCache",
            10 | 11 => "R-XBar",
            12 | 13 => "GPE",
            14 => "LCP",
            15 => "Clock",
            16 | 17 => "MemCtrl",
            _ => "unknown",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw() -> RawEpochCounters {
        RawEpochCounters {
            l1_accesses: 1_000,
            l1_misses: 100,
            l1_prefetches: 50,
            l1_occupancy: 0.5,
            l2_accesses: 150,
            l2_misses: 90,
            l2_prefetches: 10,
            l2_occupancy: 0.8,
            l1_xbar_accesses: 1_000,
            l1_xbar_contentions: 200,
            l2_xbar_accesses: 150,
            l2_xbar_contentions: 30,
            gpe_flops: 2_000,
            gpe_int_ops: 500,
            gpe_loads: 800,
            gpe_stores: 200,
            lcp_ops: 120.0,
            mem_bytes_read: 3_000,
            mem_bytes_written: 500,
        }
    }

    #[test]
    fn normalisation() {
        let t = Telemetry::from_raw(&raw(), 10_000.0, 10_000.0, 16, 2, 16, 8, 32, 500.0);
        assert!((t.l1_miss_rate - 0.1).abs() < 1e-12);
        assert!((t.l1_xbar_contention_ratio - 0.2).abs() < 1e-12);
        assert!((t.gpe_fp_ipc - 3_000.0 / 10_000.0 / 16.0).abs() < 1e-12);
        assert!((t.mem_read_util - 0.3).abs() < 1e-12);
        assert_eq!(t.l1_capacity_kb, 8.0);
        assert_eq!(t.clock_mhz, 500.0);
    }

    #[test]
    fn features_match_names() {
        let t = Telemetry::from_raw(&raw(), 10_000.0, 10_000.0, 16, 2, 16, 8, 32, 500.0);
        assert_eq!(t.to_features().len(), TELEMETRY_FEATURES.len());
    }

    #[test]
    fn zero_denominators_are_safe() {
        let t = Telemetry::from_raw(
            &RawEpochCounters::default(),
            0.0,
            0.0,
            16,
            2,
            16,
            4,
            4,
            1000.0,
        );
        for f in t.to_features() {
            assert!(f.is_finite());
        }
    }

    #[test]
    fn fp_ops_counts_loads_and_stores() {
        assert_eq!(raw().fp_ops(), 3_000);
    }

    #[test]
    fn feature_classes_cover_all_indices() {
        for i in 0..TELEMETRY_FEATURES.len() {
            assert_ne!(Telemetry::feature_class(i), "unknown", "index {i}");
        }
    }
}
