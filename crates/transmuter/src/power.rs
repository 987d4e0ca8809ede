//! Power and energy model.
//!
//! The paper builds its power estimator from RTL synthesis reports
//! (crossbars), Arm specifications (cores) and CACTI (caches/SPM), scaled
//! to 14 nm. Those absolute numbers are unavailable, so this module uses
//! energy constants with the same *ordering and ratios* — the paper's
//! results are all reported as gains over the Baseline configuration, so
//! only relative costs matter (DESIGN.md §3).
//!
//! Reference points behind the constants (14 nm-era literature values):
//! a simple in-order integer core burns ~5–10 pJ/instr, an FP op with
//! register-file traffic ~15–25 pJ, a small SRAM access ~5–15 pJ growing
//! ~sub-linearly with capacity, a swizzle-switch crossbar crossing a few
//! pJ, and HBM ~25–40 pJ/byte end-to-end. Leakage of dense SRAM is a few
//! hundred nW/kB; cores leak a few mW each.

use serde::{Deserialize, Serialize};

use crate::config::{ClockFreq, MachineSpec, MemKind, TransmuterConfig};

/// Nominal supply voltage at the 1 GHz design point (V).
pub const VDD_NOMINAL: f64 = 0.9;
/// Threshold voltage (V).
pub const V_THRESHOLD: f64 = 0.3;
/// Nominal frequency corresponding to [`VDD_NOMINAL`] (MHz).
pub const F_NOMINAL_MHZ: f64 = 1000.0;

/// Solves the paper's DVFS equation (§3.2.1) for the supply voltage at a
/// target frequency:
///
/// `f / f_target = [(VDD − Vt)² / VDD] / [(V − Vt)² / V]`,
/// with the floor `V ≥ 1.3 · Vt` for correct functionality.
///
/// # Example
///
/// ```
/// use transmuter::power::{target_voltage, VDD_NOMINAL};
///
/// // Nominal frequency runs at nominal voltage.
/// assert!((target_voltage(1000.0) - VDD_NOMINAL).abs() < 1e-9);
/// // Lower frequencies run at lower voltages, never below 1.3 Vt.
/// let v = target_voltage(31.25);
/// assert!(v >= 0.39 - 1e-12 && v < VDD_NOMINAL);
/// ```
pub fn target_voltage(f_target_mhz: f64) -> f64 {
    assert!(f_target_mhz > 0.0, "frequency must be positive");
    let k_nominal = (VDD_NOMINAL - V_THRESHOLD).powi(2) / VDD_NOMINAL;
    // Want (V - Vt)^2 / V = k_nominal * f_target / f_nominal  =: k.
    let k = k_nominal * f_target_mhz / F_NOMINAL_MHZ;
    // (V - Vt)^2 = k V  =>  V^2 - (2 Vt + k) V + Vt^2 = 0.
    let b = 2.0 * V_THRESHOLD + k;
    let disc = b * b - 4.0 * V_THRESHOLD * V_THRESHOLD;
    let v = (b + disc.sqrt()) / 2.0;
    v.max(1.3 * V_THRESHOLD)
}

/// Dynamic-energy scale factor at a clock step: `(V / VDD)²` (§3.2.1).
pub fn dynamic_scale(clock: ClockFreq) -> f64 {
    let v = target_voltage(clock.mhz());
    (v / VDD_NOMINAL).powi(2)
}

/// Static-power scale factor at a clock step: leakage is roughly
/// proportional to V.
pub fn static_scale(clock: ClockFreq) -> f64 {
    target_voltage(clock.mhz()) / VDD_NOMINAL
}

/// Per-event energy constants at nominal voltage, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyTable {
    /// One floating-point operation on a GPE.
    pub fp_op: f64,
    /// One integer / bookkeeping operation.
    pub int_op: f64,
    /// Base energy of a 4 kB cache-bank access.
    pub cache_access_base: f64,
    /// Additional energy per doubling of bank capacity beyond 4 kB.
    pub cache_access_per_doubling: f64,
    /// SPM access relative to an equal-capacity cache access (tag array
    /// and comparators power-gated).
    pub spm_access_factor: f64,
    /// One crossbar crossing.
    pub xbar_crossing: f64,
    /// Off-chip HBM transfer, per byte.
    pub hbm_per_byte: f64,
    /// SRAM leakage per kB, in watts at nominal voltage.
    pub leakage_per_kb: f64,
    /// Per-core (GPE) static + clock-tree power at nominal voltage and
    /// 1 GHz, in watts. The clock-tree share scales with frequency.
    pub core_static: f64,
    /// Fraction of `core_static` that is clock-tree (scales with f).
    pub core_clock_fraction: f64,
}

impl Default for EnergyTable {
    fn default() -> Self {
        EnergyTable {
            fp_op: 20e-12,
            int_op: 8e-12,
            cache_access_base: 10e-12,
            cache_access_per_doubling: 3.5e-12,
            spm_access_factor: 0.6,
            xbar_crossing: 6e-12,
            hbm_per_byte: 30e-12,
            leakage_per_kb: 0.35e-3,
            core_static: 1.5e-3,
            core_clock_fraction: 0.5,
        }
    }
}

impl EnergyTable {
    /// Folds every constant into a digest (by f64 bit pattern).
    pub(crate) fn digest_into(&self, h: &mut fxhash::FxHasher) {
        use std::hash::Hasher as _;
        h.write_u64(self.fp_op.to_bits());
        h.write_u64(self.int_op.to_bits());
        h.write_u64(self.cache_access_base.to_bits());
        h.write_u64(self.cache_access_per_doubling.to_bits());
        h.write_u64(self.spm_access_factor.to_bits());
        h.write_u64(self.xbar_crossing.to_bits());
        h.write_u64(self.hbm_per_byte.to_bits());
        h.write_u64(self.leakage_per_kb.to_bits());
        h.write_u64(self.core_static.to_bits());
        h.write_u64(self.core_clock_fraction.to_bits());
    }

    /// Energy of one access to a cache bank of the given capacity.
    pub fn cache_access(&self, capacity_kb: u32) -> f64 {
        let doublings = (capacity_kb as f64 / 4.0).log2().max(0.0);
        self.cache_access_base + doublings * self.cache_access_per_doubling
    }

    /// Energy of one access to an SPM bank of the given capacity.
    pub fn spm_access(&self, capacity_kb: u32) -> f64 {
        self.cache_access(capacity_kb) * self.spm_access_factor
    }
}

/// The machine-level power model: per-event energies pre-scaled for the
/// active configuration, plus the static power of the whole machine.
#[derive(Debug, Clone)]
pub struct PowerModel {
    table: EnergyTable,
    /// (V/VDD)² for the active clock.
    dyn_scale: f64,
    /// V/VDD for the active clock.
    stat_scale: f64,
    /// Static power of the whole machine at the active config, in watts.
    static_power_w: f64,
}

impl PowerModel {
    /// Builds the model for a machine and configuration.
    pub fn new(table: EnergyTable, spec: &MachineSpec, cfg: &TransmuterConfig) -> Self {
        let dyn_scale = dynamic_scale(cfg.clock);
        let stat_scale = static_scale(cfg.clock);
        let static_power_w = Self::static_power(&table, spec, cfg);
        PowerModel {
            table,
            dyn_scale,
            stat_scale,
            static_power_w,
        }
    }

    /// Static power of the machine (leakage + clock tree), already scaled
    /// for the configuration's voltage and frequency.
    fn static_power(table: &EnergyTable, spec: &MachineSpec, cfg: &TransmuterConfig) -> f64 {
        let stat_scale = static_scale(cfg.clock);
        let dyn_scale = dynamic_scale(cfg.clock);
        let g = spec.geometry;
        let l1_kb = cfg.l1_capacity_kb as f64 * g.l1_bank_count() as f64;
        let l2_kb = cfg.l2_capacity_kb as f64 * g.l2_bank_count() as f64;
        // SPM banks power-gate the tag array: ~25 % leakage saving.
        let l1_factor = match cfg.l1_kind {
            MemKind::Cache => 1.0,
            MemKind::Spm => 0.75,
        };
        let sram = (l1_kb * l1_factor + l2_kb) * table.leakage_per_kb * stat_scale;
        // Cores + LCPs (one per tile): leakage scales with V, the clock
        // tree with f·V².
        let cores = (g.gpe_count() + g.l2_bank_count()) as f64;
        let f_frac = cfg.clock.mhz() / F_NOMINAL_MHZ;
        let core = cores
            * table.core_static
            * ((1.0 - table.core_clock_fraction) * stat_scale
                + table.core_clock_fraction * f_frac * dyn_scale);
        sram + core
    }

    /// Static power in watts.
    pub fn static_power_w(&self) -> f64 {
        self.static_power_w
    }

    /// Static power with cores and SRAM power-gated during a flush
    /// (§5.2): only the layer being flushed and the memory path stay up.
    pub fn flush_static_power_w(&self) -> f64 {
        0.25 * self.static_power_w
    }

    /// Energy of `n` FP ops.
    pub fn fp_ops(&self, n: u64) -> f64 {
        n as f64 * self.table.fp_op * self.dyn_scale
    }

    /// Energy of `n` integer ops.
    pub fn int_ops(&self, n: u64) -> f64 {
        n as f64 * self.table.int_op * self.dyn_scale
    }

    /// Energy of one L1 access under the configuration.
    pub fn l1_access(&self, cfg: &TransmuterConfig) -> f64 {
        let e = match cfg.l1_kind {
            MemKind::Cache => self.table.cache_access(cfg.l1_capacity_kb),
            MemKind::Spm => self.table.spm_access(cfg.l1_capacity_kb),
        };
        e * self.dyn_scale
    }

    /// Energy of one L2 access under the configuration.
    pub fn l2_access(&self, cfg: &TransmuterConfig) -> f64 {
        self.table.cache_access(cfg.l2_capacity_kb) * self.dyn_scale
    }

    /// Energy of one crossbar crossing.
    pub fn xbar(&self) -> f64 {
        self.table.xbar_crossing * self.dyn_scale
    }

    /// Energy of moving `bytes` over the HBM interface (voltage-independent:
    /// the DRAM interface is not on the scaled rail).
    pub fn hbm(&self, bytes: u64) -> f64 {
        bytes as f64 * self.table.hbm_per_byte
    }

    /// The underlying table (for reconfiguration-cost estimation).
    pub fn table(&self) -> &EnergyTable {
        &self.table
    }

    /// The `(V/VDD)²` dynamic scale of the active clock.
    pub fn dyn_scale(&self) -> f64 {
        self.dyn_scale
    }

    /// The `V/VDD` static scale of the active clock.
    pub fn stat_scale(&self) -> f64 {
        self.stat_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_monotone_in_frequency() {
        let mut prev = 0.0;
        for c in ClockFreq::ALL {
            let v = target_voltage(c.mhz());
            assert!(v >= prev, "voltage should not decrease with frequency");
            prev = v;
        }
        assert!((target_voltage(1000.0) - VDD_NOMINAL).abs() < 1e-9);
    }

    #[test]
    fn voltage_floor_applies() {
        assert!(target_voltage(0.001) >= 1.3 * V_THRESHOLD);
    }

    #[test]
    fn dynamic_scale_saves_energy_at_low_clock() {
        let hi = dynamic_scale(ClockFreq::Mhz1000);
        let lo = dynamic_scale(ClockFreq::Mhz125);
        assert!((hi - 1.0).abs() < 1e-9);
        assert!(
            lo < 0.6,
            "125 MHz should scale dynamic energy well below nominal, got {lo}"
        );
    }

    #[test]
    fn cache_access_energy_grows_with_capacity() {
        let t = EnergyTable::default();
        assert!(t.cache_access(64) > t.cache_access(4));
        assert!(t.spm_access(4) < t.cache_access(4));
    }

    #[test]
    fn static_power_grows_with_capacity_and_clock() {
        let spec = MachineSpec::default();
        let t = EnergyTable::default();
        let small = PowerModel::new(t, &spec, &TransmuterConfig::baseline());
        let big = PowerModel::new(t, &spec, &TransmuterConfig::maximum());
        assert!(big.static_power_w() > 2.0 * small.static_power_w());

        let mut slow_cfg = TransmuterConfig::baseline();
        slow_cfg.clock = ClockFreq::Mhz31;
        let slow = PowerModel::new(t, &spec, &slow_cfg);
        assert!(slow.static_power_w() < small.static_power_w());
    }

    #[test]
    fn voltage_solution_satisfies_equation() {
        for c in ClockFreq::ALL {
            let v = target_voltage(c.mhz());
            if v > 1.3 * V_THRESHOLD + 1e-9 {
                let lhs = F_NOMINAL_MHZ / c.mhz();
                let k_nom = (VDD_NOMINAL - V_THRESHOLD).powi(2) / VDD_NOMINAL;
                let k_v = (v - V_THRESHOLD).powi(2) / v;
                assert!(
                    (lhs - k_nom / k_v).abs() < 1e-6,
                    "{c:?}: {} vs {}",
                    lhs,
                    k_nom / k_v
                );
            }
        }
    }
}
