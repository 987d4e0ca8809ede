//! §6.4: SparseAdapt vs. ProfileAdapt (Dubach et al.) on SpMSpV over
//! the real-world suite, L1 as cache.
//!
//! ProfileAdapt is evaluated at its own best (coarser) epoch size —
//! the paper sweeps epoch sizes and lands on 5–6 k FLOPS — while
//! SparseAdapt runs at its fine 500-op epochs.
//!
//! Paper shapes: vs naïve ProfileAdapt, SparseAdapt gains 2.8× GFLOPS
//! and 2.0× GFLOPS/W (Power-Performance) and 2.9× GFLOPS/W
//! (Energy-Efficient); vs the ideal variant (perfect phase detection)
//! 1.7×/1.1× and 2.4×.

use sparse::suite::spmspv_suite;
use sparseadapt::eval::{compare, reference_configs};
use sparseadapt::schemes::{profileadapt_ideal, profileadapt_naive};
use sparseadapt::stitch::{sample_configs, SweepData};
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

use super::{suite_workload, Kernel};
use crate::models::{ensemble, results_dir};
use crate::report::Table;
use crate::Harness;

/// ProfileAdapt's epoch size relative to SparseAdapt's: the paper's
/// sweep lands at 5–6 k FLOPS against SparseAdapt's 500, a ~10× ratio,
/// which we preserve across dataset scales.
pub const PROFILEADAPT_EPOCH_RATIO: u64 = 10;

/// Runs the comparison; returns one table per mode.
pub fn run(harness: &Harness) -> Vec<Table> {
    let mut tables = Vec::new();
    for mode in [OptMode::PowerPerformance, OptMode::EnergyEfficient] {
        let model = ensemble(harness.scale, MemKind::Cache, mode, harness.threads);
        let mut t = Table::new(
            &format!(
                "Sec 6.4 ({}) — SparseAdapt gain over ProfileAdapt",
                mode.name()
            ),
            &["gflops/naive", "eff/naive", "gflops/ideal", "eff/ideal"],
        );
        let suite = spmspv_suite();
        let rows = super::map_items(harness, &suite, |spec, h| {
            let wl = suite_workload(h, spec, Kernel::SpMSpV, MemKind::Cache);
            // SparseAdapt at its fine epochs.
            let setup = h.comparison_setup(Kernel::SpMSpV, mode, MemKind::Cache);
            let cmp = compare(&wl, &model, &setup);
            // ProfileAdapt at its coarse epochs (own sweep).
            let pa_spec = setup
                .spec
                .with_epoch_ops(setup.spec.epoch_ops * PROFILEADAPT_EPOCH_RATIO);
            let configs = sample_configs(MemKind::Cache, h.sampled_configs, h.seed);
            let sweep = SweepData::simulate(pa_spec, &wl, &configs, h.threads);
            let (_, _, max_cfg) = reference_configs(MemKind::Cache);
            let profile_idx = sweep.config_index(&max_cfg).expect("MaxCfg sampled");
            let naive = profileadapt_naive(&sweep, mode, profile_idx).metrics;
            let ideal = profileadapt_ideal(&sweep, mode, profile_idx).metrics;
            vec![
                cmp.sparseadapt.gflops() / naive.gflops(),
                cmp.sparseadapt.gflops_per_watt() / naive.gflops_per_watt(),
                cmp.sparseadapt.gflops() / ideal.gflops(),
                cmp.sparseadapt.gflops_per_watt() / ideal.gflops_per_watt(),
            ]
        });
        for (spec, row) in suite.iter().zip(rows) {
            t.push(spec.id, row);
        }
        t.push_geomean();
        t.emit(&results_dir(), &format!("sec64-{}", mode.name()));
        tables.push(t);
    }
    tables
}
