//! Figure 12: system-size scaling — GFLOPS/W gains over Baseline for
//! SpMSpM (R01–R08, L1 as cache) on 2×8, 2×16, 4×8 and 4×16 machines at
//! a fixed 1 GB/s, using the model trained on the 2×8 system (no
//! retraining).
//!
//! Paper shapes: mean gains of 1.7–2.0× across the four systems,
//! growing with system size as DVFS dominates (more compute behind the
//! same bandwidth ⇒ more memory-bound).

use sparse::suite::spmspm_suite;
use sparseadapt::eval::{compare, ComparisonSetup};
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

use super::Kernel;
use crate::models::{ensemble, results_dir};
use crate::report::Table;
use crate::workloads::spmspm_workload;
use crate::Harness;

/// The (tiles, GPEs/tile) systems swept.
pub const SYSTEMS: [(u32, u32); 4] = [(2, 8), (2, 16), (4, 8), (4, 16)];

/// Runs the experiment; returns one table (rows = matrices, columns =
/// systems).
pub fn run(harness: &Harness) -> Vec<Table> {
    let mode = OptMode::EnergyEfficient;
    // Model trained on the default 2×8 geometry only.
    let model = ensemble(harness.scale, MemKind::Cache, mode, harness.threads);
    let columns: Vec<String> = SYSTEMS.iter().map(|(m, n)| format!("{m}x{n}")).collect();
    let mut t = Table::new(
        "Fig 12 — SpMSpM energy-eff gains over Baseline vs system size",
        &columns,
    );
    let base = harness.comparison_setup(Kernel::SpMSpM, mode, MemKind::Cache);
    for spec in spmspm_suite() {
        let mut row = Vec::new();
        for (tiles, gpes) in SYSTEMS {
            let setup = ComparisonSetup {
                spec: base.spec.with_geometry(tiles, gpes),
                ..base
            };
            let wl = spmspm_workload(
                &spec,
                harness.scale,
                MemKind::Cache,
                harness.seed,
                setup.spec.geometry.gpe_count(),
            );
            let cmp = compare(&wl, &model, &setup);
            row.push(cmp.sparseadapt.gflops_per_watt() / cmp.baseline.gflops_per_watt());
        }
        t.push(spec.id, row);
    }
    t.push_geomean();
    t.emit(&results_dir(), "fig12");
    vec![t]
}
