//! Table 6: end-to-end BFS and SSSP on R09–R16 — TEPS/W gains over
//! Baseline, Energy-Efficient mode, L1 as cache.
//!
//! Paper shapes: SparseAdapt up to ~1.5× over Baseline (GM 1.31 for
//! BFS, 1.29 for SSSP), Best Avg ~1.16/1.12; the biggest wins land on
//! the strongly power-law graphs (R10, R11, R14), the smallest on the
//! near-diagonal R09.

use sparse::suite::spmspv_suite;
use sparseadapt::eval::compare;
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

use super::Kernel;
use crate::models::{ensemble, results_dir};
use crate::report::Table;
use crate::workloads::{bfs_workload, sssp_workload};
use crate::Harness;

/// Runs the experiment; returns one table per algorithm (BFS, SSSP).
pub fn run(harness: &Harness) -> Vec<Table> {
    let mode = OptMode::EnergyEfficient;
    let model = ensemble(harness.scale, MemKind::Cache, mode, harness.threads);
    let n = Kernel::SpMSpV.spec(harness.scale).geometry.gpe_count();
    let mut tables = Vec::new();
    for algo in ["BFS", "SSSP"] {
        let mut t = Table::new(
            &format!("Table 6 ({algo}) — TEPS/W gains over Baseline, energy-eff"),
            &["BestAvg", "SparseAdapt"],
        );
        let suite = spmspv_suite();
        let rows = super::map_items(harness, &suite, |spec, h| {
            let (wl, edges) = if algo == "BFS" {
                bfs_workload(spec, h.scale, h.seed, n)
            } else {
                sssp_workload(spec, h.scale, h.seed, n)
            };
            let setup = h.comparison_setup(Kernel::SpMSpV, mode, MemKind::Cache);
            let cmp = compare(&wl, &model, &setup);
            // TEPS/W ratio = (edges/T/W) ratio; edges cancel, so the
            // gain is the inverse energy-delay ratio per traversed edge.
            let base = cmp.baseline.teps_per_watt(edges);
            vec![
                cmp.best_avg.teps_per_watt(edges) / base,
                cmp.sparseadapt.teps_per_watt(edges) / base,
            ]
        });
        for (spec, row) in suite.iter().zip(rows) {
            t.push(spec.id, row);
        }
        t.push_geomean();
        t.emit(&results_dir(), &format!("table6-{}", algo.to_lowercase()));
        tables.push(t);
    }
    tables
}
