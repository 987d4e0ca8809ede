//! Figure 11 — left: reconfiguration-policy sweep; right: external
//! memory-bandwidth sweep. Both on SpMSpV with L1 as cache.
//!
//! Paper shapes (left): conservative and low-tolerance hybrid schemes
//! over-restrict; best tolerances sit around 10–40 %; fully aggressive
//! pays for flapping along expensive dimensions. (Right): when memory-
//! bound (low bandwidth) SparseAdapt gains >3× GFLOPS/W over Baseline
//! and Best Avg; at the compute-bound end it still edges Best Avg
//! (~1.1×); no retraining across bandwidths.

use sparse::suite::spec_by_id;
use sparseadapt::eval::{compare, ComparisonSetup};
use sparseadapt::ReconfigPolicy;
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

use super::{suite_workload, Kernel};
use crate::models::{ensemble, results_dir};
use crate::report::Table;
use crate::Harness;

/// The policy sweep of the left panel.
pub fn policies() -> Vec<ReconfigPolicy> {
    vec![
        ReconfigPolicy::Conservative,
        ReconfigPolicy::Hybrid { tolerance: 0.10 },
        ReconfigPolicy::Hybrid { tolerance: 0.20 },
        ReconfigPolicy::Hybrid { tolerance: 0.40 },
        ReconfigPolicy::Hybrid { tolerance: 0.80 },
        ReconfigPolicy::Aggressive,
    ]
}

/// The bandwidth sweep of the right panel, in GB/s.
pub const BANDWIDTHS_GBPS: [f64; 7] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

/// Runs both panels; returns `[policy table, bandwidth table]`.
pub fn run(harness: &Harness) -> Vec<Table> {
    let mut tables = Vec::new();

    // Left: policy sweep on P3 and R12, Power-Performance mode.
    let mode = OptMode::PowerPerformance;
    let model = ensemble(harness.scale, MemKind::Cache, mode, harness.threads);
    let mut t = Table::new(
        "Fig 11 left — policy sweep, SpMSpV power-perf gains over Baseline",
        &["P3:gflops", "P3:eff", "R12:gflops", "R12:eff"],
    );
    for policy in policies() {
        let mut row = Vec::new();
        for id in ["P3", "R12"] {
            let spec = spec_by_id(id).expect("suite id");
            let wl = suite_workload(harness, &spec, Kernel::SpMSpV, MemKind::Cache);
            let setup = ComparisonSetup {
                policy,
                ..harness.comparison_setup(Kernel::SpMSpV, mode, MemKind::Cache)
            };
            let cmp = compare(&wl, &model, &setup);
            row.push(cmp.sparseadapt.gflops() / cmp.baseline.gflops());
            row.push(cmp.sparseadapt.gflops_per_watt() / cmp.baseline.gflops_per_watt());
        }
        t.push(&policy.name(), row);
    }
    t.emit(&results_dir(), "fig11-policy");
    tables.push(t);

    // Right: bandwidth sweep on P3, Energy-Efficient mode, no retraining.
    let mode = OptMode::EnergyEfficient;
    let model = ensemble(harness.scale, MemKind::Cache, mode, harness.threads);
    let mut t = Table::new(
        "Fig 11 right — bandwidth sweep, SpMSpV energy-eff gains (P3)",
        &["vs:Baseline", "vs:BestAvg"],
    );
    let spec = spec_by_id("P3").expect("suite id");
    let wl = suite_workload(harness, &spec, Kernel::SpMSpV, MemKind::Cache);
    let base = harness.comparison_setup(Kernel::SpMSpV, mode, MemKind::Cache);
    for bw in BANDWIDTHS_GBPS {
        let setup = ComparisonSetup {
            spec: base.spec.with_bandwidth_gbps(bw),
            ..base
        };
        let cmp = compare(&wl, &model, &setup);
        t.push(
            &format!("{bw} GB/s"),
            vec![
                cmp.sparseadapt.gflops_per_watt() / cmp.baseline.gflops_per_watt(),
                cmp.sparseadapt.gflops_per_watt() / cmp.best_avg.gflops_per_watt(),
            ],
        );
    }
    t.emit(&results_dir(), "fig11-bandwidth");
    tables.push(t);
    tables
}
