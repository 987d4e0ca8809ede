//! Figure 9: effect of model complexity — tree depth swept 2→26 for
//! each parameter's tree one-at-a-time (the remaining trees keep their
//! original training), SpMSpV on P1 and P3, Power-Performance mode.
//!
//! Paper shapes: GFLOPS is more sensitive to model complexity than
//! GFLOPS/W in this mode; very shallow trees lose noticeably, gains
//! saturate by moderate depth.

use mltree::{DecisionTree, TreeParams};
use sparse::suite::spec_by_id;
use sparseadapt::eval::{compare, ComparisonSetup};
use transmuter::config::{ConfigParam, MemKind};
use transmuter::metrics::OptMode;

use super::{suite_workload, Kernel};
use crate::models::{collect_options, ensemble, results_dir};
use crate::report::{geomean, Table};
use crate::Harness;

/// The swept depths (the paper's 2 → 26 in steps of 4).
pub const DEPTHS: [usize; 7] = [2, 6, 10, 14, 18, 22, 26];

/// Runs the experiment. The gain at each depth is the geometric mean
/// over the six one-at-a-time retrained ensembles.
pub fn run(harness: &Harness) -> Vec<Table> {
    let mode = OptMode::PowerPerformance;
    let original = ensemble(harness.scale, MemKind::Cache, mode, harness.threads);
    // Re-collect the training data once to retrain single trees.
    let data = trainer::collect::collect(
        MemKind::Cache,
        &collect_options(harness.scale, harness.threads),
    );
    let datasets = data.datasets_for(mode);

    let mut t = Table::new(
        "Fig 9 — gains over Baseline vs tree depth (power-perf, SpMSpV)",
        &["P1:gflops", "P1:eff", "P3:gflops", "P3:eff"],
    );
    for depth in DEPTHS {
        let mut row = Vec::new();
        for id in ["P1", "P3"] {
            let spec = spec_by_id(id).expect("suite id");
            let wl = suite_workload(harness, &spec, Kernel::SpMSpV, MemKind::Cache);
            let mut gflops_gains = Vec::new();
            let mut eff_gains = Vec::new();
            for p in ConfigParam::ALL {
                let mut variant = original.clone();
                let params = TreeParams {
                    max_depth: depth,
                    ..TreeParams::default()
                };
                variant.replace_tree(p, DecisionTree::fit(&datasets[&p], &params));
                let setup = ComparisonSetup {
                    sampled: 3, // statics only: no oracle family needed here
                    ..harness.comparison_setup(Kernel::SpMSpV, mode, MemKind::Cache)
                };
                let cmp = compare(&wl, &variant, &setup);
                gflops_gains.push(cmp.sparseadapt.gflops() / cmp.baseline.gflops());
                eff_gains.push(cmp.sparseadapt.gflops_per_watt() / cmp.baseline.gflops_per_watt());
            }
            row.push(geomean(&gflops_gains));
            row.push(geomean(&eff_gains));
        }
        t.push(&format!("depth {depth}"), row);
    }
    t.emit(&results_dir(), "fig9");
    vec![t]
}
