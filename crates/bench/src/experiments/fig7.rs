//! Figure 7: SpMSpV on the real-world suite R09–R16 in
//! Power-Performance mode, with the L1 configured as cache (a) and as
//! scratchpad (b).
//!
//! Paper shapes: gains over Best Avg are larger for L1 = SPM (1.9×)
//! than for L1 = cache (1.3×); SparseAdapt is ~1.2× faster than Max Cfg
//! while 4.3× (cache) / 6.2× (SPM) more energy-efficient.

use sparse::suite::spmspv_suite;
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

use super::{gains_table, Kernel, Scheme};
use crate::models::results_dir;
use crate::report::Table;
use crate::Harness;

/// Runs the experiment; returns one table per L1 kind.
pub fn run(harness: &Harness) -> Vec<Table> {
    let schemes = [Scheme::BestAvg, Scheme::MaxCfg, Scheme::SparseAdapt];
    [(MemKind::Cache, "cache"), (MemKind::Spm, "spm")]
        .into_iter()
        .map(|(l1_kind, kind_name)| {
            let title = format!(
                "Fig 7 (L1 = {kind_name}) — SpMSpV real-world, power-perf gains over Baseline"
            );
            let suite = spmspv_suite();
            let t = gains_table(
                harness,
                &title,
                &suite,
                Kernel::SpMSpV,
                OptMode::PowerPerformance,
                l1_kind,
                &schemes,
            );
            t.emit(&results_dir(), &format!("fig7-{kind_name}"));
            t
        })
        .collect()
}
