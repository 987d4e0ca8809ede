//! Figure 6: SpMSpM (`C = A·Aᵀ`) on the real-world suite R01–R08, L1 as
//! cache.
//!
//! Paper shapes: SparseAdapt ≈ Best Avg performance (within 8 % of Max
//! Cfg) at 1.3× less energy than Best Avg and 5.3× better efficiency
//! than Max Cfg (Power-Performance mode); 1.8× Baseline efficiency and
//! 1.6× over Best Avg in Energy-Efficient mode.

use sparse::suite::spmspm_suite;
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

use super::{gains_table, Kernel, Scheme};
use crate::models::results_dir;
use crate::report::Table;
use crate::Harness;

/// Runs the experiment; returns one table per mode.
pub fn run(harness: &Harness) -> Vec<Table> {
    let schemes = [Scheme::BestAvg, Scheme::MaxCfg, Scheme::SparseAdapt];
    [OptMode::PowerPerformance, OptMode::EnergyEfficient]
        .into_iter()
        .map(|mode| {
            let title = format!(
                "Fig 6 ({}) — SpMSpM real-world, gains over Baseline",
                mode.name()
            );
            let suite = spmspm_suite();
            let t = gains_table(
                harness,
                &title,
                &suite,
                Kernel::SpMSpM,
                mode,
                MemKind::Cache,
                &schemes,
            );
            t.emit(&results_dir(), &format!("fig6-{}", mode.name()));
            t
        })
        .collect()
}
