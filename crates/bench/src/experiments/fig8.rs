//! Figure 8: SparseAdapt vs. the upper bounds — Ideal Static, Ideal
//! Greedy and Oracle — on SpMSpM R01–R08 (L1 as cache), gains over
//! Baseline.
//!
//! Paper shapes: SparseAdapt within ~13 % of Oracle performance
//! (Power-Performance) and ~5 % of Oracle efficiency in both modes;
//! dynamic headroom (Oracle over Ideal Static) of 1.3–1.8× GFLOPS/W.

use sparse::suite::spmspm_suite;
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

use super::{gains_table, Kernel, Scheme};
use crate::models::results_dir;
use crate::report::Table;
use crate::Harness;

/// Runs the experiment; returns one table per mode.
pub fn run(harness: &Harness) -> Vec<Table> {
    let schemes = [
        Scheme::SparseAdapt,
        Scheme::IdealStatic,
        Scheme::IdealGreedy,
        Scheme::Oracle,
    ];
    [OptMode::PowerPerformance, OptMode::EnergyEfficient]
        .into_iter()
        .map(|mode| {
            let title = format!(
                "Fig 8 ({}) — SpMSpM vs Ideal Static / Ideal Greedy / Oracle, gains over Baseline",
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
            t.emit(&results_dir(), &format!("fig8-{}", mode.name()));
            t
        })
        .collect()
}
