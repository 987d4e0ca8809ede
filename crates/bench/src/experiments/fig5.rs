//! Figure 5: SpMSpV on the synthetic suite (U1–U3, P1–P3), L1 as cache.
//!
//! Left/middle: Power-Performance mode GFLOPS and GFLOPS/W of Best Avg,
//! Max Cfg and SparseAdapt, normalised to Baseline. Right:
//! Energy-Efficient mode GFLOPS/W.
//!
//! Paper shapes: SparseAdapt ≈ 1.8× Baseline GFLOPS (PP mode) while
//! ~3.5× more efficient than Max Cfg; EE mode 1.5–1.9× GFLOPS/W over
//! Baseline with Max Cfg ~2.9× *less* efficient than Baseline.

use sparse::suite::synthetic_suite;
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
                "Fig 5 ({}) — SpMSpV synthetic, gains over Baseline",
                mode.name()
            );
            let suite = synthetic_suite();
            let t = gains_table(
                harness,
                &title,
                &suite,
                Kernel::SpMSpV,
                mode,
                MemKind::Cache,
                &schemes,
            );
            t.emit(&results_dir(), &format!("fig5-{}", mode.name()));
            t
        })
        .collect()
}
