//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` §5 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results).
//!
//! The `paper` binary exposes one subcommand per entry of
//! [`experiments::REGISTRY`]; `sweep_bench` times the sweep engine
//! itself. Scale is controlled by `SA_SCALE` (`quick` | `half` |
//! `paper`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod models;
pub mod mtx;
pub mod report;
pub mod workloads;

use sparse::suite::Scale;
use sparseadapt::eval::ComparisonSetup;
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

use experiments::Kernel;

/// Harness-wide settings resolved from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Dataset / sweep scale.
    pub scale: Scale,
    /// Configurations sampled for oracle sweeps.
    pub sampled_configs: usize,
    /// OS threads.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for Harness {
    fn default() -> Self {
        let scale = Scale::from_env();
        Harness {
            scale,
            sampled_configs: match scale {
                Scale::Quick => 24,
                Scale::Half => 64,
                Scale::Paper => 256,
            },
            threads: sparseadapt::exec::default_threads(),
            seed: 0x5AAD,
        }
    }
}

impl Harness {
    /// A copy with a different thread budget — used when the budget is
    /// split between concurrent experiments or workloads and the sweeps
    /// nested inside them.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The full scheme comparison's setup for `kernel` under the harness
    /// defaults: the kernel's machine spec and policy, and the harness's
    /// sampled-configuration count, seed and thread budget. Experiments
    /// that sweep one knob override that one field.
    pub(crate) fn comparison_setup(
        &self,
        kernel: Kernel,
        mode: OptMode,
        l1_kind: MemKind,
    ) -> ComparisonSetup {
        ComparisonSetup {
            spec: kernel.spec(self.scale),
            mode,
            policy: kernel.policy(),
            l1_kind,
            sampled: self.sampled_configs,
            seed: self.seed,
            threads: self.threads,
        }
    }
}
