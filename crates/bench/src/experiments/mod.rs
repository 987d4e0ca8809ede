//! One module per table/figure of the paper's evaluation, and the
//! [`REGISTRY`] through which `paper` names and runs them.
//!
//! Every experiment prints the same rows/series the paper reports
//! (gains normalised to the Baseline configuration) and writes a CSV
//! under `results/`. Absolute numbers are not expected to match the
//! authors' gem5 testbed; the *shapes* (who wins, by roughly what
//! factor, where crossovers fall) are the reproduction target — see
//! `EXPERIMENTS.md`.

pub mod ablation;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod insights;
pub mod mtx;
pub mod sec64;
pub mod sec7;
pub mod table6;

use sparse::gen::GenSeed;
use sparse::suite::MatrixSpec;
use sparseadapt::eval::{compare, SchemeComparison};
use sparseadapt::ReconfigPolicy;
use transmuter::config::{MachineSpec, MemKind};
use transmuter::metrics::{Metrics, OptMode};
use transmuter::workload::Workload;

use crate::models::ensemble;
use crate::mtx::MatrixSource;
use crate::report::Table;
use crate::Harness;

/// One experiment `paper` can run.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name that selects it on `paper`'s command line.
    pub name: &'static str,
    /// Relative cost, for apportioning the thread budget when several
    /// experiments run at once: the measured serial runtime at quick
    /// scale in deciseconds (cold trace cache, single process). Only
    /// the ratios matter, and those are dominated by each experiment's
    /// epoch count × sampled-configuration product, which scales
    /// uniformly with `SA_SCALE`, so one weight serves every scale.
    pub weight: u64,
    /// Runs it: prints its tables and writes them under `results/`.
    pub run: fn(&Harness) -> Vec<Table>,
}

impl Experiment {
    const fn new(name: &'static str, weight: u64, run: fn(&Harness) -> Vec<Table>) -> Self {
        Experiment { name, weight, run }
    }
}

/// Every experiment of the evaluation, in the order `paper` lists them.
pub static REGISTRY: [Experiment; 14] = [
    Experiment::new("fig1", 40, fig1::run),
    Experiment::new("fig5", 5, fig5::run),
    Experiment::new("fig6", 320, fig6::run),
    Experiment::new("fig7", 9, fig7::run),
    Experiment::new("fig8", 28, fig8::run),
    Experiment::new("fig9", 1200, fig9::run),
    Experiment::new("fig10", 1, fig10::run),
    Experiment::new("fig11", 8, fig11::run),
    Experiment::new("fig12", 1120, fig12::run),
    Experiment::new("table6", 23, table6::run),
    Experiment::new("sec64", 8, sec64::run),
    Experiment::new("sec7", 5, sec7::run),
    Experiment::new("insights", 1, insights::run),
    Experiment::new("ablation", 10, ablation::run),
];

/// The registered experiment called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Which kernel an experiment drives (selects epoch size and policy
/// defaults per §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// OP-SpMSpM (epoch 5 000, conservative policy).
    SpMSpM,
    /// SpMSpV / graph kernels (epoch 500, hybrid-40 % policy).
    SpMSpV,
    /// Row-streaming SpMV over a dense operand (real-matrix workhorse).
    SpMV,
    /// Level-scheduled forward triangular solve.
    SpTRSV,
    /// Symmetric Gauss–Seidel (forward + backward level ladders).
    SymGS,
}

impl Kernel {
    /// The machine spec for this kernel at a dataset scale.
    ///
    /// The solver family shares SpMSpV's epoch sizing: per-row work is
    /// the same order of magnitude, and the level phases of
    /// SpTRSV/SymGS are short, so the smaller quota keeps several
    /// epochs per phase.
    pub fn spec(self, scale: sparse::suite::Scale) -> MachineSpec {
        match self {
            Kernel::SpMSpM => crate::workloads::spmspm_spec(scale),
            Kernel::SpMSpV | Kernel::SpMV | Kernel::SpTRSV | Kernel::SymGS => {
                crate::workloads::spmspv_spec(scale)
            }
        }
    }

    /// The default policy for this kernel. The paper assigns
    /// Conservative to SpMSpM and Hybrid-40 % to SpMSpV (§5.4), chosen
    /// by sweep studies on *their* cost landscape; on this simulator's
    /// landscape the same sweep (Fig 11 left) favours the relative
    /// Hybrid gate for SpMSpM too, because the absolute Conservative
    /// budget does not track the scaled-down epoch lengths.
    pub fn policy(self) -> ReconfigPolicy {
        match self {
            Kernel::SpMSpM => ReconfigPolicy::Hybrid { tolerance: 0.2 },
            Kernel::SpMSpV | Kernel::SpMV | Kernel::SpTRSV | Kernel::SymGS => {
                ReconfigPolicy::hybrid40()
            }
        }
    }

    /// Whether the kernel requires a square matrix (the solver family
    /// and the square-structured SpMSp* builds do; SpMV takes any
    /// shape).
    pub fn requires_square(self) -> bool {
        !matches!(self, Kernel::SpMV)
    }
}

/// Runs `f` over every item on the shared work-stealing pool, splitting
/// the harness's thread budget between concurrent items (the outer
/// fan-out) and the configuration sweeps inside each one (`f`'s harness
/// argument carries the inner budget). Results come back in item order,
/// so tables built from them are independent of the thread count.
pub fn map_items<T: Sync, R: Send>(
    harness: &Harness,
    items: &[T],
    f: impl Fn(&T, &Harness) -> R + Sync,
) -> Vec<R> {
    let (outer, inner) = sparseadapt::exec::split_threads(items.len(), harness.threads);
    let h = harness.with_threads(inner);
    sparseadapt::exec::parallel_map(items.len(), outer, |i| f(&items[i], &h))
}

/// A scheme column of a [`gains_table`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scheme {
    /// Table 4 Best Avg for the active L1 kind.
    BestAvg,
    /// Table 4 Maximum.
    MaxCfg,
    /// SparseAdapt, run live.
    SparseAdapt,
    /// The oracle-selected best static configuration.
    IdealStatic,
    /// The per-epoch oracle.
    IdealGreedy,
    /// The global optimum over the sampled space.
    Oracle,
}

impl Scheme {
    fn label(self) -> &'static str {
        match self {
            Scheme::BestAvg => "BestAvg",
            Scheme::MaxCfg => "MaxCfg",
            Scheme::SparseAdapt => "SpAdapt",
            Scheme::IdealStatic => "IdealStatic",
            Scheme::IdealGreedy => "IdealGreedy",
            Scheme::Oracle => "Oracle",
        }
    }

    fn of(self, cmp: &SchemeComparison) -> &Metrics {
        match self {
            Scheme::BestAvg => &cmp.best_avg,
            Scheme::MaxCfg => &cmp.max_cfg,
            Scheme::SparseAdapt => &cmp.sparseadapt,
            Scheme::IdealStatic => &cmp.ideal_static,
            Scheme::IdealGreedy => &cmp.ideal_greedy,
            Scheme::Oracle => &cmp.oracle,
        }
    }
}

/// Gains over Baseline of `schemes` on every matrix of `suite`, with a
/// closing GM row. Each matrix runs the full scheme comparison under
/// the harness defaults. In Power-Performance mode the table has a
/// `gflops:` column per scheme, then an `eff:` (GFLOPS/W) column per
/// scheme; in Energy-Efficient mode only the `eff:` columns.
pub(crate) fn gains_table(
    harness: &Harness,
    title: &str,
    suite: &[MatrixSpec],
    kernel: Kernel,
    mode: OptMode,
    l1_kind: MemKind,
    schemes: &[Scheme],
) -> Table {
    let gflops: (&str, fn(&Metrics) -> f64) = ("gflops", Metrics::gflops);
    let eff: (&str, fn(&Metrics) -> f64) = ("eff", Metrics::gflops_per_watt);
    let metrics = if mode == OptMode::PowerPerformance {
        vec![gflops, eff]
    } else {
        vec![eff]
    };
    let columns: Vec<String> = metrics
        .iter()
        .flat_map(|(m, _)| schemes.iter().map(move |s| format!("{m}:{}", s.label())))
        .collect();
    let model = ensemble(harness.scale, l1_kind, mode, harness.threads);
    let rows = map_items(harness, suite, |spec, h| {
        let wl = suite_workload(h, spec, kernel, l1_kind);
        let cmp = compare(&wl, &model, &h.comparison_setup(kernel, mode, l1_kind));
        metrics
            .iter()
            .flat_map(|(_, f)| schemes.iter().map(|s| f(s.of(&cmp)) / f(&cmp.baseline)))
            .collect()
    });
    let mut t = Table::new(title, &columns);
    for (spec, row) in suite.iter().zip(rows) {
        t.push(spec.id, row);
    }
    t.push_geomean();
    t
}

/// Convenience: the scaled workload for a suite matrix and kernel.
pub fn suite_workload(
    harness: &Harness,
    spec: &MatrixSpec,
    kernel: Kernel,
    l1_kind: MemKind,
) -> Workload {
    let n = kernel.spec(harness.scale).geometry.gpe_count();
    let matrix = spec.generate(harness.scale, GenSeed(harness.seed));
    kernel.workload(&matrix, l1_kind, harness.seed, n)
}

/// The workload for any matrix source: suite specs are generated at the
/// harness's scale and seed, as in [`suite_workload`]; registered `.mtx`
/// matrices are used as-is (no scaling) with the same deterministic
/// operands.
///
/// # Panics
///
/// Panics if the kernel [`Kernel::requires_square`] and the registered
/// matrix is rectangular — callers gate on [`MatrixSource::is_square`].
pub fn source_workload(
    harness: &Harness,
    source: &MatrixSource,
    kernel: Kernel,
    l1_kind: MemKind,
) -> Workload {
    let n = kernel.spec(harness.scale).geometry.gpe_count();
    let matrix = source.coo(harness.scale, harness.seed);
    kernel.workload(&matrix, l1_kind, harness.seed, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_sweep_heavy_experiments_weigh_most() {
        let names: std::collections::BTreeSet<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate experiment name");
        assert!(REGISTRY.iter().all(|e| e.weight >= 1));
        // The two model-retraining sweeps and the oracle sweep dominate;
        // the fan-out depends on that ordering, not on exact values.
        let weight = |name| find(name).expect("registered experiment").weight;
        assert!(weight("fig9") > weight("fig6"));
        assert!(weight("fig12") > weight("fig6"));
        assert!(weight("fig6") > weight("fig8"));
        assert!(weight("fig8") > weight("fig10"));
        assert!(find("all").is_none() && find("mtx").is_none());
    }
}
