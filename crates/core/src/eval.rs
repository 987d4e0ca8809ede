//! One-call evaluation of every §5.3 scheme on a workload.

use transmuter::config::{MachineSpec, MemKind, TransmuterConfig};
use transmuter::metrics::{Metrics, OptMode};
use transmuter::workload::Workload;

use crate::model::PredictiveEnsemble;
use crate::policy::ReconfigPolicy;
use crate::runtime::SparseAdaptController;
use crate::schemes;
use crate::stitch::{sample_configs, SweepData};

/// Knobs of a full-scheme comparison.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonSetup {
    /// The simulated machine.
    pub spec: MachineSpec,
    /// Optimisation objective.
    pub mode: OptMode,
    /// SparseAdapt's hysteresis policy.
    pub policy: ReconfigPolicy,
    /// L1 memory type (compile-time algorithm variant).
    pub l1_kind: MemKind,
    /// Number of configurations sampled for the oracle/ideal sweep
    /// (S = 256 in the paper; scaled down in quick runs).
    pub sampled: usize,
    /// Seed for the configuration sample.
    pub seed: u64,
    /// OS threads for the sweep.
    pub threads: usize,
}

impl Default for ComparisonSetup {
    fn default() -> Self {
        ComparisonSetup {
            spec: MachineSpec::default(),
            mode: OptMode::EnergyEfficient,
            policy: ReconfigPolicy::hybrid40(),
            l1_kind: MemKind::Cache,
            sampled: 48,
            seed: 0xC0FFEE,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

/// Whole-run metrics of every scheme on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeComparison {
    /// Table 4 Baseline (static).
    pub baseline: Metrics,
    /// Table 4 Best Avg for the active L1 kind (static).
    pub best_avg: Metrics,
    /// Table 4 Maximum (static).
    pub max_cfg: Metrics,
    /// SparseAdapt, run live with the trained model.
    pub sparseadapt: Metrics,
    /// Number of epochs at which SparseAdapt reconfigured.
    pub sparseadapt_reconfigs: usize,
    /// Ideal Static (oracle-selected best static config).
    pub ideal_static: Metrics,
    /// Ideal Greedy (per-epoch oracle).
    pub ideal_greedy: Metrics,
    /// Oracle (global optimum over the sampled space).
    pub oracle: Metrics,
    /// ProfileAdapt with profiling at every epoch.
    pub profileadapt_naive: Metrics,
    /// ProfileAdapt with perfect phase detection.
    pub profileadapt_ideal: Metrics,
}

/// The reference static configurations for an L1 kind:
/// (baseline, best-avg, maximum).
pub fn reference_configs(
    l1_kind: MemKind,
) -> (TransmuterConfig, TransmuterConfig, TransmuterConfig) {
    let mut baseline = TransmuterConfig::baseline();
    baseline.l1_kind = l1_kind;
    let best_avg = match l1_kind {
        MemKind::Cache => TransmuterConfig::best_avg_cache(),
        MemKind::Spm => TransmuterConfig::best_avg_spm(),
    };
    let mut max = TransmuterConfig::maximum();
    max.l1_kind = l1_kind;
    (baseline, best_avg, max)
}

/// Runs every scheme on `workload`.
///
/// The static schemes and the oracle family are stitched from one sweep
/// over `setup.sampled` configurations; SparseAdapt itself runs *live*
/// (closed loop on the simulator), starting from the Best Avg
/// configuration for `setup.l1_kind`.
pub fn compare(
    workload: &Workload,
    ensemble: &PredictiveEnsemble,
    setup: &ComparisonSetup,
) -> SchemeComparison {
    let (baseline_cfg, best_avg_cfg, max_cfg) = reference_configs(setup.l1_kind);
    let configs = sample_configs(setup.l1_kind, setup.sampled, setup.seed);
    let sweep = SweepData::simulate(setup.spec, workload, &configs, setup.threads);

    let index_of = |cfg: &TransmuterConfig| {
        sweep
            .config_index(cfg)
            .expect("reference configs are always sampled")
    };
    let baseline = sweep.static_metrics(index_of(&baseline_cfg));
    let best_avg = sweep.static_metrics(index_of(&best_avg_cfg));
    let max_metrics = sweep.static_metrics(index_of(&max_cfg));

    // Live SparseAdapt. The run starts from the kernel's Best Avg
    // configuration — the host picks the best-known static point at
    // dispatch time (§3.1), and SparseAdapt adapts from there. Routed
    // through `run_live`, so an enabled epoch cache lets the run
    // fast-forward through epochs an earlier live run already simulated.
    let mut ctrl = SparseAdaptController::new(ensemble.clone(), setup.policy, setup.spec);
    let live = crate::runtime::run_live(setup.spec, best_avg_cfg, workload, &mut ctrl);

    let (_, ideal_static) = schemes::ideal_static(&sweep, setup.mode);
    let ideal_greedy = schemes::ideal_greedy(&sweep, setup.mode);
    let oracle = schemes::oracle(&sweep, setup.mode);
    let profile_idx = index_of(&max_cfg);
    let pa_naive = schemes::profileadapt_naive(&sweep, setup.mode, profile_idx);
    let pa_ideal = schemes::profileadapt_ideal(&sweep, setup.mode, profile_idx);

    SchemeComparison {
        baseline,
        best_avg,
        max_cfg: max_metrics,
        sparseadapt: live.metrics(),
        sparseadapt_reconfigs: ctrl.reconfig_count(),
        ideal_static,
        ideal_greedy: ideal_greedy.metrics,
        oracle: oracle.metrics,
        profileadapt_naive: pa_naive.metrics,
        profileadapt_ideal: pa_ideal.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{feature_names, FEATURE_COUNT};
    use mltree::{Dataset, DecisionTree, TreeParams};
    use std::collections::BTreeMap;
    use transmuter::config::ConfigParam;
    use transmuter::workload::{Op, OpStream, Phase};

    fn identity_ensemble() -> PredictiveEnsemble {
        // Predicts "keep the Best Avg values" regardless of input — the
        // live run starts there, so it never reconfigures.
        let mut trees = BTreeMap::new();
        for p in ConfigParam::ALL {
            let mut d = Dataset::new(feature_names());
            let target = p.get_index(&TransmuterConfig::best_avg_cache());
            d.push(vec![0.0; FEATURE_COUNT], target);
            d.push(vec![1.0; FEATURE_COUNT], target);
            trees.insert(p, DecisionTree::fit(&d, &TreeParams::default()));
        }
        PredictiveEnsemble::new(trees)
    }

    fn workload() -> Workload {
        let streams: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..400u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: g as u64 * 16384 + i * 8,
                                pc: 1,
                            },
                            Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        Workload::new("w", vec![Phase::new("p", streams)])
    }

    #[test]
    fn compare_produces_consistent_ordering() {
        let setup = ComparisonSetup {
            sampled: 6,
            spec: MachineSpec::default().with_epoch_ops(250),
            threads: 3,
            ..ComparisonSetup::default()
        };
        let cmp = compare(&workload(), &identity_ensemble(), &setup);
        let mode = setup.mode;
        // Oracle dominates the other oracle-family schemes.
        assert!(mode.score(&cmp.oracle) >= mode.score(&cmp.ideal_greedy) - 1e-12);
        assert!(mode.score(&cmp.oracle) >= mode.score(&cmp.ideal_static) - 1e-12);
        // Ideal Static dominates the named statics.
        for s in [&cmp.baseline, &cmp.best_avg, &cmp.max_cfg] {
            assert!(mode.score(&cmp.ideal_static) >= mode.score(s) - 1e-12);
        }
        // The identity model never reconfigures, so live SparseAdapt
        // tracks the Best Avg configuration closely.
        assert_eq!(cmp.sparseadapt_reconfigs, 0);
        let rel = (cmp.sparseadapt.energy_j - cmp.best_avg.energy_j).abs() / cmp.best_avg.energy_j;
        assert!(rel < 0.05, "live vs stitched best-avg diverge by {rel}");
    }
}
