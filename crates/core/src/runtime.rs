//! The live SparseAdapt controller: telemetry → inference → policy →
//! reconfiguration, at every epoch boundary (Figure 3a).

use transmuter::config::{ConfigParam, MachineSpec, TransmuterConfig};
use transmuter::machine::{Controller, EpochRecord, Machine, RunResult};
use transmuter::power::EnergyTable;
use transmuter::workload::Workload;

use crate::epoch_cache::EpochCache;
use crate::model::PredictiveEnsemble;
use crate::policy::ReconfigPolicy;

/// Runs `workload` live under `controller` from the `start`
/// configuration, routing through the global [`EpochCache`] when it is
/// enabled: epochs whose `(config, index, entry-state)` key an earlier
/// live run already simulated are fast-forwarded instead of
/// re-executed, and the controller still sees every boundary. Live runs
/// are the cache's only writers (static sweeps simulate unhooked), so
/// the reuse is between runs that share a start configuration and a
/// decision prefix. With the cache disabled this is exactly
/// [`Machine::run_with_controller`].
pub fn run_live(
    spec: MachineSpec,
    start: TransmuterConfig,
    workload: &Workload,
    controller: &mut dyn Controller,
) -> RunResult {
    let mut machine = Machine::new(spec, start);
    let cache = EpochCache::global();
    if cache.is_enabled() {
        let mut hook = cache.hook_for(spec.fingerprint(), workload.fingerprint());
        machine.run_with_controller_and_hook(workload, controller, &mut hook)
    } else {
        machine.run_with_controller(workload, controller)
    }
}

/// A [`Controller`] implementation wrapping the predictive ensemble and
/// a cost-aware policy.
///
/// The paper estimates decision-making plus communication at 50–100 host
/// cycles, overlapped with execution ("in the shadow of the workload",
/// §3.3), so the controller adds no time of its own; the §3.4
/// reconfiguration costs are charged by the machine when a change is
/// applied.
#[derive(Debug, Clone)]
pub struct SparseAdaptController {
    ensemble: PredictiveEnsemble,
    policy: ReconfigPolicy,
    spec: MachineSpec,
    table: EnergyTable,
    decisions: Vec<TransmuterConfig>,
    reconfig_count: usize,
    /// Per-parameter value predicted at the previous epoch, for the
    /// two-in-a-row debounce.
    last_predicted: Option<[usize; 6]>,
    debounce: bool,
}

impl SparseAdaptController {
    /// Creates the controller with the default energy table.
    pub fn new(ensemble: PredictiveEnsemble, policy: ReconfigPolicy, spec: MachineSpec) -> Self {
        SparseAdaptController {
            ensemble,
            policy,
            spec,
            table: EnergyTable::default(),
            decisions: Vec::new(),
            reconfig_count: 0,
            last_predicted: None,
            debounce: true,
        }
    }

    /// Disables the two-in-a-row debounce (used by ablation studies).
    pub fn without_debounce(mut self) -> Self {
        self.debounce = false;
        self
    }

    /// Number of epochs at which at least one parameter was changed.
    pub fn reconfig_count(&self) -> usize {
        self.reconfig_count
    }

    /// The configuration chosen at each epoch boundary (for analysis of
    /// configuration-choice insights, §6.1.5).
    pub fn decisions(&self) -> &[TransmuterConfig] {
        &self.decisions
    }

    /// The active policy.
    pub fn policy(&self) -> &ReconfigPolicy {
        &self.policy
    }
}

impl Controller for SparseAdaptController {
    fn on_epoch(&mut self, record: &EpochRecord) -> Option<TransmuterConfig> {
        let mut predicted = self.ensemble.predict(&record.telemetry, &record.config);
        let raw: [usize; 6] = std::array::from_fn(|i| ConfigParam::ALL[i].get_index(&predicted));
        if self.debounce {
            // Two-in-a-row debounce: a dimension moves only when the
            // model asked for the same value at the previous epoch too.
            // This damps decision-boundary ping-pong (the paper's §7
            // history-based extension) without delaying stable phase
            // shifts by more than one epoch.
            if let Some(prev) = self.last_predicted {
                for (i, p) in ConfigParam::ALL.into_iter().enumerate() {
                    if raw[i] != prev[i] {
                        p.set_index(&mut predicted, p.get_index(&record.config));
                    }
                }
            } else {
                predicted = record.config;
            }
        }
        self.last_predicted = Some(raw);
        let chosen = self.policy.filter(
            &self.spec,
            &self.table,
            &record.config,
            &predicted,
            record.metrics.time_s,
        );
        self.decisions.push(chosen);
        if chosen != record.config {
            self.reconfig_count += 1;
            Some(chosen)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{feature_names, FEATURE_COUNT};
    use mltree::{Dataset, DecisionTree, TreeParams};
    use std::collections::BTreeMap;
    use transmuter::config::ConfigParam;
    use transmuter::machine::Machine;
    use transmuter::workload::{Op, OpStream, Phase, Workload};

    /// An ensemble that always predicts a fixed clock index and leaves
    /// everything else at the baseline.
    fn clock_down_ensemble() -> PredictiveEnsemble {
        let mut trees = BTreeMap::new();
        for p in ConfigParam::ALL {
            let mut d = Dataset::new(feature_names());
            let target = match p {
                ConfigParam::Clock => 2, // 125 MHz
                _ => p.get_index(&TransmuterConfig::baseline()),
            };
            d.push(vec![0.0; FEATURE_COUNT], target);
            d.push(vec![1.0; FEATURE_COUNT], target);
            trees.insert(p, DecisionTree::fit(&d, &TreeParams::default()));
        }
        PredictiveEnsemble::new(trees)
    }

    fn small_workload() -> Workload {
        let streams: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..600u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: g as u64 * 65536 + i * 8,
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
    fn controller_downclocks_and_counts() {
        let spec = MachineSpec::default().with_epoch_ops(400);
        let mut ctrl =
            SparseAdaptController::new(clock_down_ensemble(), ReconfigPolicy::Aggressive, spec);
        let mut m = Machine::new(spec, TransmuterConfig::baseline());
        let r = m.run_with_controller(&small_workload(), &mut ctrl);
        assert!(ctrl.reconfig_count() >= 1);
        // The debounce holds the first prediction for one epoch; from
        // the second boundary on the machine runs at 125 MHz.
        assert_eq!(
            r.epochs[1].config.clock,
            transmuter::config::ClockFreq::Mhz1000
        );
        assert_eq!(
            r.epochs[2].config.clock,
            transmuter::config::ClockFreq::Mhz125
        );
        // Later epochs require no further change.
        assert_eq!(ctrl.reconfig_count(), 1);
    }

    #[test]
    fn without_debounce_switches_immediately() {
        let spec = MachineSpec::default().with_epoch_ops(400);
        let mut ctrl =
            SparseAdaptController::new(clock_down_ensemble(), ReconfigPolicy::Aggressive, spec)
                .without_debounce();
        let mut m = Machine::new(spec, TransmuterConfig::baseline());
        let r = m.run_with_controller(&small_workload(), &mut ctrl);
        assert_eq!(
            r.epochs[1].config.clock,
            transmuter::config::ClockFreq::Mhz125
        );
    }

    #[test]
    fn decisions_are_recorded_per_epoch() {
        let spec = MachineSpec::default().with_epoch_ops(400);
        let mut ctrl =
            SparseAdaptController::new(clock_down_ensemble(), ReconfigPolicy::hybrid40(), spec);
        let mut m = Machine::new(spec, TransmuterConfig::baseline());
        let r = m.run_with_controller(&small_workload(), &mut ctrl);
        // One decision per epoch boundary except the final snapshot.
        assert_eq!(ctrl.decisions().len(), r.epochs.len() - 1);
    }
}
