//! The serializable request/response model of the serving layer.
//!
//! `sparseadapt-serve` (the `serve` crate) exposes simulation and the
//! adaptive policy over HTTP; the wire types that are pure SparseAdapt
//! domain — telemetry in, configuration out, trace summaries — live
//! here so any future front-end (a different transport, a batch
//! evaluator, a notebook) reuses them without depending on the HTTP
//! daemon. Types that name workloads by suite id stay in the `serve`
//! crate, because suite construction is the bench harness's business.

use serde::{Deserialize, Serialize};
use transmuter::config::{ConfigParam, MachineSpec, TransmuterConfig};
use transmuter::counters::Telemetry;
use transmuter::machine::EpochRecord;
use transmuter::metrics::Metrics;
use transmuter::power::EnergyTable;

use crate::model::PredictiveEnsemble;
use crate::policy::ReconfigPolicy;

/// One "what should the next epoch run as?" query: the Table 2 counter
/// snapshot plus the configuration it was collected under — exactly the
/// model input of [`crate::features::feature_vector`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendRequest {
    /// Normalised counter snapshot from the epoch that just finished.
    pub telemetry: Telemetry,
    /// Configuration the epoch ran under.
    pub current: TransmuterConfig,
    /// Hysteresis policy to filter the raw prediction with; `None`
    /// returns the unfiltered model output.
    pub policy: Option<ReconfigPolicy>,
    /// Elapsed time of the previous epoch in seconds (the Hybrid
    /// policy's cost yardstick). `None` defaults to 0, which makes a
    /// relative-threshold policy suppress every paid reconfiguration.
    pub last_epoch_time_s: Option<f64>,
}

/// The answer to a [`RecommendRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendResponse {
    /// The model's raw prediction, before any policy filtering.
    pub predicted: TransmuterConfig,
    /// The configuration to actually install after policy filtering
    /// (equal to `predicted` when no policy was requested).
    pub chosen: TransmuterConfig,
    /// Names of the parameters where `chosen` differs from the request's
    /// current configuration.
    pub changed: Vec<String>,
}

/// Runs the model (and optional policy filter) for one request.
pub fn recommend(
    ensemble: &PredictiveEnsemble,
    spec: &MachineSpec,
    req: &RecommendRequest,
) -> RecommendResponse {
    let predicted = ensemble.predict(&req.telemetry, &req.current);
    let chosen = match req.policy {
        Some(policy) => policy.filter(
            spec,
            &EnergyTable::default(),
            &req.current,
            &predicted,
            req.last_epoch_time_s.unwrap_or(0.0),
        ),
        None => predicted,
    };
    let changed = ConfigParam::ALL
        .iter()
        .filter(|p| p.get_index(&chosen) != p.get_index(&req.current))
        .map(|p| p.name().to_string())
        .collect();
    RecommendResponse {
        predicted,
        chosen,
        changed,
    }
}

/// Whole-trace figures of merit, the compact answer to "simulate this"
/// (full per-epoch records stay server-side in the trace cache).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Number of epochs in the trace.
    pub epochs: usize,
    /// End-to-end time in seconds, reconfiguration stalls included.
    pub time_s: f64,
    /// Total energy in joules, reconfiguration energy included.
    pub energy_j: f64,
    /// Work in the paper's FP-op currency (FP + loads + stores).
    pub fp_ops: u64,
    /// Giga-FP-op/s over the whole trace.
    pub gflops: f64,
    /// GFLOPS per watt (the Energy-Efficient objective).
    pub gflops_per_watt: f64,
    /// Time spent stalled in reconfigurations, seconds.
    pub reconfig_time_s: f64,
    /// Epochs that entered under a changed configuration.
    pub reconfig_count: usize,
}

/// Aggregates a per-epoch trace into a [`TraceSummary`].
pub fn summarize_trace(trace: &[EpochRecord]) -> TraceSummary {
    let mut time_s = 0.0;
    let mut energy_j = 0.0;
    let mut fp_ops = 0u64;
    let mut reconfig_time_s = 0.0;
    let mut reconfig_count = 0usize;
    for e in trace {
        time_s += e.metrics.time_s + e.reconfig_time_s;
        energy_j += e.metrics.energy_j + e.reconfig_energy_j;
        fp_ops += e.metrics.flops;
        reconfig_time_s += e.reconfig_time_s;
        if e.reconfig_time_s > 0.0 || e.reconfig_energy_j > 0.0 {
            reconfig_count += 1;
        }
    }
    let m = Metrics::new(time_s, energy_j, fp_ops);
    TraceSummary {
        epochs: trace.len(),
        time_s,
        energy_j,
        fp_ops,
        gflops: m.gflops(),
        gflops_per_watt: m.gflops_per_watt(),
        reconfig_time_s,
        reconfig_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use mltree::{Dataset, DecisionTree, TreeParams};

    use crate::features::{feature_names, feature_vector};

    /// A legitimate (fitted, not mocked) ensemble that always predicts
    /// the configuration it was trained on.
    fn constant_ensemble(target: TransmuterConfig) -> PredictiveEnsemble {
        let mut trees = BTreeMap::new();
        for p in ConfigParam::ALL {
            let mut data = Dataset::new(feature_names());
            data.push(
                feature_vector(&Telemetry::default(), &TransmuterConfig::baseline()),
                p.get_index(&target),
            );
            trees.insert(p, DecisionTree::fit(&data, &TreeParams::default()));
        }
        PredictiveEnsemble::new(trees)
    }

    #[test]
    fn recommend_reports_changed_dimensions() {
        let target = TransmuterConfig::best_avg_cache();
        let ensemble = constant_ensemble(target);
        let req = RecommendRequest {
            telemetry: Telemetry::default(),
            current: TransmuterConfig::baseline(),
            policy: None,
            last_epoch_time_s: None,
        };
        let resp = recommend(&ensemble, &MachineSpec::default(), &req);
        assert_eq!(resp.predicted, target);
        assert_eq!(resp.chosen, target);
        // Baseline -> best_avg_cache flips L1 sharing and prefetch.
        assert_eq!(resp.changed, vec!["l1_sharing", "prefetch"]);
    }

    #[test]
    fn hybrid_policy_with_zero_epoch_time_suppresses_paid_changes() {
        let target = TransmuterConfig::best_avg_spm();
        let mut current = TransmuterConfig::baseline();
        current.l1_kind = target.l1_kind;
        let ensemble = constant_ensemble(target);
        let req = RecommendRequest {
            telemetry: Telemetry::default(),
            current,
            policy: Some(ReconfigPolicy::Hybrid { tolerance: 0.4 }),
            last_epoch_time_s: None,
        };
        let resp = recommend(&ensemble, &MachineSpec::default(), &req);
        assert_eq!(resp.predicted, target);
        // No epoch-time budget -> only free dimension moves survive; the
        // capacity/clock switches all cost stall time.
        assert_ne!(resp.chosen, target);
    }

    #[test]
    fn request_round_trips_through_json() {
        let req = RecommendRequest {
            telemetry: Telemetry::default(),
            current: TransmuterConfig::maximum(),
            policy: Some(ReconfigPolicy::hybrid40()),
            last_epoch_time_s: Some(0.25),
        };
        let json = serde_json::to_string(&req).expect("serializes");
        let back: RecommendRequest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, req);
    }

    #[test]
    fn summary_matches_hand_computed_totals() {
        let spec = MachineSpec::default().with_epoch_ops(200);
        let wl = {
            use transmuter::workload::{Op, OpStream, Phase};
            let streams: Vec<OpStream> = (0..16)
                .map(|g| {
                    (0..80u64)
                        .flat_map(|i| {
                            [
                                Op::Load {
                                    addr: g as u64 * 4096 + i * 32,
                                    pc: 1,
                                },
                                Op::Flops(1),
                            ]
                        })
                        .collect()
                })
                .collect();
            transmuter::workload::Workload::new("svc", vec![Phase::new("p", streams)])
        };
        let trace = crate::trace_cache::simulate_trace(spec, &wl, TransmuterConfig::baseline());
        let s = summarize_trace(&trace);
        assert_eq!(s.epochs, trace.len());
        assert!(s.time_s > 0.0 && s.energy_j > 0.0 && s.fp_ops > 0);
        let flops: u64 = trace.iter().map(|e| e.metrics.flops).sum();
        assert_eq!(s.fp_ops, flops);
        assert!(s.gflops > 0.0 && s.gflops_per_watt > 0.0);
        // A static run never reconfigures.
        assert_eq!((s.reconfig_count, s.reconfig_time_s), (0, 0.0));
    }
}
