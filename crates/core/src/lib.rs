//! SparseAdapt: ML-driven runtime reconfiguration control for the
//! simulated Transmuter CGRA.
//!
//! This crate is the paper's primary contribution: a lightweight
//! feedback loop that reads hardware performance counters at every epoch
//! and reconfigures six hardware parameters (sharing modes, cache
//! capacities, clock, prefetch degree) to track both explicit
//! (code-driven) and implicit (data-driven) phases of sparse linear
//! algebra.
//!
//! The pieces:
//!
//! * [`features`] — predictive-model input: the Table 2 counters plus
//!   the *current configuration* (the paper's key §4.2 insight).
//! * [`model`] — the per-parameter decision-tree ensemble, with
//!   persistence.
//! * [`policy`] — reconfiguration-cost-aware hysteresis (Conservative /
//!   Aggressive / Hybrid, §4.4).
//! * [`runtime`] — [`runtime::SparseAdaptController`], a live
//!   [`transmuter::machine::Controller`] that closes the loop.
//! * [`stitch`] — per-configuration epoch traces and schedule
//!   evaluation, the artifact's §A.7 methodology.
//! * [`exec`] — the work-stealing sweep engine shared by every
//!   parallel fan-out in the workspace.
//! * [`trace_cache`] — the process-wide content-addressed cache of
//!   simulation traces, with a bounded in-memory layer, an optional
//!   on-disk layer and an optional cluster tier, both of which carry
//!   traces in the [`trace_bin`] binary format.
//! * [`epoch_cache`] — the process-local epoch memo, keyed on
//!   `(machine, workload, config, epoch, entry-state digest)`, letting
//!   live controller runs fast-forward through epochs a sweep already
//!   simulated.
//! * [`service`] — the serializable request/response model of the
//!   serving layer (the `serve` daemon's domain types).
//! * [`schemes`] — the §5.3 comparison points: Ideal Static, Ideal
//!   Greedy, Oracle (DAG shortest path), ProfileAdapt naïve/ideal.
//! * [`eval`] — one-call comparison of every scheme on a workload.
//! * [`analysis`] — §6.1.5 configuration-choice insights.
//!
//! # Example: closing the loop live
//!
//! The controller needs a trained ensemble (production code loads one
//! with [`PredictiveEnsemble::load`] or trains via the `trainer` crate);
//! here a minimal ensemble is fitted inline so the example runs as-is.
//!
//! ```
//! use std::collections::BTreeMap;
//! use mltree::{Dataset, DecisionTree, TreeParams};
//! use sparseadapt::features::{feature_names, feature_vector};
//! use sparseadapt::model::PredictiveEnsemble;
//! use sparseadapt::policy::ReconfigPolicy;
//! use sparseadapt::runtime::SparseAdaptController;
//! use transmuter::config::{ConfigParam, MachineSpec, TransmuterConfig};
//! use transmuter::counters::Telemetry;
//! use transmuter::machine::Machine;
//! use transmuter::workload::{Op, Phase, Workload};
//!
//! // A tiny workload: 16 GPE streams of strided loads and FLOPs.
//! let streams: Vec<Vec<Op>> = (0..16)
//!     .map(|g| {
//!         (0..64u64)
//!             .flat_map(|i| {
//!                 [Op::Load { addr: g as u64 * 4096 + i * 32, pc: 1 }, Op::Flops(1)]
//!             })
//!             .collect()
//!     })
//!     .collect();
//! let workload = Workload::new("tiny", vec![Phase::new("phase0", streams)]);
//!
//! // Fit a one-example-per-dimension ensemble that recommends the
//! // baseline configuration whatever the counters say.
//! let mut trees = BTreeMap::new();
//! for p in ConfigParam::ALL {
//!     let mut data = Dataset::new(feature_names());
//!     let cfg = TransmuterConfig::baseline();
//!     data.push(feature_vector(&Telemetry::default(), &cfg), p.get_index(&cfg));
//!     trees.insert(p, DecisionTree::fit(&data, &TreeParams::default()));
//! }
//! let ensemble = PredictiveEnsemble::new(trees);
//!
//! let spec = MachineSpec::default().with_epoch_ops(100);
//! let mut ctrl = SparseAdaptController::new(ensemble, ReconfigPolicy::Conservative, spec);
//! let mut machine = Machine::new(spec, TransmuterConfig::baseline());
//! let result = machine.run_with_controller(&workload, &mut ctrl);
//! assert!(result.metrics().gflops_per_watt() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod epoch_cache;
pub mod eval;
pub mod exec;
pub mod features;
pub mod model;
pub mod policy;
pub mod runtime;
pub mod schemes;
pub mod service;
pub mod stitch;
pub mod trace_bin;
pub mod trace_cache;

pub use epoch_cache::EpochCache;
pub use model::PredictiveEnsemble;
pub use policy::ReconfigPolicy;
pub use runtime::SparseAdaptController;
pub use stitch::SweepData;
