//! Offline training pipeline for SparseAdapt's predictive model
//! (§4.1–4.2, §5.1).
//!
//! The pipeline:
//!
//! 1. [`scenarios`] — the Table 3 parameter sweeps (kernel × matrix
//!    dimension × density × external bandwidth), on uniform-random
//!    inputs so every epoch of a scenario exhibits the same behaviour.
//! 2. [`search`] — the Figure 4a "best configuration" search per epoch:
//!    best of K random samples → best axis neighbour → per-dimension
//!    sweep (under the conditional-independence assumption).
//! 3. [`collect`] — the Figure 4b dataset: for every epoch and every
//!    sampled configuration `S`, one example mapping
//!    `(telemetry under S, S)` → the searched best configuration. The
//!    same traces are labelled twice, once per optimisation mode.
//! 4. [`train`] — per-parameter decision trees, tuned by 3-fold
//!    cross-validation over the §5.1 hyperparameter grid, assembled into
//!    a [`sparseadapt::PredictiveEnsemble`]. One collection trains both
//!    modes' ensembles ([`train::train_and_save_modes`]), which the
//!    `train` binary writes out and [`train::train_or_load`] caches on
//!    a miss.
//!
//! # Example
//!
//! ```no_run
//! use trainer::{collect, train, scenarios::TrainingPreset};
//! use transmuter::config::MemKind;
//! use transmuter::metrics::OptMode;
//!
//! let data = collect::collect(MemKind::Cache, &collect::CollectOptions {
//!     preset: TrainingPreset::Quick,
//!     ..collect::CollectOptions::default()
//! });
//! let ensemble = train::train_ensemble(
//!     &data.datasets_for(OptMode::EnergyEfficient),
//!     &train::TrainOptions::default(),
//! );
//! ensemble.save(std::path::Path::new("model.json"))?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collect;
pub mod scenarios;
pub mod search;
pub mod train;

pub use collect::TrainingData;
