//! Trained-model management for the harness.
//!
//! Models are trained once per (scale preset, L1 kind, mode) and cached
//! under `models/<preset>/`; every experiment then loads from disk, so
//! repeated harness invocations skip the training sweep.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use sparse::suite::Scale;
use sparseadapt::memo::OnceMemo;
use sparseadapt::PredictiveEnsemble;
use trainer::collect::CollectOptions;
use trainer::scenarios::TrainingPreset;
use trainer::train::{train_or_load, TrainOptions};
use transmuter::config::MemKind;
use transmuter::metrics::OptMode;

/// The model cache directory for a scale.
pub fn model_dir(scale: Scale) -> PathBuf {
    let preset = match scale {
        Scale::Quick => "quick",
        Scale::Half => "half",
        Scale::Paper => "paper",
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../models")
        .join(preset)
}

/// The results directory (CSV output of the harness).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Collection options matching a scale.
pub fn collect_options(scale: Scale, threads: usize) -> CollectOptions {
    CollectOptions {
        preset: match scale {
            Scale::Quick => TrainingPreset::Quick,
            Scale::Half => TrainingPreset::Quick,
            Scale::Paper => TrainingPreset::Paper,
        },
        k_random: match scale {
            Scale::Quick => 8,
            Scale::Half => 12,
            Scale::Paper => 24,
        },
        seed: 0xDA7A,
        threads,
    }
}

/// Loads (or trains and caches) the ensemble for (scale, L1 kind, mode),
/// as an owned copy for callers that hand it to a controller.
///
/// # Panics
///
/// Panics on unrecoverable I/O failure of the model cache.
pub fn ensemble(
    scale: Scale,
    l1_kind: MemKind,
    mode: OptMode,
    threads: usize,
) -> PredictiveEnsemble {
    (*shared_ensemble(scale, l1_kind, mode, threads)).clone()
}

/// Loads (or trains and caches) the ensemble for (scale, L1 kind, mode),
/// shared rather than copied.
///
/// Memoised per process: when experiments run concurrently, the first
/// request for a given (scale, L1 kind, mode) trains/loads while later
/// requests block on its slot and then share the result — the
/// disk-level cache under `models/` is never written to by two threads
/// at once.
///
/// # Panics
///
/// Panics on unrecoverable I/O failure of the model cache.
pub fn shared_ensemble(
    scale: Scale,
    l1_kind: MemKind,
    mode: OptMode,
    threads: usize,
) -> Arc<PredictiveEnsemble> {
    memo().get_or_build((scale, l1_kind, mode), || {
        let dir = model_dir(scale);
        let copts = collect_options(scale, threads);
        let topts = TrainOptions {
            // The grid triples training time; quick runs use tuned defaults.
            grid: scale == Scale::Paper,
            ..TrainOptions::default()
        };
        Arc::new(
            train_or_load(&dir, l1_kind, mode, &copts, &topts)
                .expect("model cache directory must be writable"),
        )
    })
}

/// The ensemble for (scale, L1 kind, mode) if this process has already
/// loaded it: never loads, trains or waits. `None` when it is not
/// loaded yet, or when the memo's lock is held.
pub fn loaded_ensemble(
    scale: Scale,
    l1_kind: MemKind,
    mode: OptMode,
) -> Option<Arc<PredictiveEnsemble>> {
    memo().get(&(scale, l1_kind, mode))
}

type EnsembleMemo = OnceMemo<(Scale, MemKind, OptMode), Arc<PredictiveEnsemble>>;

/// One slot per (scale, L1 kind, mode); a slot fills once.
fn memo() -> &'static EnsembleMemo {
    static MEMO: OnceLock<EnsembleMemo> = OnceLock::new();
    MEMO.get_or_init(EnsembleMemo::default)
}
