//! Ensemble training (§5.1) and on-disk model caching.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use mltree::cv::{default_grid, grid_search};
use mltree::{Dataset, DecisionTree, TreeParams};
use sparseadapt::PredictiveEnsemble;
use transmuter::config::{ConfigParam, MemKind};
use transmuter::metrics::OptMode;

use crate::collect::{collect, CollectOptions};
use crate::TrainingData;

/// Training options.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    /// Run the §5.1 hyperparameter grid with k-fold CV; otherwise fit
    /// once with `fallback` (much faster, slightly worse).
    pub grid: bool,
    /// CV folds (the paper uses k = 3).
    pub cv_folds: usize,
    /// Parameters used when `grid` is off.
    pub fallback: TreeParams,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            grid: true,
            cv_folds: 3,
            fallback: TreeParams::default(),
        }
    }
}

/// Trains one decision tree per configuration parameter and assembles
/// the ensemble.
///
/// # Panics
///
/// Panics if any per-parameter dataset is empty or a parameter is
/// missing from `datasets`.
pub fn train_ensemble(
    datasets: &BTreeMap<ConfigParam, Dataset>,
    opts: &TrainOptions,
) -> PredictiveEnsemble {
    let mut trees = BTreeMap::new();
    for p in ConfigParam::ALL {
        let data = datasets
            .get(&p)
            .unwrap_or_else(|| panic!("missing dataset for {p:?}"));
        let tree = if opts.grid {
            grid_search(data, &default_grid(), opts.cv_folds).1
        } else {
            DecisionTree::fit(data, &opts.fallback)
        };
        trees.insert(p, tree);
    }
    PredictiveEnsemble::new(trees)
}

/// Canonical model-file path for an (L1 kind, mode) pair.
pub fn model_path(dir: &Path, l1_kind: MemKind, mode: OptMode) -> PathBuf {
    let kind = match l1_kind {
        MemKind::Cache => "cache",
        MemKind::Spm => "spm",
    };
    dir.join(format!("sparseadapt-{kind}-{}.json", mode.name()))
}

/// Trains one ensemble per optimisation mode from one collection (the
/// traces are mode-independent) and saves each at its [`model_path`]
/// under `dir`, creating `dir` if needed. Returns the ensembles in
/// [`OptMode::ALL`] order.
///
/// # Errors
///
/// Propagates I/O errors from the model directory.
pub fn train_and_save_modes(
    dir: &Path,
    l1_kind: MemKind,
    data: &TrainingData,
    opts: &TrainOptions,
) -> io::Result<Vec<PredictiveEnsemble>> {
    std::fs::create_dir_all(dir)?;
    OptMode::ALL
        .iter()
        .map(|&mode| {
            let ensemble = train_ensemble(&data.datasets_for(mode), opts);
            ensemble.save(&model_path(dir, l1_kind, mode))?;
            Ok(ensemble)
        })
        .collect()
}

/// Loads the cached model for (L1 kind, mode). On a miss it collects
/// data once, trains and saves *both* modes' models
/// ([`train_and_save_modes`]), and returns the one for `mode`. This is
/// how the harness and the examples obtain models without retraining
/// on every run.
///
/// # Errors
///
/// Propagates I/O errors from the cache directory.
pub fn train_or_load(
    dir: &Path,
    l1_kind: MemKind,
    mode: OptMode,
    collect_opts: &CollectOptions,
    train_opts: &TrainOptions,
) -> io::Result<PredictiveEnsemble> {
    let path = model_path(dir, l1_kind, mode);
    if path.exists() {
        return PredictiveEnsemble::load(&path);
    }
    let data = collect(l1_kind, collect_opts);
    let mut trained = train_and_save_modes(dir, l1_kind, &data, train_opts)?;
    let at = OptMode::ALL
        .iter()
        .position(|&m| m == mode)
        .expect("OptMode::ALL lists every mode");
    Ok(trained.swap_remove(at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::TrainingPreset;

    fn tiny_data() -> crate::TrainingData {
        collect(
            MemKind::Cache,
            &CollectOptions {
                preset: TrainingPreset::Tiny,
                k_random: 5,
                seed: 9,
                threads: 2,
            },
        )
    }

    #[test]
    fn trains_an_ensemble_that_fits_training_data() {
        let data = tiny_data();
        let ds = data.datasets_for(OptMode::EnergyEfficient);
        let opts = TrainOptions {
            grid: false,
            ..TrainOptions::default()
        };
        let ensemble = train_ensemble(&ds, &opts);
        // Every per-parameter tree should fit its training set well.
        for p in ConfigParam::ALL {
            let acc = ensemble.tree(p).accuracy(&ds[&p]);
            assert!(acc > 0.7, "{p:?} training accuracy {acc}");
        }
    }

    #[test]
    fn train_or_load_caches_to_disk() {
        let dir = std::env::temp_dir().join(format!("sa-test-models-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let copts = CollectOptions {
            preset: TrainingPreset::Tiny,
            k_random: 4,
            seed: 5,
            threads: 2,
        };
        let topts = TrainOptions {
            grid: false,
            ..TrainOptions::default()
        };
        let load = |mode| train_or_load(&dir, MemKind::Cache, mode, &copts, &topts).unwrap();
        let saved = |mode| PredictiveEnsemble::load(&model_path(&dir, MemKind::Cache, mode));
        // One miss trains and saves both modes from one collection, and
        // returns the one asked for.
        let pp = load(OptMode::PowerPerformance);
        let ee = saved(OptMode::EnergyEfficient).expect("the miss saved EE too");
        assert_eq!(pp, saved(OptMode::PowerPerformance).unwrap());
        assert_ne!(pp, ee, "the modes' labels differ, so their trees do");
        // Later calls load the saved files, whichever mode they ask for.
        assert_eq!(load(OptMode::EnergyEfficient), ee);
        assert_eq!(load(OptMode::PowerPerformance), pp);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
