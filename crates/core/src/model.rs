//! The predictive model: an ensemble of per-parameter decision trees.
//!
//! Following §4.1, each configuration dimension `Yᵢ` is treated as
//! conditionally independent given the counters, so the model is a set
//! of six independent classifiers `fᵢ : (counters, current config) → Yᵢ`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use mltree::DecisionTree;
use serde::{Deserialize, Serialize};
use transmuter::config::{ConfigParam, TransmuterConfig};
use transmuter::counters::Telemetry;

use crate::features::feature_vector;

/// The trained per-parameter ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictiveEnsemble {
    trees: BTreeMap<String, DecisionTree>,
}

impl PredictiveEnsemble {
    /// Assembles an ensemble from per-parameter trees.
    ///
    /// # Panics
    ///
    /// Panics if any of the six [`ConfigParam`] dimensions is missing.
    pub fn new(trees: BTreeMap<ConfigParam, DecisionTree>) -> Self {
        for p in ConfigParam::ALL {
            assert!(trees.contains_key(&p), "missing tree for {p:?}");
        }
        PredictiveEnsemble {
            trees: trees
                .into_iter()
                .map(|(p, t)| (p.name().to_string(), t))
                .collect(),
        }
    }

    /// The tree for one parameter.
    pub fn tree(&self, param: ConfigParam) -> &DecisionTree {
        &self.trees[param.name()]
    }

    /// Replaces the tree of one parameter (used by the Figure 9
    /// model-complexity study, which varies one tree's depth at a time).
    pub fn replace_tree(&mut self, param: ConfigParam, tree: DecisionTree) {
        self.trees.insert(param.name().to_string(), tree);
    }

    /// Predicts the best configuration for the next epoch from the
    /// current epoch's telemetry and configuration.
    ///
    /// Out-of-range class predictions (possible when a tree was trained
    /// on a label subset) clamp to the dimension's last value.
    pub fn predict(&self, telemetry: &Telemetry, current: &TransmuterConfig) -> TransmuterConfig {
        let x = feature_vector(telemetry, current);
        let mut cfg = *current;
        for p in ConfigParam::ALL {
            let class = self.tree(p).predict(&x).min(p.value_count() - 1);
            p.set_index(&mut cfg, class);
        }
        cfg
    }

    /// Per-parameter Gini feature importances, keyed by parameter.
    pub fn feature_importances(&self) -> BTreeMap<ConfigParam, Vec<f64>> {
        ConfigParam::ALL
            .iter()
            .map(|&p| (p, self.tree(p).feature_importances().to_vec()))
            .collect()
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ensemble serialises")
    }

    /// Parses the JSON produced by [`PredictiveEnsemble::to_json`].
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON or a missing parameter tree.
    pub fn from_json(text: &str) -> io::Result<Self> {
        let e: PredictiveEnsemble = serde_json::from_str(text)
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        for p in ConfigParam::ALL {
            if !e.trees.contains_key(p.name()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("model file lacks a tree for {}", p.name()),
                ));
            }
        }
        Ok(e)
    }

    /// Writes the model to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a model file.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse errors.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{feature_names, FEATURE_COUNT};
    use mltree::{Dataset, TreeParams};

    /// Builds a tiny ensemble where each parameter's tree predicts a
    /// constant class `c`.
    fn constant_ensemble(class_per_param: &[usize; 6]) -> PredictiveEnsemble {
        let mut trees = BTreeMap::new();
        for (i, p) in ConfigParam::ALL.into_iter().enumerate() {
            let mut d = Dataset::new(feature_names());
            // Two identical examples of the target class (plus a filler
            // class 0 example so n_classes is right when class > 0).
            let row = vec![0.0; FEATURE_COUNT];
            d.push(row.clone(), class_per_param[i]);
            d.push(row.clone(), class_per_param[i]);
            let tree = DecisionTree::fit(&d, &TreeParams::default());
            trees.insert(p, tree);
        }
        PredictiveEnsemble::new(trees)
    }

    #[test]
    fn predict_sets_each_dimension() {
        let e = constant_ensemble(&[1, 0, 2, 3, 4, 1]);
        let cfg = e.predict(&Telemetry::default(), &TransmuterConfig::baseline());
        assert_eq!(ConfigParam::L1Sharing.get_index(&cfg), 1);
        assert_eq!(ConfigParam::L2Sharing.get_index(&cfg), 0);
        assert_eq!(cfg.l1_capacity_kb, 16);
        assert_eq!(cfg.l2_capacity_kb, 32);
        assert_eq!(ConfigParam::Clock.get_index(&cfg), 4);
        assert_eq!(cfg.prefetch_degree, 4);
    }

    #[test]
    fn json_roundtrip() {
        let e = constant_ensemble(&[0, 1, 2, 0, 5, 2]);
        let parsed = PredictiveEnsemble::from_json(&e.to_json()).unwrap();
        assert_eq!(e, parsed);
    }

    #[test]
    fn rejects_incomplete_model_file() {
        assert!(PredictiveEnsemble::from_json("{\"trees\":{}}").is_err());
    }

    #[test]
    fn l1_kind_is_never_predicted() {
        let e = constant_ensemble(&[1, 1, 1, 1, 1, 1]);
        let mut spm = TransmuterConfig::best_avg_spm();
        spm.prefetch_degree = 0;
        let out = e.predict(&Telemetry::default(), &spm);
        assert_eq!(out.l1_kind, spm.l1_kind, "L1 kind is compile-time");
    }
}
