//! CART decision-tree classifier.

use serde::{Deserialize, Serialize};

use crate::Dataset;

/// Split-quality criterion (the `criterion` hyperparameter of §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Criterion {
    /// Gini impurity.
    #[default]
    Gini,
    /// Shannon entropy.
    Entropy,
}

impl Criterion {
    fn impurity(self, counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        match self {
            Criterion::Gini => {
                1.0 - counts
                    .iter()
                    .map(|&c| {
                        let p = c as f64 / total as f64;
                        p * p
                    })
                    .sum::<f64>()
            }
            Criterion::Entropy => counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = c as f64 / total as f64;
                    -p * p.log2()
                })
                .sum(),
        }
    }
}

/// Training hyperparameters (the grid swept in §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Split criterion.
    pub criterion: Criterion,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum examples in each leaf.
    pub min_samples_leaf: usize,
    /// Minimum examples required to attempt a split.
    pub min_samples_split: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            criterion: Criterion::Gini,
            max_depth: 14,
            min_samples_leaf: 1,
            min_samples_split: 2,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
        /// Majority class of the subtree (used when pruning).
        majority: usize,
    },
}

/// Read-only view of one tree node, for explainability tooling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeView {
    /// A leaf predicting `class`.
    Leaf {
        /// Predicted class index.
        class: usize,
    },
    /// An internal split.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Threshold (go left when `value <= threshold`).
        threshold: f64,
        /// Left child node id.
        left: usize,
        /// Right child node id.
        right: usize,
    },
}

/// A trained CART decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_features: usize,
    n_classes: usize,
    importances: Vec<f64>,
    params: TreeParams,
}

impl DecisionTree {
    /// Fits a tree.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn fit(data: &Dataset, params: &TreeParams) -> DecisionTree {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let n_classes = data.n_classes().max(1);
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_features: data.n_features(),
            n_classes,
            importances: vec![0.0; data.n_features()],
            params: *params,
        };
        let all: Vec<usize> = (0..data.len()).collect();
        tree.grow(data, &all, 0);
        // Normalise importances.
        let total: f64 = tree.importances.iter().sum();
        if total > 0.0 {
            for v in &mut tree.importances {
                *v /= total;
            }
        }
        tree
    }

    /// Grows the subtree for `indices`; returns its node id.
    fn grow(&mut self, data: &Dataset, indices: &[usize], depth: usize) -> usize {
        let counts = class_counts(data, indices, self.n_classes);
        let majority = argmax(&counts);
        let impurity = self.params.criterion.impurity(&counts, indices.len());

        let should_split = depth < self.params.max_depth
            && indices.len() >= self.params.min_samples_split
            && impurity > 1e-12;
        if !should_split {
            return self.push(Node::Leaf { class: majority });
        }
        match self.best_split(data, indices, impurity) {
            None => self.push(Node::Leaf { class: majority }),
            Some(split) => {
                let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
                for &i in indices {
                    if data.feature_row(i)[split.feature] <= split.threshold {
                        left_idx.push(i);
                    } else {
                        right_idx.push(i);
                    }
                }
                // Weighted impurity decrease = Gini importance contribution.
                self.importances[split.feature] += indices.len() as f64 * split.gain;
                let node = self.push(Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    left: usize::MAX,
                    right: usize::MAX,
                    majority,
                });
                let left = self.grow(data, &left_idx, depth + 1);
                let right = self.grow(data, &right_idx, depth + 1);
                if let Node::Split {
                    left: l, right: r, ..
                } = &mut self.nodes[node]
                {
                    *l = left;
                    *r = right;
                }
                node
            }
        }
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Finds the best (feature, threshold) split, or `None` if no split
    /// satisfies the leaf-size constraint or improves impurity.
    fn best_split(&self, data: &Dataset, indices: &[usize], parent_impurity: f64) -> Option<Split> {
        let n = indices.len();
        let mut best: Option<Split> = None;
        for f in 0..self.n_features {
            // Sort examples by this feature.
            let mut order: Vec<usize> = indices.to_vec();
            order.sort_by(|&a, &b| {
                data.feature_row(a)[f]
                    .partial_cmp(&data.feature_row(b)[f])
                    .expect("features are finite")
            });
            // Sweep thresholds between distinct values.
            let mut left_counts = vec![0usize; self.n_classes];
            let right_all = class_counts(data, indices, self.n_classes);
            let mut right_counts = right_all;
            for cut in 1..n {
                let prev = order[cut - 1];
                left_counts[data.label(prev)] += 1;
                right_counts[data.label(prev)] -= 1;
                let v_prev = data.feature_row(prev)[f];
                let v_next = data.feature_row(order[cut])[f];
                if v_prev == v_next {
                    continue;
                }
                if cut < self.params.min_samples_leaf || n - cut < self.params.min_samples_leaf {
                    continue;
                }
                let il = self.params.criterion.impurity(&left_counts, cut);
                let ir = self.params.criterion.impurity(&right_counts, n - cut);
                let weighted = (cut as f64 * il + (n - cut) as f64 * ir) / n as f64;
                let gain = parent_impurity - weighted;
                if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain + 1e-15) {
                    best = Some(Split {
                        feature: f,
                        threshold: (v_prev + v_next) / 2.0,
                        gain,
                    });
                }
            }
        }
        best
    }

    /// Predicts the class label of one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    id = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Fraction of dataset rows predicted correctly (0 for an empty
    /// dataset).
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data.rows().filter(|(x, y)| self.predict(x) == *y).count();
        correct as f64 / data.len() as f64
    }

    /// Reduced-error pruning against a validation set: every split whose
    /// replacement by its majority leaf does not reduce validation
    /// accuracy is collapsed (bottom-up). Counters decision trees'
    /// tendency to overfit (§5.1).
    pub fn prune(&mut self, validation: &Dataset) {
        if validation.is_empty() || self.nodes.is_empty() {
            return;
        }
        // Bottom-up: children have larger ids than parents only for the
        // left spine; safest is to iterate until fixpoint.
        loop {
            let base = self.accuracy(validation);
            let mut improved = false;
            for id in (0..self.nodes.len()).rev() {
                let Node::Split { majority, .. } = self.nodes[id] else {
                    continue;
                };
                let saved = self.nodes[id].clone();
                self.nodes[id] = Node::Leaf { class: majority };
                let acc = self.accuracy(validation);
                if acc >= base {
                    improved = improved || acc > base;
                    // keep the pruned version (ties prefer simpler trees)
                } else {
                    self.nodes[id] = saved;
                }
            }
            if !improved {
                break;
            }
        }
    }

    /// Normalised Gini feature importances (summing to 1 when any split
    /// exists).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth of the grown tree.
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        self.depth_of(0)
    }

    fn depth_of(&self, id: usize) -> usize {
        match &self.nodes[id] {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + self.depth_of(*left).max(self.depth_of(*right)),
        }
    }

    /// The training hyperparameters.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Read-only views of every node (index = node id; the root is 0).
    pub fn node_views(&self) -> Vec<NodeView> {
        self.nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { class } => NodeView::Leaf { class: *class },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => NodeView::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
            })
            .collect()
    }
}

struct Split {
    feature: usize,
    threshold: f64,
    gain: f64,
}

fn class_counts(data: &Dataset, indices: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &i in indices {
        counts[data.label(i)] += 1;
    }
    counts
}

fn argmax(counts: &[usize]) -> usize {
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threshold_data() -> Dataset {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            let x = i as f64 / 50.0;
            d.push(vec![x], usize::from(x > 0.6));
        }
        d
    }

    #[test]
    fn learns_a_threshold() {
        let d = threshold_data();
        let t = DecisionTree::fit(&d, &TreeParams::default());
        assert_eq!(t.accuracy(&d), 1.0);
        assert_eq!(t.predict(&[0.1]), 0);
        assert_eq!(t.predict(&[0.9]), 1);
        // Only one informative feature exists.
        assert!((t.feature_importances()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_depth_limits_tree() {
        // label = parity of floor(8x): eight bands, needs depth >= 3.
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..128 {
            let x = i as f64 / 128.0;
            d.push(vec![x], ((x * 8.0) as usize) % 2);
        }
        let shallow = DecisionTree::fit(
            &d,
            &TreeParams {
                max_depth: 1,
                ..TreeParams::default()
            },
        );
        assert!(shallow.depth() <= 1);
        assert!(shallow.accuracy(&d) < 0.9);
        let deep = DecisionTree::fit(
            &d,
            &TreeParams {
                max_depth: 20,
                ..TreeParams::default()
            },
        );
        assert!(deep.depth() > shallow.depth());
        assert_eq!(deep.accuracy(&d), 1.0);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], usize::from(i == 0)); // one outlier
        }
        let t = DecisionTree::fit(
            &d,
            &TreeParams {
                min_samples_leaf: 5,
                ..TreeParams::default()
            },
        );
        // The outlier cannot be isolated with leaves of >= 5.
        assert_eq!(t.predict(&[0.0]), 0);
    }

    #[test]
    fn entropy_also_learns() {
        let d = threshold_data();
        let t = DecisionTree::fit(
            &d,
            &TreeParams {
                criterion: Criterion::Entropy,
                ..TreeParams::default()
            },
        );
        assert_eq!(t.accuracy(&d), 1.0);
    }

    #[test]
    fn multiclass() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..90 {
            let x = i as f64 / 90.0;
            let y = if x < 0.33 {
                0
            } else if x < 0.66 {
                1
            } else {
                2
            };
            d.push(vec![x], y);
        }
        let t = DecisionTree::fit(&d, &TreeParams::default());
        assert_eq!(t.accuracy(&d), 1.0);
        assert_eq!(t.predict(&[0.5]), 1);
    }

    #[test]
    fn pruning_shrinks_overfit_trees() {
        // Train labels contain noise; validation is clean.
        let mut train = Dataset::new(vec!["x".into()]);
        let mut val = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            let x = i as f64 / 100.0;
            let clean = usize::from(x > 0.5);
            let noisy = if i % 17 == 0 { 1 - clean } else { clean };
            train.push(vec![x], noisy);
            val.push(vec![x + 0.003], clean);
        }
        let mut t = DecisionTree::fit(&train, &TreeParams::default());
        let before = t.node_count();
        let acc_before = t.accuracy(&val);
        t.prune(&val);
        assert!(t.node_count() <= before);
        assert!(t.accuracy(&val) >= acc_before);
    }

    #[test]
    fn importances_sum_to_one() {
        let mut d = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..60 {
            let a = (i % 6) as f64;
            let b = (i % 5) as f64;
            let c = (i % 2) as f64;
            d.push(vec![a, b, c], usize::from(c > 0.5));
        }
        let t = DecisionTree::fit(&d, &TreeParams::default());
        let sum: f64 = t.feature_importances().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // feature c is the label.
        assert!(t.feature_importances()[2] > 0.9);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let d = Dataset::new(vec!["x".into()]);
        DecisionTree::fit(&d, &TreeParams::default());
    }
}
