//! Explainability helpers — the paper's stated reason for choosing
//! decision trees over random forests (§5.1: "a clear advantage of our
//! choice of decision trees as the predictive model lies in its
//! explainability").
//!
//! [`DecisionTree::to_dot`] renders Graphviz source;
//! [`DecisionTree::decision_path`] returns the sequence of tests a given
//! input traverses, so a runtime decision ("why did you downclock?")
//! can be traced to concrete counter thresholds.

use std::fmt::Write as _;

use crate::tree::{DecisionTree, NodeView};

/// One step of a decision path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Feature index tested.
    pub feature: usize,
    /// Feature name if known.
    pub feature_name: String,
    /// Split threshold.
    pub threshold: f64,
    /// The input's value for the feature.
    pub value: f64,
    /// `true` if the input went left (`value <= threshold`).
    pub went_left: bool,
}

impl DecisionTree {
    /// Renders the tree as Graphviz DOT source. `feature_names` may be
    /// shorter than the feature count; missing names print as `f<i>`.
    pub fn to_dot(&self, feature_names: &[String]) -> String {
        let name = |i: usize| -> String {
            feature_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("f{i}"))
        };
        let mut out = String::from("digraph tree {\n  node [shape=box];\n");
        for (id, node) in self.node_views().into_iter().enumerate() {
            match node {
                NodeView::Leaf { class } => {
                    let _ = writeln!(out, "  n{id} [label=\"class {class}\", style=filled];");
                }
                NodeView::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let _ = writeln!(
                        out,
                        "  n{id} [label=\"{} <= {threshold:.4}\"];",
                        name(feature)
                    );
                    let _ = writeln!(out, "  n{id} -> n{left} [label=\"yes\"];");
                    let _ = writeln!(out, "  n{id} -> n{right} [label=\"no\"];");
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// The tests an input row traverses, ending at its predicted class.
    /// Returns `(steps, predicted_class)`.
    pub fn decision_path(&self, row: &[f64], feature_names: &[String]) -> (Vec<PathStep>, usize) {
        let views = self.node_views();
        let mut id = 0usize;
        let mut steps = Vec::new();
        loop {
            match &views[id] {
                NodeView::Leaf { class } => return (steps, *class),
                NodeView::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let value = row[*feature];
                    let went_left = value <= *threshold;
                    steps.push(PathStep {
                        feature: *feature,
                        feature_name: feature_names
                            .get(*feature)
                            .cloned()
                            .unwrap_or_else(|| format!("f{feature}")),
                        threshold: *threshold,
                        value,
                        went_left,
                    });
                    id = if went_left { *left } else { *right };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Dataset, DecisionTree, TreeParams};

    fn names() -> Vec<String> {
        vec!["x".to_string()]
    }

    fn tree() -> DecisionTree {
        let mut d = Dataset::new(names());
        for i in 0..40 {
            let x = i as f64 / 40.0;
            d.push(vec![x], usize::from(x > 0.5));
        }
        DecisionTree::fit(&d, &TreeParams::default())
    }

    #[test]
    fn dot_output_mentions_features_and_classes() {
        let dot = tree().to_dot(&names());
        assert!(dot.starts_with("digraph tree {"));
        assert!(dot.contains("x <="));
        assert!(dot.contains("class 0"));
        assert!(dot.contains("class 1"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn decision_path_agrees_with_predict() {
        let t = tree();
        for &x in &[0.1, 0.49, 0.51, 0.9] {
            let (steps, class) = t.decision_path(&[x], &names());
            assert_eq!(class, t.predict(&[x]));
            assert!(!steps.is_empty());
            // Every step's recorded direction must match the data.
            for s in &steps {
                assert_eq!(s.went_left, s.value <= s.threshold);
                assert_eq!(s.feature_name, "x");
            }
        }
    }
}
