//! Decision-tree machine learning for SparseAdapt's predictive model.
//!
//! The paper trains one Scikit-learn `DecisionTreeClassifier` per
//! configuration parameter, tuned by 3-fold cross-validation over
//! `criterion`, `max_depth` and `min_samples_leaf` (§5.1), and reports
//! Gini feature importances (§6.3.2). This crate reimplements that stack
//! from scratch:
//!
//! * [`DecisionTree`] — CART with Gini/entropy splits, depth and leaf
//!   limits, optional reduced-error pruning, and Gini importances.
//! * [`cv`] — deterministic k-fold cross-validation and grid search.
//! * [`Dataset`] — a feature matrix with class labels and CSV I/O.
//!
//! The paper also weighed linear and logistic regression (rejected for
//! poor accuracy) and random forests (as accurate as trees, but costlier)
//! before settling on trees (§4.3). That model comparison is not
//! reproduced here, so only trees are implemented.
//!
//! # Example
//!
//! ```
//! use mltree::{Dataset, DecisionTree, TreeParams};
//!
//! // class = (x0 > 0.45) && (x1 > 0.45): needs two levels of splits.
//! let mut d = Dataset::new(vec!["x0".into(), "x1".into()]);
//! for i in 0..100 {
//!     let x0 = (i % 10) as f64 / 10.0;
//!     let x1 = (i / 10) as f64 / 10.0;
//!     let y = usize::from(x0 > 0.45 && x1 > 0.45);
//!     d.push(vec![x0, x1], y);
//! }
//! let tree = DecisionTree::fit(&d, &TreeParams::default());
//! assert!(tree.accuracy(&d) > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cv;
mod dataset;
mod explain;
mod tree;

pub use dataset::Dataset;
pub use explain::PathStep;
pub use tree::{Criterion, DecisionTree, NodeView, TreeParams};
