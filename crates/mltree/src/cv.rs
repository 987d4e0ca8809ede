//! Deterministic k-fold cross-validation and hyperparameter grid search
//! (the §5.1 training methodology: k = 3 over `criterion`, `max_depth`
//! and `min_samples_leaf`).

use crate::tree::{Criterion, DecisionTree, TreeParams};
use crate::Dataset;

/// Splits `0..n` into `k` folds deterministically (round-robin, so class
/// balance is roughly preserved for shuffled datasets). Returns
/// `(train_indices, test_indices)` per fold.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`.
pub fn kfold_indices(n: usize, k: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k > 0, "k must be positive");
    assert!(k <= n, "cannot make {k} folds from {n} examples");
    (0..k)
        .map(|fold| {
            let mut train = Vec::new();
            let mut test = Vec::new();
            for i in 0..n {
                if i % k == fold {
                    test.push(i);
                } else {
                    train.push(i);
                }
            }
            (train, test)
        })
        .collect()
}

/// Mean held-out accuracy of tree parameters under k-fold CV.
pub fn cross_validate(data: &Dataset, params: &TreeParams, k: usize) -> f64 {
    let folds = kfold_indices(data.len(), k);
    let mut total = 0.0;
    for (train_idx, test_idx) in &folds {
        let train = data.subset(train_idx);
        let test = data.subset(test_idx);
        let tree = DecisionTree::fit(&train, params);
        total += tree.accuracy(&test);
    }
    total / folds.len() as f64
}

/// The hyperparameter grid of §5.1.
pub fn default_grid() -> Vec<TreeParams> {
    let mut grid = Vec::new();
    for &criterion in &[Criterion::Gini, Criterion::Entropy] {
        for &max_depth in &[4usize, 8, 14, 20] {
            for &min_samples_leaf in &[1usize, 4, 16] {
                grid.push(TreeParams {
                    criterion,
                    max_depth,
                    min_samples_leaf,
                    min_samples_split: 2,
                });
            }
        }
    }
    grid
}

/// Result of a grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// The winning hyperparameters.
    pub best_params: TreeParams,
    /// Its mean CV accuracy.
    pub best_accuracy: f64,
    /// All `(params, accuracy)` pairs evaluated.
    pub all: Vec<(TreeParams, f64)>,
}

/// Grid search with k-fold CV; ties break toward earlier (simpler) grid
/// entries. Returns the result and a tree refit on the full dataset.
///
/// # Panics
///
/// Panics if the grid is empty or the dataset has fewer than `k`
/// examples.
pub fn grid_search(
    data: &Dataset,
    grid: &[TreeParams],
    k: usize,
) -> (GridSearchResult, DecisionTree) {
    assert!(!grid.is_empty(), "grid must not be empty");
    let mut all = Vec::with_capacity(grid.len());
    let mut best: Option<(TreeParams, f64)> = None;
    for params in grid {
        let acc = cross_validate(data, params, k);
        all.push((*params, acc));
        if best.as_ref().is_none_or(|(_, b)| acc > *b) {
            best = Some((*params, acc));
        }
    }
    let (best_params, best_accuracy) = best.expect("grid non-empty");
    let tree = DecisionTree::fit(data, &best_params);
    (
        GridSearchResult {
            best_params,
            best_accuracy,
            all,
        },
        tree,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stepped_data() -> Dataset {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..120 {
            let x = i as f64 / 120.0;
            d.push(vec![x], usize::from(x > 0.35));
        }
        d
    }

    #[test]
    fn folds_partition_everything() {
        let folds = kfold_indices(10, 3);
        assert_eq!(folds.len(), 3);
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 10);
            for t in test {
                assert!(!train.contains(t));
            }
        }
        let all_test: usize = folds.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(all_test, 10);
    }

    #[test]
    fn cv_accuracy_high_on_separable_data() {
        let d = stepped_data();
        let acc = cross_validate(&d, &TreeParams::default(), 3);
        assert!(acc > 0.95, "cv accuracy {acc}");
    }

    #[test]
    fn grid_search_picks_a_working_config() {
        let d = stepped_data();
        let (res, tree) = grid_search(&d, &default_grid(), 3);
        assert!(res.best_accuracy > 0.95);
        assert_eq!(res.all.len(), default_grid().len());
        assert!(tree.accuracy(&d) > 0.95);
    }

    #[test]
    #[should_panic(expected = "folds")]
    fn too_many_folds_panics() {
        kfold_indices(2, 5);
    }
}
