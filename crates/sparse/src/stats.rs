//! Structural statistics of sparse matrices.
//!
//! The generators' and the suite's tests use them to check that each
//! pattern class has the structure it claims: degree skew for power-law
//! matrices, diagonal locality for banded ones.

use crate::CsrMatrix;

/// Gini coefficient of the row-degree distribution — 0 for perfectly
/// uniform degrees, approaching 1 for extreme power-law hubs.
///
/// # Example
///
/// ```
/// use sparse::gen::{uniform_random, GenSeed};
/// use sparse::stats::degree_gini;
///
/// let m = uniform_random(256, 4_000, GenSeed(1)).to_csr();
/// assert!(degree_gini(&m) < 0.4);
/// ```
pub fn degree_gini(m: &CsrMatrix) -> f64 {
    let mut degrees: Vec<f64> = (0..m.rows()).map(|r| m.row_nnz(r) as f64).collect();
    degrees.sort_by(|a, b| a.partial_cmp(b).expect("degrees are finite"));
    let n = degrees.len() as f64;
    let sum: f64 = degrees.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = degrees
        .iter()
        .enumerate()
        .map(|(i, &d)| (i as f64 + 1.0) * d)
        .sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

/// Gini coefficient of the column-degree distribution.
///
/// With the paper's R-MAT parameters (`A = C = 0.1`, `B = 0.4`,
/// `D = 0.4`) the row marginal is uniform (`A+B = C+D = 0.5`) while the
/// column marginal is skewed (`B+D = 0.8` toward high columns), so
/// power-law structure shows up in *column* degrees.
pub fn col_degree_gini(m: &CsrMatrix) -> f64 {
    degree_gini(&m.transpose())
}

/// Mean absolute distance of non-zeros from the diagonal. Small values
/// mean the matrix hugs the diagonal (meshes, stencils); large values mean
/// scattered structure (graphs).
pub fn mean_abs_diag_distance(m: &CsrMatrix) -> f64 {
    if m.nnz() == 0 {
        return 0.0;
    }
    let total: f64 = m
        .iter()
        .map(|(r, c, _)| (r as i64 - c as i64).abs() as f64)
        .sum();
    total / m.nnz() as f64
}

/// Fraction of non-zeros within `band` of the diagonal.
pub fn band_fraction(m: &CsrMatrix, band: u32) -> f64 {
    if m.nnz() == 0 {
        return 0.0;
    }
    let inside = m
        .iter()
        .filter(|&(r, c, _)| (r as i64 - c as i64).unsigned_abs() <= band as u64)
        .count();
    inside as f64 / m.nnz() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn gini_zero_for_uniform_degrees() {
        // Identity: every row has exactly one nonzero.
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 1.0);
        }
        let g = degree_gini(&coo.to_csr());
        assert!(g.abs() < 1e-9, "gini {g}");
    }

    #[test]
    fn gini_high_for_single_hub() {
        // One row holds everything.
        let mut coo = CooMatrix::new(16, 16);
        for c in 0..16 {
            coo.push(0, c, 1.0);
        }
        let g = degree_gini(&coo.to_csr());
        assert!(g > 0.9, "gini {g}");
    }

    #[test]
    fn diag_distance_identity_is_zero() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
        }
        assert_eq!(mean_abs_diag_distance(&coo.to_csr()), 0.0);
    }

    #[test]
    fn band_fraction_bounds() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 3, 1.0);
        coo.push(1, 1, 1.0);
        let m = coo.to_csr();
        assert_eq!(band_fraction(&m, 0), 0.5);
        assert_eq!(band_fraction(&m, 3), 1.0);
    }
}
