//! Sparse matrix substrate for the SparseAdapt reproduction.
//!
//! This crate provides the data formats and dataset generators that the
//! paper's evaluation relies on:
//!
//! * [`CooMatrix`], [`CsrMatrix`], [`CscMatrix`] — the classic triplet /
//!   compressed-row / compressed-column storage formats. SpMSpM consumes
//!   matrix *A* in CSC and matrix *B* in CSR (outer-product order), SpMSpV
//!   consumes CSC plus an index–value sparse vector.
//! * [`SparseVector`] — index–value pairs, used as the vector operand of
//!   SpMSpV and as the frontier of the graph kernels.
//! * [`gen`] — dataset generators: uniform random (the paper uses SciPy),
//!   R-MAT power-law (Chakrabarti et al., A = C = 0.1, B = 0.4), the
//!   structured stand-ins for the SuiteSparse/SNAP matrices of Table 5, and
//!   the dense-column/sparse-strip motivation matrix of Figure 1.
//! * [`stats`] — structural statistics (density, degree skew, bandwidth)
//!   used to sanity-check that generated matrices land in the right
//!   pattern class.
//! * [`suite`] — the named evaluation suite (U1–U3, P1–P3, R01–R16).
//! * [`mtx`] — strict, streaming Matrix Market reader/writer with typed
//!   errors and content hashing (coordinate + array forms; general,
//!   symmetric and skew-symmetric storage; real, integer and pattern
//!   fields), so users holding the original SuiteSparse/SNAP files can
//!   swap them in for the stand-ins.
//!
//! # Example
//!
//! ```
//! use sparse::gen::{rmat, GenSeed};
//! use sparse::stats;
//!
//! let m = rmat(1024, 8_000, GenSeed(7));
//! assert_eq!(m.dim(), 1024);
//! // R-MAT graphs are heavily skewed: the degree Gini coefficient is high.
//! let gini = stats::col_degree_gini(&m.to_csr());
//! assert!(gini > 0.3, "power-law matrix should be skewed, gini={gini}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coo;
mod csc;
mod csr;
mod error;
pub mod gen;
pub mod mtx;
pub mod stats;
pub mod suite;
mod vector;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use error::FormatError;
pub use vector::{DenseVector, SparseVector};
