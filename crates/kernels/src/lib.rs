//! Sparse kernels for the simulated Transmuter machine.
//!
//! Each kernel does two things at once:
//!
//! 1. **Computes the real answer** (the product matrix, the result
//!    vector, BFS levels, SSSP distances) so tests can validate it
//!    against reference implementations in the `sparse` crate.
//! 2. **Compiles the computation into per-GPE op streams** —
//!    [`transmuter::workload::Op`] sequences with real addresses into a
//!    modelled layout of the input/output data structures — which the
//!    machine executes to obtain timing, energy and telemetry.
//!
//! The kernels implemented are the paper's evaluation set:
//!
//! * [`spmspm`] — outer-product SpMSpM (OuterSpace-style), with explicit
//!   *multiply* and *merge* phases.
//! * [`spmspv`] — column-gather SpMSpV with an accumulator (multiply and
//!   merge in tandem, §5.1).
//! * [`bfs`] / [`sssp`] — graph algorithms mapped onto iterative SpMSpV,
//!   GraphMat-style (§6.1.3).
//! * [`gemm`] / [`conv`] — dense *regular* kernels, used to reproduce
//!   the §7 negative result (dynamic control is overkill for them).
//! * [`spmv`] — row-streaming sparse-matrix × dense-vector product, the
//!   workhorse kernel for real `.mtx` inputs.
//! * [`sptrsv`] — level-scheduled sparse triangular solve (forward and
//!   backward sweeps), one explicit phase per dependency level.
//! * [`symgs`] — symmetric Gauss–Seidel (a forward then a backward
//!   level-scheduled sweep over the full matrix).
//!
//! Work items are assigned to GPEs with a deterministic load-balancing
//! heuristic ([`partition`]), so epoch contents are identical across
//! hardware configurations (see `transmuter::machine`).
//!
//! # Example
//!
//! ```
//! use sparse::gen::{uniform_random, uniform_random_vector, GenSeed};
//! use kernels::spmspv;
//!
//! let a = uniform_random(256, 2_000, GenSeed(1)).to_csc();
//! let x = uniform_random_vector(256, 0.5, GenSeed(2));
//! let built = spmspv::build(&a, &x, 16);
//! // The functional result matches the reference implementation.
//! assert_eq!(built.result, x.spmspv_reference(&a));
//! // And the workload carries real work for the simulator.
//! assert!(built.workload.total_flops() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod conv;
pub mod gemm;
pub mod layout;
pub mod partition;
pub mod spmspm;
pub mod spmspv;
pub mod spmv;
pub mod sptrsv;
pub mod sssp;
pub mod symgs;

/// Stable access-site ids (stand-ins for program counters) used by the
/// stride prefetcher. One id per logical access site per kernel.
pub mod pc {
    /// Matrix A column-offsets stream.
    pub const A_COLPTR: u32 = 1;
    /// Matrix A row-index stream.
    pub const A_IDX: u32 = 2;
    /// Matrix A value stream.
    pub const A_VAL: u32 = 3;
    /// Matrix B row-offsets stream.
    pub const B_ROWPTR: u32 = 4;
    /// Matrix B column-index stream.
    pub const B_IDX: u32 = 5;
    /// Matrix B value stream.
    pub const B_VAL: u32 = 6;
    /// Partial-product index writes.
    pub const PARTIAL_IDX_W: u32 = 7;
    /// Partial-product value writes.
    pub const PARTIAL_VAL_W: u32 = 8;
    /// Partial-product index reads (merge).
    pub const PARTIAL_IDX_R: u32 = 9;
    /// Partial-product value reads (merge).
    pub const PARTIAL_VAL_R: u32 = 10;
    /// Output index writes.
    pub const OUT_IDX: u32 = 11;
    /// Output value writes.
    pub const OUT_VAL: u32 = 12;
    /// Sparse-vector operand stream.
    pub const X_PAIR: u32 = 13;
    /// Accumulator reads.
    pub const ACC_R: u32 = 14;
    /// Accumulator writes.
    pub const ACC_W: u32 = 15;
    /// Visited/level/distance array reads.
    pub const STATE_R: u32 = 16;
    /// Visited/level/distance array writes.
    pub const STATE_W: u32 = 17;
    /// CSR row-offsets stream (SpMV / SpTRSV / SymGS operand matrix).
    pub const A_ROWPTR: u32 = 18;
    /// Dense vector operand reads (SpMV `x`).
    pub const X_DENSE: u32 = 19;
    /// Dense result writes (SpMV `y`).
    pub const Y_W: u32 = 20;
    /// Diagonal value reads (triangular solve / Gauss–Seidel pivot).
    pub const DIAG_R: u32 = 21;
    /// Right-hand-side reads (`b`).
    pub const RHS_R: u32 = 22;
    /// Solution-vector dependency reads.
    pub const SOL_R: u32 = 23;
    /// Solution-vector writes.
    pub const SOL_W: u32 = 24;
}
