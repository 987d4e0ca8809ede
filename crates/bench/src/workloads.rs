//! Workload construction for the evaluation suites.

use kernels::sptrsv::{self, Sweep};
use kernels::{bfs, spmspm, spmspv, spmv, sssp, symgs};
use sparse::gen::{uniform_random_vector, GenSeed};
use sparse::suite::Scale as SuiteScale;
use sparse::suite::{MatrixSpec, Scale};
use sparse::{CooMatrix, DenseVector};
use transmuter::config::{MachineSpec, MemKind};
use transmuter::workload::Workload;

use crate::experiments::Kernel;

/// Epoch sizes of §5.4.
pub const SPMSPM_EPOCH_OPS: u64 = 5_000;
/// Epoch size for SpMSpV and the graph kernels.
pub const SPMSPV_EPOCH_OPS: u64 = 500;

/// The machine spec used for an SpMSpM experiment.
///
/// The epoch quota shrinks with the dataset scale so scaled-down
/// matrices still span enough epochs for phase adaptation (the paper's
/// 5 000-op epochs assume full-size inputs).
pub fn spmspm_spec(scale: SuiteScale) -> MachineSpec {
    let ops = (SPMSPM_EPOCH_OPS / scale.divisor() as u64).max(1_250);
    MachineSpec::default().with_epoch_ops(ops)
}

/// The machine spec used for SpMSpV / graph experiments (same scaling
/// rationale as [`spmspm_spec`]).
pub fn spmspv_spec(scale: SuiteScale) -> MachineSpec {
    let ops = (SPMSPV_EPOCH_OPS / scale.divisor() as u64).max(125);
    MachineSpec::default().with_epoch_ops(ops)
}

/// Builds `C = A · Aᵀ` (the §6.1.2 evaluation) for a suite matrix.
pub fn spmspm_workload(
    spec: &MatrixSpec,
    scale: Scale,
    l1_kind: MemKind,
    seed: u64,
    n_gpes: usize,
) -> Workload {
    Kernel::SpMSpM.workload(&spec.generate(scale, GenSeed(seed)), l1_kind, seed, n_gpes)
}

/// Builds `y = A · x` against a 50 %-dense uniform vector (§6.1.1) for
/// a suite matrix.
pub fn spmspv_workload(
    spec: &MatrixSpec,
    scale: Scale,
    l1_kind: MemKind,
    seed: u64,
    n_gpes: usize,
) -> Workload {
    Kernel::SpMSpV.workload(&spec.generate(scale, GenSeed(seed)), l1_kind, seed, n_gpes)
}

impl Kernel {
    /// Builds this kernel's workload on a concrete matrix `m`. Every
    /// operand besides `m` derives from `seed`, so one matrix and seed
    /// always give the same op streams:
    ///
    /// * SpMSpM computes `C = A · Aᵀ`;
    /// * SpMSpV multiplies by a 50 %-dense uniform vector;
    /// * SpMV multiplies by a dense operand (rectangular `m` is fine);
    /// * SpTRSV solves `L · y = b` forward on `m`'s lower triangle,
    ///   with the diagonal patched in where absent, one phase per
    ///   dependency level;
    /// * SymGS applies one symmetric Gauss–Seidel sweep (forward then
    ///   backward level ladder) to `m` with its diagonal patched in.
    pub fn workload(self, m: &CooMatrix, l1_kind: MemKind, seed: u64, n_gpes: usize) -> Workload {
        match self {
            Kernel::SpMSpM => {
                let (a, b) = (m.to_csc(), m.to_csr().transpose());
                spmspm::build_with_variant(&a, &b, n_gpes, l1_kind).workload
            }
            Kernel::SpMSpV => {
                let a = m.to_csc();
                let x = uniform_random_vector(a.dim(), 0.5, GenSeed(seed ^ 0xFEED));
                spmspv::build_with_variant(&a, &x, n_gpes, l1_kind).workload
            }
            Kernel::SpMV => {
                let a = m.to_csr();
                let x = dense_operand(a.cols(), seed ^ 0xD05E);
                spmv::build_with_variant(&a, &x, n_gpes, l1_kind).workload
            }
            Kernel::SpTRSV => {
                let a = m.to_csr();
                let b = dense_operand(a.rows(), seed ^ 0x50F7);
                let l = sptrsv::factor_lower(&a);
                sptrsv::build_with_variant(&l, &b, Sweep::Forward, n_gpes, l1_kind).workload
            }
            Kernel::SymGS => {
                let a = m.to_csr();
                let b = dense_operand(a.rows(), seed ^ 0x6A55);
                let ad = sptrsv::ensure_diagonal(&a);
                symgs::build_with_variant(&ad, &b, n_gpes, l1_kind).workload
            }
        }
    }
}

/// A fully dense operand/right-hand-side vector, derived
/// deterministically from the seed with an LCG (values in `[1, 2)`, so
/// no accidental cancellation hides a wrong accumulation order).
fn dense_operand(dim: u32, seed: u64) -> DenseVector {
    let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
    let values = (0..dim)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1.0 + (s >> 40) as f64 / (1u64 << 24) as f64
        })
        .collect();
    DenseVector::from_values(values)
}

/// The traversal source: the highest-out-degree vertex, so power-law
/// graphs (whose low columns can be empty under the paper's R-MAT
/// parameters) yield a non-trivial traversal.
fn traversal_source(a: &sparse::CscMatrix) -> u32 {
    (0..a.cols()).max_by_key(|&k| a.col_nnz(k)).unwrap_or(0)
}

/// Builds BFS from the max-degree vertex; returns the workload and the
/// traversed-edge count (the TEPS numerator).
pub fn bfs_workload(spec: &MatrixSpec, scale: Scale, seed: u64, n_gpes: usize) -> (Workload, u64) {
    let a = spec.generate(scale, GenSeed(seed)).to_csc();
    let built = bfs::build(&a, traversal_source(&a), n_gpes);
    (built.workload, built.edges_traversed)
}

/// Builds SSSP from the max-degree vertex; returns the workload and the
/// traversed-edge count.
pub fn sssp_workload(spec: &MatrixSpec, scale: Scale, seed: u64, n_gpes: usize) -> (Workload, u64) {
    let a = spec.generate(scale, GenSeed(seed)).to_csc();
    let built = sssp::build(&a, traversal_source(&a), n_gpes);
    (built.workload, built.edges_traversed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::suite::spec_by_id;

    #[test]
    fn suite_workloads_build_at_quick_scale() {
        let n = 16;
        let r02 = spec_by_id("R02").unwrap();
        let w = spmspm_workload(&r02, Scale::Quick, MemKind::Cache, 1, n);
        assert!(w.total_flops() > 0);
        let r12 = spec_by_id("R12").unwrap();
        let w = spmspv_workload(&r12, Scale::Quick, MemKind::Cache, 1, n);
        assert!(w.total_flops() > 0);
        let (w, edges) = bfs_workload(&r12, Scale::Quick, 1, n);
        assert!(edges > 0);
        assert!(!w.phases.is_empty());
    }

    #[test]
    fn solver_family_workloads_build_at_quick_scale() {
        let n = 16;
        let r09 = spec_by_id("R09")
            .unwrap()
            .generate(Scale::Quick, GenSeed(1));
        let w = Kernel::SpMV.workload(&r09, MemKind::Cache, 1, n);
        assert!(w.total_flops() > 0);
        assert_eq!(w.phases.len(), 1);
        let w = Kernel::SpTRSV.workload(&r09, MemKind::Spm, 1, n);
        assert!(w.total_flops() > 0);
        assert!(w.phases.len() > 1, "level ladder expected");
        let w = Kernel::SymGS.workload(&r09, MemKind::Cache, 1, n);
        assert!(w.total_flops() > 0);
        assert!(w.phases.iter().any(|p| p.name.starts_with("symgs-bwd")));
    }

    #[test]
    fn dense_operand_is_deterministic_and_dense() {
        let a = dense_operand(64, 7);
        let b = dense_operand(64, 7);
        assert_eq!(a.values(), b.values());
        assert!(a.values().iter().all(|&v| (1.0..2.0).contains(&v)));
        let c = dense_operand(64, 8);
        assert_ne!(a.values(), c.values());
    }
}
