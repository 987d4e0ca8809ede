//! Symmetric Gauss–Seidel: one forward and one backward level-scheduled
//! sweep of `A · x = b` from `x = 0`.
//!
//! SymGS (the HPCG smoother) is two triangular-solve-shaped sweeps over
//! the *full* matrix: the forward sweep updates rows in ascending order
//! using fresh values below the diagonal and stale ones above it; the
//! backward sweep mirrors that. Each sweep is level-scheduled on its
//! own dependency triangle (lower for forward, upper for backward), and
//! each level is an explicit phase — so one SymGS application exposes
//! *two* phase ladders with opposite dependency structure, back to
//! back, which is the richest implicit-phase scenario in the kernel
//! set.
//!
//! Bit-exactness: rows accumulate in stored column order; entries on
//! the finished side of the diagonal read values their level is
//! guaranteed to have finalised, entries on the stale side read the
//! previous iterate (zero for the forward sweep, the forward result for
//! the backward sweep). That is operation-for-operation the naive
//! in-place sweep, so the scheduled result is bit-identical to
//! [`reference`](fn@reference).

use sparse::{CsrMatrix, DenseVector};
use transmuter::config::MemKind;
use transmuter::workload::{AddressSpace, OpStream, Phase, Workload};

use crate::layout::{CsrLayout, DenseLayout};
use crate::partition::{assign_greedy, group_by_worker};
use crate::pc;
use crate::sptrsv::{level_schedule, Sweep};

/// One in-place Gauss–Seidel row update: accumulates `b[r] − Σ A[r,c]·x[c]`
/// over off-diagonal entries in stored order, then divides by the pivot.
fn gs_row(a: &CsrMatrix, b: &[f64], x: &[f64], r: u32) -> f64 {
    let (cols, vals) = a.row(r);
    let mut acc = b[r as usize];
    let mut diag = None;
    for (&c, &v) in cols.iter().zip(vals) {
        if c == r {
            diag = Some(v);
        } else {
            acc -= v * x[c as usize];
        }
    }
    let diag = diag.unwrap_or_else(|| panic!("row {r} has no diagonal entry"));
    acc / diag
}

/// The naive scalar SymGS: an in-place ascending sweep then an in-place
/// descending sweep, from `x = 0`. The level-scheduled build must match
/// this bit for bit.
///
/// # Panics
///
/// Panics if `a` is not square, a row lacks a diagonal entry (use
/// [`crate::sptrsv::ensure_diagonal`]), or `b.dim()` mismatches.
pub fn reference(a: &CsrMatrix, b: &DenseVector) -> DenseVector {
    assert_eq!(a.rows(), a.cols(), "square matrix required");
    assert_eq!(a.rows(), b.dim(), "rhs dimension mismatch");
    let n = a.rows();
    let mut x = vec![0.0f64; n as usize];
    for r in 0..n {
        x[r as usize] = gs_row(a, b.values(), &x, r);
    }
    for r in (0..n).rev() {
        x[r as usize] = gs_row(a, b.values(), &x, r);
    }
    DenseVector::from_values(x)
}

/// The output of building a SymGS workload.
#[derive(Debug, Clone)]
pub struct SymgsBuild {
    /// Forward-sweep phases followed by backward-sweep phases, one per
    /// dependency level.
    pub workload: Workload,
    /// The smoothed iterate after one symmetric sweep (bit-identical to
    /// [`reference`](fn@reference)).
    pub result: DenseVector,
    /// Dependency levels in the forward sweep.
    pub fwd_levels: usize,
    /// Dependency levels in the backward sweep.
    pub bwd_levels: usize,
    /// Off-diagonal elements touched across both sweeps.
    pub elements_touched: u64,
}

/// Builds the cache-variant workload.
///
/// # Panics
///
/// Panics if `a` is not square, a row lacks a diagonal entry,
/// `b.dim()` mismatches, or `n_gpes == 0`.
pub fn build(a: &CsrMatrix, b: &DenseVector, n_gpes: usize) -> SymgsBuild {
    build_with_variant(a, b, n_gpes, MemKind::Cache)
}

/// Builds the workload for a given algorithm variant.
///
/// # Panics
///
/// See [`build`].
pub fn build_with_variant(
    a: &CsrMatrix,
    b: &DenseVector,
    n_gpes: usize,
    variant: MemKind,
) -> SymgsBuild {
    assert_eq!(a.rows(), a.cols(), "square matrix required");
    assert_eq!(a.rows(), b.dim(), "rhs dimension mismatch");
    assert!(n_gpes > 0, "need at least one GPE");

    let mut space = AddressSpace::new(32);
    let la = CsrLayout::alloc(&mut space, a);
    let lb = DenseLayout::alloc(&mut space, a.rows() as u64);
    let lx = DenseLayout::alloc(&mut space, a.rows() as u64);

    // The functional state follows the naive in-place order exactly:
    // level scheduling only ever runs a row after everything the naive
    // sweep would have updated first, and rows on the stale side read
    // values no scheduled predecessor can have overwritten — the sweep
    // snapshots below make that explicit.
    let mut x = vec![0.0f64; a.rows() as usize];
    let mut elements = 0u64;
    let mut phases = Vec::new();
    let mut fwd_levels = 0usize;
    let mut bwd_levels = 0usize;

    for sweep in [Sweep::Forward, Sweep::Backward] {
        // Values the naive in-place sweep would observe on the stale
        // side of the diagonal: the iterate as it stood entering the
        // sweep.
        let stale: Vec<f64> = x.clone();
        let levels = level_schedule(a, sweep);
        let tag = match sweep {
            Sweep::Forward => {
                fwd_levels = levels.len();
                "fwd"
            }
            Sweep::Backward => {
                bwd_levels = levels.len();
                "bwd"
            }
        };
        for (li, rows) in levels.iter().enumerate() {
            let costs: Vec<u64> = rows.iter().map(|&r| a.row_nnz(r) as u64 + 2).collect();
            let groups = group_by_worker(&assign_greedy(&costs, n_gpes), n_gpes);
            let mut streams: Vec<OpStream> = Vec::with_capacity(n_gpes);
            for items in &groups {
                let mut ops = OpStream::new();
                for &it in items {
                    let r = rows[it];
                    // Same accumulation as the naive sweep: fresh
                    // values on the scheduled side, the entering
                    // iterate on the stale side.
                    {
                        let (cols, vals) = a.row(r);
                        let mut acc = b.values()[r as usize];
                        let mut diag = None;
                        for (&c, &v) in cols.iter().zip(vals) {
                            if c == r {
                                diag = Some(v);
                            } else {
                                let fresh = match sweep {
                                    Sweep::Forward => c < r,
                                    Sweep::Backward => c > r,
                                };
                                let xv = if fresh {
                                    x[c as usize]
                                } else {
                                    stale[c as usize]
                                };
                                acc -= v * xv;
                            }
                        }
                        let diag = diag.unwrap_or_else(|| panic!("row {r} has no diagonal entry"));
                        x[r as usize] = acc / diag;
                    }
                    ops.push_load(la.rowptr_addr(r as u64), pc::A_ROWPTR);
                    ops.push_load(la.rowptr_addr(r as u64 + 1), pc::A_ROWPTR);
                    ops.push_load(lb.addr(r as u64), pc::RHS_R);
                    let lo = a.row_offsets()[r as usize];
                    let hi = a.row_offsets()[r as usize + 1];
                    for p in lo..hi {
                        let c = a.col_indices()[p];
                        ops.push_load(la.idx_addr(p as u64), pc::A_IDX);
                        if c == r {
                            ops.push_load(la.val_addr(p as u64), pc::DIAG_R);
                        } else {
                            ops.push_load(la.val_addr(p as u64), pc::A_VAL);
                            ops.push_load(lx.addr(c as u64), pc::SOL_R);
                            ops.push_flops(2);
                            elements += 1;
                        }
                    }
                    ops.push_flops(1);
                    ops.push_store(lx.addr(r as u64), pc::SOL_W);
                }
                streams.push(ops);
            }
            let mut phase = Phase::new(&format!("symgs-{tag}-l{li}"), streams);
            if variant == MemKind::Spm {
                phase = phase.with_spm_regions(vec![lx.region]);
            }
            phases.push(phase);
        }
    }

    SymgsBuild {
        workload: Workload::new("symgs", phases),
        result: DenseVector::from_values(x),
        fwd_levels,
        bwd_levels,
        elements_touched: elements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sptrsv::ensure_diagonal;
    use sparse::gen::{uniform_random, GenSeed};

    fn rhs(dim: u32) -> DenseVector {
        DenseVector::from_values((0..dim).map(|i| 0.5 + (i % 11) as f64 / 3.0).collect())
    }

    #[test]
    fn scheduled_sweep_is_bit_identical_to_reference() {
        let a = ensure_diagonal(&uniform_random(160, 2_400, GenSeed(1)).to_csr());
        let b = rhs(160);
        let built = build(&a, &b, 16);
        let want = reference(&a, &b);
        assert_eq!(built.result.values(), want.values());
        assert!(built.result.values().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn two_phase_ladders_back_to_back() {
        let a = ensure_diagonal(&uniform_random(96, 1_200, GenSeed(2)).to_csr());
        let b = rhs(96);
        let built = build(&a, &b, 8);
        assert_eq!(
            built.workload.phases.len(),
            built.fwd_levels + built.bwd_levels
        );
        assert!(built.workload.phases[0].name.starts_with("symgs-fwd"));
        assert!(built
            .workload
            .phases
            .last()
            .unwrap()
            .name
            .starts_with("symgs-bwd"));
    }

    #[test]
    fn spm_variant_maps_iterate_vector() {
        let a = ensure_diagonal(&uniform_random(64, 600, GenSeed(3)).to_csr());
        let b = rhs(64);
        let spm = build_with_variant(&a, &b, 8, MemKind::Spm);
        assert!(spm.workload.phases.iter().all(|p| p.spm_regions.len() == 1));
        let cache = build_with_variant(&a, &b, 8, MemKind::Cache);
        assert_eq!(spm.result.values(), cache.result.values());
    }

    #[test]
    fn runs_on_the_machine() {
        use transmuter::config::{MachineSpec, TransmuterConfig};
        use transmuter::machine::Machine;
        let a = ensure_diagonal(&uniform_random(128, 1_800, GenSeed(4)).to_csr());
        let b = rhs(128);
        let built = build(&a, &b, 16);
        let spec = MachineSpec::default().with_epoch_ops(500);
        let r = Machine::new(spec, TransmuterConfig::baseline()).run(&built.workload);
        assert_eq!(r.flops, built.workload.total_fp_ops());
        assert!(r.time_s > 0.0);
    }
}
