//! Breadth-first search as iterative SpMSpV (GraphMat-style, §6.1.3).
//!
//! The graph is the sparse matrix's structure: vertex `k`'s out-edges are
//! the stored rows of column `k`. Each BFS level is one SpMSpV-shaped
//! pass over the current frontier — one explicit phase per level — and
//! the *implicit* behaviour tracks the frontier: tiny localized frontiers
//! early, a huge scattered frontier at the peak, then a tail.

use sparse::CscMatrix;
use transmuter::workload::{AddressSpace, OpStream, Phase, Workload};

use crate::layout::{CscLayout, DenseLayout, SparseVecLayout};
use crate::partition::{assign_greedy, group_by_worker};
use crate::pc;

/// The output of building a BFS workload.
#[derive(Debug, Clone)]
pub struct BfsBuild {
    /// One phase per BFS level.
    pub workload: Workload,
    /// `levels[v]` = BFS depth of `v`, or `None` if unreachable.
    pub levels: Vec<Option<u32>>,
    /// Edges examined across the whole traversal (the TEPS numerator).
    pub edges_traversed: u64,
    /// Number of BFS levels executed.
    pub iterations: u32,
}

/// Reference BFS over the same edge interpretation, for validation.
pub fn reference_levels(a: &CscMatrix, source: u32) -> Vec<Option<u32>> {
    let n = a.cols() as usize;
    let mut levels = vec![None; n];
    levels[source as usize] = Some(0);
    let mut frontier = vec![source];
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &k in &frontier {
            let (rows, _) = a.col(k);
            for &r in rows {
                if levels[r as usize].is_none() {
                    levels[r as usize] = Some(depth);
                    next.push(r);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    levels
}

/// Builds the BFS workload from `source`.
///
/// # Panics
///
/// Panics if the matrix is not square, `source` is out of range, or
/// `n_gpes == 0`.
pub fn build(a: &CscMatrix, source: u32, n_gpes: usize) -> BfsBuild {
    let n = a.dim();
    assert!(source < n, "source {source} out of range {n}");
    assert!(n_gpes > 0, "need at least one GPE");

    let mut space = AddressSpace::new(32);
    let la = CscLayout::alloc(&mut space, a);
    let level_arr = DenseLayout::alloc(&mut space, n as u64);
    // Double-buffered frontiers.
    let frontier_buf = SparseVecLayout::with_capacity(&mut space, n as u64);
    let next_buf = SparseVecLayout::with_capacity(&mut space, n as u64);

    let mut levels: Vec<Option<u32>> = vec![None; n as usize];
    levels[source as usize] = Some(0);
    let mut frontier = vec![source];
    let mut phases = Vec::new();
    let mut edges = 0u64;
    let mut depth = 0u32;

    while !frontier.is_empty() {
        depth += 1;
        // Assign frontier vertices to GPEs by degree.
        let costs: Vec<u64> = frontier.iter().map(|&k| a.col_nnz(k) as u64 + 1).collect();
        let groups = group_by_worker(&assign_greedy(&costs, n_gpes), n_gpes);
        let mut next: Vec<u32> = Vec::new();
        let mut streams: Vec<OpStream> = Vec::with_capacity(n_gpes);
        let mut next_write_cursor = 0u64;
        // Process groups in GPE order but discoveries must be globally
        // deterministic: collect per-GPE discoveries, then merge sorted.
        let mut per_gpe_discoveries: Vec<Vec<u32>> = vec![Vec::new(); n_gpes];
        for (g, items) in groups.iter().enumerate() {
            let mut ops = OpStream::new();
            for &it in items {
                let k = frontier[it];
                ops.push_load(frontier_buf.pair_addr(it as u64), pc::X_PAIR);
                ops.push_load(la.colptr_addr(k as u64), pc::A_COLPTR);
                ops.push_load(la.colptr_addr(k as u64 + 1), pc::A_COLPTR);
                let lo = a.col_offsets()[k as usize];
                let hi = a.col_offsets()[k as usize + 1];
                edges += (hi - lo) as u64;
                for p in lo..hi {
                    let r = a.row_indices()[p];
                    ops.push_load(la.idx_addr(p as u64), pc::A_IDX);
                    // Semiring op (select-first) counted as one FP op.
                    ops.push_flops(1);
                    // Visited check.
                    ops.push_load(level_arr.addr(r as u64), pc::STATE_R);
                    ops.push_int_ops(1);
                    if levels[r as usize].is_none() {
                        levels[r as usize] = Some(depth);
                        per_gpe_discoveries[g].push(r);
                        ops.push_store(level_arr.addr(r as u64), pc::STATE_W);
                        ops.push_store(
                            next_buf.pair_addr(next_write_cursor % n as u64),
                            pc::OUT_VAL,
                        );
                        next_write_cursor += 1;
                    }
                }
            }
            streams.push(ops);
        }
        for d in per_gpe_discoveries {
            next.extend(d);
        }
        next.sort_unstable();
        phases.push(Phase::new(&format!("bfs-level-{depth}"), streams));
        frontier = next;
    }

    BfsBuild {
        workload: Workload::new("bfs", phases),
        levels,
        edges_traversed: edges,
        iterations: depth.saturating_sub(if frontier.is_empty() { 1 } else { 0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::gen::{rmat, structured, GenSeed, PatternClass};

    #[test]
    fn levels_match_reference() {
        let a = rmat(128, 800, GenSeed(1)).to_csc();
        let built = build(&a, 0, 16);
        assert_eq!(built.levels, reference_levels(&a, 0));
    }

    #[test]
    fn banded_graph_walks_the_band() {
        let a = structured(
            200,
            1_600,
            &PatternClass::Banded { half_bandwidth: 10 },
            GenSeed(2),
        )
        .to_csc();
        let built = build(&a, 0, 8);
        assert_eq!(built.levels, reference_levels(&a, 0));
        // Far vertices need many hops along the band.
        let depths: Vec<u32> = built.levels.iter().flatten().copied().collect();
        assert!(*depths.iter().max().unwrap() >= 5);
        assert!(built.workload.phases.len() >= 5, "one phase per level");
    }

    #[test]
    fn source_level_zero_and_edge_count() {
        let a = rmat(64, 400, GenSeed(3)).to_csc();
        // Start somewhere with out-edges so the traversal examines at
        // least one column entry (rmat leaves some columns empty).
        let src = (0..64)
            .find(|&k| a.col_nnz(k) > 0)
            .expect("graph has edges");
        let built = build(&a, src, 8);
        assert_eq!(built.levels[src as usize], Some(0));
        // Every frontier vertex's whole column is examined.
        assert!(built.edges_traversed > 0);
    }

    #[test]
    fn deterministic() {
        let a = rmat(128, 900, GenSeed(4)).to_csc();
        let b1 = build(&a, 0, 16);
        let b2 = build(&a, 0, 16);
        assert_eq!(b1.workload, b2.workload);
        assert_eq!(b1.levels, b2.levels);
    }

    #[test]
    fn runs_on_the_machine() {
        use transmuter::config::{MachineSpec, TransmuterConfig};
        use transmuter::machine::Machine;
        let a = rmat(128, 900, GenSeed(5)).to_csc();
        let built = build(&a, 0, 16);
        let spec = MachineSpec::default().with_epoch_ops(500);
        let r = Machine::new(spec, TransmuterConfig::baseline()).run(&built.workload);
        assert!(r.time_s > 0.0);
        assert_eq!(r.flops, built.workload.total_fp_ops());
    }
}
