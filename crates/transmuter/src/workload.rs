//! Abstract workloads: per-GPE op streams with real addresses.
//!
//! Kernels (the `kernels` crate) compile sparse computations into
//! [`Op`] streams — batched compute plus loads/stores against a modelled
//! address space — one stream per GPE per explicit phase. The addresses
//! are what make implicit phases real: a dense outer product re-touches
//! the same B-row lines and hits in cache; a scattered one misses.
//!
//! Work-to-GPE assignment is performed by the kernels *deterministically*
//! (round-robin over work items), so the FP-op stream of epoch *k* is
//! identical across hardware configurations — the property that makes
//! per-epoch stitching of independently simulated configurations sound
//! (DESIGN.md §2).

use serde::{Deserialize, Serialize};

/// One abstract operation executed by a GPE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// `n` floating-point operations (CPI 1 each).
    Flops(u32),
    /// `n` integer / bookkeeping operations (CPI 1 each).
    IntOps(u32),
    /// A load from `addr`. `pc` is a stable access-site id used by the
    /// stride prefetcher's index table.
    Load {
        /// Byte address.
        addr: u64,
        /// Access-site id (stands in for the program counter).
        pc: u32,
    },
    /// A store to `addr`.
    Store {
        /// Byte address.
        addr: u64,
        /// Access-site id.
        pc: u32,
    },
}

/// Compact 1-byte discriminant for the struct-of-arrays op layout.
///
/// The numeric values are *not* the fingerprint codes — fingerprints keep
/// the historical codes (1..=4, see [`Workload::fingerprint`]) so SoA
/// conversion never invalidates on-disk trace caches.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpTag {
    /// [`Op::Flops`]; the op's payload is in the `aux` lane.
    Flops = 0,
    /// [`Op::IntOps`]; payload in the `aux` lane.
    IntOps = 1,
    /// [`Op::Load`]; address in the `addr` lane, access-site id in `aux`.
    Load = 2,
    /// [`Op::Store`]; address in the `addr` lane, access-site id in `aux`.
    Store = 3,
}

/// A per-GPE op stream in struct-of-arrays layout.
///
/// The array-of-structs form (`Vec<Op>`) spends 16 bytes per op: the
/// enum needs an 8-byte-aligned discriminant to carry a `u64` address.
/// Splitting the stream into parallel lanes — a 1-byte tag, a `u64`
/// address (zero for compute ops) and a `u32` auxiliary word (batch
/// count for compute ops, access-site id for memory ops) — costs 13
/// bytes per op and, more importantly, lets the simulator's dispatch
/// loop walk a dense tag array that prefetches perfectly.
///
/// The lanes always have equal length; every mutator maintains that
/// invariant, so [`OpStream::as_lanes`] can be consumed without bounds
/// re-checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStream {
    tags: Vec<OpTag>,
    addrs: Vec<u64>,
    auxs: Vec<u32>,
}

impl OpStream {
    /// An empty stream.
    pub fn new() -> Self {
        OpStream::default()
    }

    /// An empty stream with room for `n` ops in every lane.
    pub fn with_capacity(n: usize) -> Self {
        OpStream {
            tags: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
            auxs: Vec::with_capacity(n),
        }
    }

    /// Number of ops in the stream.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// `true` if the stream holds no ops.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Appends a batch of `n` floating-point operations.
    pub fn push_flops(&mut self, n: u32) {
        self.tags.push(OpTag::Flops);
        self.addrs.push(0);
        self.auxs.push(n);
    }

    /// Appends a batch of `n` integer operations.
    pub fn push_int_ops(&mut self, n: u32) {
        self.tags.push(OpTag::IntOps);
        self.addrs.push(0);
        self.auxs.push(n);
    }

    /// Appends a load of `addr` from access site `pc`.
    pub fn push_load(&mut self, addr: u64, pc: u32) {
        self.tags.push(OpTag::Load);
        self.addrs.push(addr);
        self.auxs.push(pc);
    }

    /// Appends a store to `addr` from access site `pc`.
    pub fn push_store(&mut self, addr: u64, pc: u32) {
        self.tags.push(OpTag::Store);
        self.addrs.push(addr);
        self.auxs.push(pc);
    }

    /// Appends one [`Op`] (enum-typed convenience over the typed pushes).
    pub fn push(&mut self, op: Op) {
        match op {
            Op::Flops(n) => self.push_flops(n),
            Op::IntOps(n) => self.push_int_ops(n),
            Op::Load { addr, pc } => self.push_load(addr, pc),
            Op::Store { addr, pc } => self.push_store(addr, pc),
        }
    }

    /// Reconstructs the `i`-th op as an [`Op`] value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Op {
        match self.tags[i] {
            OpTag::Flops => Op::Flops(self.auxs[i]),
            OpTag::IntOps => Op::IntOps(self.auxs[i]),
            OpTag::Load => Op::Load {
                addr: self.addrs[i],
                pc: self.auxs[i],
            },
            OpTag::Store => Op::Store {
                addr: self.addrs[i],
                pc: self.auxs[i],
            },
        }
    }

    /// Raw access to the parallel lanes `(tags, addrs, auxs)`; all three
    /// slices have equal length.
    pub fn as_lanes(&self) -> (&[OpTag], &[u64], &[u32]) {
        (&self.tags, &self.addrs, &self.auxs)
    }

    /// Iterates the ops, materialising each as an [`Op`].
    pub fn iter(&self) -> OpStreamIter<'_> {
        OpStreamIter { stream: self, i: 0 }
    }

    /// Pure floating-point operations in the stream.
    pub fn flops(&self) -> u64 {
        self.tags
            .iter()
            .zip(&self.auxs)
            .filter(|(t, _)| **t == OpTag::Flops)
            .map(|(_, &n)| n as u64)
            .sum()
    }

    /// FP ops in the paper's epoch currency: flops plus one per memory
    /// access (integer ops are free).
    pub fn fp_ops(&self) -> u64 {
        self.tags
            .iter()
            .zip(&self.auxs)
            .map(|(t, &n)| match t {
                OpTag::Flops => n as u64,
                OpTag::Load | OpTag::Store => 1,
                OpTag::IntOps => 0,
            })
            .sum()
    }
}

impl FromIterator<Op> for OpStream {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        let mut s = OpStream::new();
        s.extend(iter);
        s
    }
}

impl Extend<Op> for OpStream {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        for op in iter {
            self.push(op);
        }
    }
}

/// Iterator over an [`OpStream`], yielding owned [`Op`] values (they are
/// reconstructed from the lanes, so there is no `&Op` to hand out).
#[derive(Debug, Clone)]
pub struct OpStreamIter<'a> {
    stream: &'a OpStream,
    i: usize,
}

impl Iterator for OpStreamIter<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.i >= self.stream.len() {
            return None;
        }
        let op = self.stream.get(self.i);
        self.i += 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.stream.len() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for OpStreamIter<'_> {}

impl<'a> IntoIterator for &'a OpStream {
    type Item = Op;
    type IntoIter = OpStreamIter<'a>;

    fn into_iter(self) -> OpStreamIter<'a> {
        self.iter()
    }
}

/// A contiguous region of the modelled address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// First byte address.
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
}

impl Region {
    /// Address of element `i` with elements of `elem_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the element lies outside the region.
    pub fn addr(&self, i: u64, elem_bytes: u64) -> u64 {
        debug_assert!(
            (i + 1) * elem_bytes <= self.bytes,
            "element {i} x {elem_bytes}B outside region of {}B",
            self.bytes
        );
        self.base + i * elem_bytes
    }

    /// `true` if `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes
    }
}

/// Bump allocator for laying kernel data structures out in the modelled
/// address space (line-aligned so regions do not share cache lines).
#[derive(Debug, Clone)]
pub struct AddressSpace {
    next: u64,
    align: u64,
}

impl AddressSpace {
    /// A fresh address space with the given line alignment.
    pub fn new(line_bytes: u64) -> Self {
        AddressSpace {
            next: line_bytes, // keep address 0 unused
            align: line_bytes,
        }
    }

    /// Allocates a region of `bytes`, aligned to the line size.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let base = self.next;
        let padded = bytes.div_ceil(self.align) * self.align;
        self.next += padded.max(self.align);
        Region { base, bytes }
    }
}

/// One explicit phase: a name, one op stream per GPE, and the phase's
/// scratchpad map / control-processor load.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name (`"multiply"`, `"merge"`, `"iter3"`, …).
    pub name: String,
    /// One op stream per GPE; the vector length must equal the machine's
    /// GPE count.
    pub streams: Vec<OpStream>,
    /// Address regions the kernel maps into scratchpad when the L1 is in
    /// SPM mode. Accesses outside these regions bypass to L2.
    pub spm_regions: Vec<Region>,
    /// LCP bookkeeping ops charged per GPE op executed — models the
    /// work-queue dispatch and load-balancing activity of the control
    /// processors (Table 2's LCP IPC counter).
    pub lcp_ops_per_gpe_op: f64,
}

impl Phase {
    /// A phase with no SPM mapping and the default LCP load.
    pub fn new(name: &str, streams: Vec<OpStream>) -> Self {
        Phase {
            name: name.to_string(),
            streams,
            spm_regions: Vec::new(),
            lcp_ops_per_gpe_op: 0.05,
        }
    }

    /// Sets the SPM-mapped regions.
    pub fn with_spm_regions(mut self, regions: Vec<Region>) -> Self {
        self.spm_regions = regions;
        self
    }

    /// Sets the LCP load factor.
    pub fn with_lcp_load(mut self, ops_per_gpe_op: f64) -> Self {
        self.lcp_ops_per_gpe_op = ops_per_gpe_op;
        self
    }

    /// Total FP ops (including loads and stores — the paper's epoch
    /// currency) across all streams.
    pub fn total_fp_ops(&self) -> u64 {
        self.streams.iter().map(OpStream::fp_ops).sum()
    }
}

/// A complete workload: named, with one or more explicit phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name for reports.
    pub name: String,
    /// The explicit phases, executed in order with a global barrier
    /// between them.
    pub phases: Vec<Phase>,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: &str, phases: Vec<Phase>) -> Self {
        Workload {
            name: name.to_string(),
            phases,
        }
    }

    /// Total FP ops (including loads/stores) over all phases.
    pub fn total_fp_ops(&self) -> u64 {
        self.phases.iter().map(Phase::total_fp_ops).sum()
    }

    /// Total pure floating-point operations (the GFLOPS numerator).
    pub fn total_flops(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| p.streams.iter().map(OpStream::flops))
            .sum()
    }

    /// A stable 64-bit content fingerprint covering everything that can
    /// influence a simulation: phase names, op streams (including
    /// addresses and access-site ids), SPM maps, and LCP load factors.
    ///
    /// Used as a trace-cache key component, so two workloads with equal
    /// fingerprints are treated as producing identical traces.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str(&self.name);
        h.write_u64(self.phases.len() as u64);
        for phase in &self.phases {
            h.write_str(&phase.name);
            h.write_u64(phase.lcp_ops_per_gpe_op.to_bits());
            h.write_u64(phase.spm_regions.len() as u64);
            for r in &phase.spm_regions {
                h.write_u64(r.base);
                h.write_u64(r.bytes);
            }
            h.write_u64(phase.streams.len() as u64);
            for stream in &phase.streams {
                h.write_u64(stream.len() as u64);
                // Byte-identical to the historical AoS hash: the codes
                // below predate `OpTag` and are pinned forever because
                // fingerprints name on-disk trace-cache files.
                let (tags, addrs, auxs) = stream.as_lanes();
                for i in 0..tags.len() {
                    match tags[i] {
                        OpTag::Flops => {
                            h.write_u64(1);
                            h.write_u64(auxs[i] as u64);
                        }
                        OpTag::IntOps => {
                            h.write_u64(2);
                            h.write_u64(auxs[i] as u64);
                        }
                        OpTag::Load => {
                            h.write_u64(3);
                            h.write_u64(addrs[i]);
                            h.write_u64(auxs[i] as u64);
                        }
                        OpTag::Store => {
                            h.write_u64(4);
                            h.write_u64(addrs[i]);
                            h.write_u64(auxs[i] as u64);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

/// Minimal FNV-1a hasher used for content fingerprints (std's
/// `DefaultHasher` is explicitly not stable across releases, and
/// fingerprints may be persisted in on-disk trace-cache filenames).
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        // Length-prefix-free delimiter so "ab"+"c" != "a"+"bc".
        self.write_bytes(&[0xff]);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_space_is_line_aligned_and_disjoint() {
        let mut a = AddressSpace::new(32);
        let r1 = a.alloc(100);
        let r2 = a.alloc(1);
        assert_eq!(r1.base % 32, 0);
        assert_eq!(r2.base % 32, 0);
        assert!(r1.base + 128 <= r2.base || r2.base >= r1.base + 100);
        assert!(!r1.contains(r2.base));
    }

    #[test]
    fn region_addressing() {
        let mut a = AddressSpace::new(32);
        let r = a.alloc(80);
        assert_eq!(r.addr(0, 8), r.base);
        assert_eq!(r.addr(9, 8), r.base + 72);
        assert!(r.contains(r.addr(9, 8)));
    }

    #[test]
    fn fp_op_accounting_counts_loads_and_stores() {
        let p = Phase::new(
            "p",
            vec![[
                Op::Flops(10),
                Op::IntOps(99),
                Op::Load { addr: 0, pc: 0 },
                Op::Store { addr: 8, pc: 1 },
            ]
            .into_iter()
            .collect()],
        );
        assert_eq!(p.total_fp_ops(), 12);
        let w = Workload::new("w", vec![p]);
        assert_eq!(w.total_flops(), 10);
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let mk = |addr| {
            Workload::new(
                "w",
                vec![Phase::new(
                    "p",
                    vec![[Op::Load { addr, pc: 7 }].into_iter().collect()],
                )],
            )
        };
        assert_eq!(mk(64).fingerprint(), mk(64).fingerprint());
        assert_ne!(mk(64).fingerprint(), mk(96).fingerprint());
        // Renames change the fingerprint too.
        let mut renamed = mk(64);
        renamed.name = "other".into();
        assert_ne!(mk(64).fingerprint(), renamed.fingerprint());
        // Moving a byte between adjacent strings must not collide.
        let a = Workload::new("ab", vec![Phase::new("c", Vec::new())]);
        let b = Workload::new("a", vec![Phase::new("bc", Vec::new())]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn op_stream_round_trips_ops() {
        let ops = vec![
            Op::Flops(10),
            Op::IntOps(3),
            Op::Load { addr: 64, pc: 7 },
            Op::Store { addr: 96, pc: 8 },
        ];
        let stream: OpStream = ops.iter().copied().collect();
        assert_eq!(stream.len(), 4);
        assert_eq!(stream.iter().collect::<Vec<_>>(), ops);
        assert_eq!(stream.get(2), ops[2]);
        assert_eq!(stream.flops(), 10);
        assert_eq!(stream.fp_ops(), 12);
        // Typed pushes build the same stream as enum pushes.
        let mut typed = OpStream::new();
        typed.push_flops(10);
        typed.push_int_ops(3);
        typed.push_load(64, 7);
        typed.push_store(96, 8);
        assert_eq!(typed, stream);
    }

    #[test]
    fn soa_fingerprint_matches_legacy_aos_hash() {
        // The SoA stream must hash exactly as the historical Vec<Op>
        // encoding did: per op, code(1..=4) then the payload words.
        let w = Workload::new(
            "w",
            vec![Phase::new(
                "p",
                vec![[
                    Op::Flops(5),
                    Op::IntOps(2),
                    Op::Load { addr: 4096, pc: 3 },
                    Op::Store { addr: 8192, pc: 4 },
                ]
                .into_iter()
                .collect()],
            )],
        );
        let mut h = Fnv::new();
        h.write_str("w");
        h.write_u64(1); // phases
        h.write_str("p");
        h.write_u64(0.05f64.to_bits());
        h.write_u64(0); // spm regions
        h.write_u64(1); // streams
        h.write_u64(4); // ops
        for word in [1u64, 5, 2, 2, 3, 4096, 3, 4, 8192, 4] {
            h.write_u64(word);
        }
        assert_eq!(w.fingerprint(), h.finish());
    }
}
