//! PC-indexed stride prefetcher (§3.2.5).
//!
//! Each L1 bank owns one prefetcher. The index table maps a program
//! counter (in our abstract op streams, a stable access-site id assigned
//! by the kernel) to the last address and detected stride. Once the same
//! stride repeats (2-bit confidence), accesses at that site trigger
//! `degree` line prefetches ahead of the stream.

use crate::machine::DigestInto;

/// One stride-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct StrideEntry {
    pc: u32,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// Maximum confidence (saturating 2-bit counter).
const CONF_MAX: u8 = 3;
/// Confidence needed before prefetches are issued.
const CONF_ISSUE: u8 = 2;
/// Number of direct-mapped table entries.
const TABLE_SIZE: usize = 64;

/// A fixed-capacity buffer of prefetch addresses, so the hot demand-miss
/// path can collect prefetch candidates without touching the heap.
#[derive(Debug, Clone)]
pub struct PrefetchBuf {
    addrs: [u64; PrefetchBuf::CAPACITY],
    len: usize,
}

impl PrefetchBuf {
    /// Maximum prefetch degree the buffer can hold; the prefetcher's
    /// constructor enforces this bound on the degree.
    pub const CAPACITY: usize = 32;

    /// An empty buffer.
    pub fn new() -> Self {
        PrefetchBuf {
            addrs: [0; PrefetchBuf::CAPACITY],
            len: 0,
        }
    }

    /// Number of queued addresses.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The queued addresses.
    pub fn as_slice(&self) -> &[u64] {
        &self.addrs[..self.len]
    }

    fn push(&mut self, addr: u64) {
        self.addrs[self.len] = addr;
        self.len += 1;
    }
}

impl Default for PrefetchBuf {
    fn default() -> Self {
        PrefetchBuf::new()
    }
}

/// `x / 2^shift` on `i64`, truncating toward zero like `/`: a negative
/// dividend is biased by `2^shift − 1` first, since an arithmetic shift
/// alone rounds toward −∞.
#[inline]
fn div_pow2(x: i64, shift: u32) -> i64 {
    (x + ((x >> 63) & ((1 << shift) - 1))) >> shift
}

/// PC-indexed stride prefetcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    degree: u8,
    /// log2 of the line size.
    line_shift: u32,
}

impl StridePrefetcher {
    /// Creates a prefetcher with the given degree (0 disables it).
    ///
    /// # Panics
    ///
    /// Panics if the degree exceeds [`PrefetchBuf::CAPACITY`] or the line
    /// size is not a power of two.
    pub fn new(degree: u8, line_bytes: u32) -> Self {
        assert!(degree as usize <= PrefetchBuf::CAPACITY);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        StridePrefetcher {
            table: vec![StrideEntry::default(); TABLE_SIZE],
            degree,
            line_shift: line_bytes.trailing_zeros(),
        }
    }

    fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    /// Active degree.
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// Changes the degree (a super-fine-grained reconfiguration); the
    /// stride table survives.
    ///
    /// # Panics
    ///
    /// Panics if the degree exceeds [`PrefetchBuf::CAPACITY`].
    pub fn set_degree(&mut self, degree: u8) {
        assert!(degree as usize <= PrefetchBuf::CAPACITY);
        self.degree = degree;
    }

    /// Observes a demand access and returns the line-aligned addresses to
    /// prefetch (empty when the degree is 0 or no stable stride exists).
    ///
    /// Allocating wrapper over [`StridePrefetcher::observe_into`], kept
    /// for the reference simulation path and tests.
    pub fn observe(&mut self, pc: u32, addr: u64) -> Vec<u64> {
        let mut buf = PrefetchBuf::new();
        self.observe_into(pc, addr, &mut buf);
        buf.as_slice().to_vec()
    }

    /// Observes a demand access, appending the line-aligned addresses to
    /// prefetch into `out` (nothing when the degree is 0 or no stable
    /// stride exists).
    #[inline]
    pub fn observe_into(&mut self, pc: u32, addr: u64, out: &mut PrefetchBuf) {
        let slot = (pc as usize) % TABLE_SIZE;
        let e = &mut self.table[slot];
        if e.valid && e.pc == pc {
            let new_stride = addr as i64 - e.last_addr as i64;
            if new_stride == e.stride && new_stride != 0 {
                e.confidence = (e.confidence + 1).min(CONF_MAX);
            } else {
                e.stride = new_stride;
                e.confidence = e.confidence.saturating_sub(1);
            }
            e.last_addr = addr;
            if e.confidence >= CONF_ISSUE && self.degree > 0 {
                let shift = self.line_shift;
                let line = 1i64 << shift;
                // Prefetch `degree` *lines* ahead along the stride
                // direction, de-duplicated by line.
                let dir = if e.stride >= 0 { 1 } else { -1 };
                let mut last_line = div_pow2(addr as i64, shift);
                let mut k = 1i64;
                while out.len() < self.degree as usize && k <= 4 * self.degree as i64 {
                    let target = addr as i64 + k * e.stride.max(-line * 64).min(line * 64);
                    let target_line = div_pow2(target, shift);
                    if target >= 0 && target_line != last_line {
                        out.push((target_line << shift) as u64);
                        last_line = target_line;
                    } else if target_line == last_line && e.stride.abs() < line {
                        // Small strides: jump whole lines instead.
                        let jump = (last_line + dir) << shift;
                        if jump >= 0 {
                            out.push(jump as u64);
                            last_line += dir;
                        }
                    }
                    k += 1;
                }
            }
        } else {
            *e = StrideEntry {
                pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
        }
    }

    /// The prefetcher as a snapshot holds it: only the valid entries.
    pub(crate) fn snapshot(&self) -> PrefetcherState {
        PrefetcherState {
            degree: self.degree,
            line_bytes: self.line_bytes(),
            entries: valid_entries(&self.table),
        }
    }

    /// Reinstates a snapshot's prefetcher.
    pub(crate) fn restore(&mut self, state: &PrefetcherState) {
        self.degree = state.degree;
        self.line_shift = state.line_bytes.trailing_zeros();
        self.table.fill(StrideEntry::default());
        for &(i, e) in state.entries.iter() {
            self.table[i as usize] = e;
        }
    }
}

impl DigestInto for StridePrefetcher {
    fn digest_into(&self, h: &mut fxhash::FxHasher) {
        let valid = self.table.iter().enumerate().filter(|(_, e)| e.valid);
        fold_entries(h, self.degree, self.line_bytes(), valid);
    }
}

impl DigestInto for PrefetcherState {
    fn digest_into(&self, h: &mut fxhash::FxHasher) {
        fold_entries(h, self.degree, self.line_bytes, self.valid());
    }
}

/// The valid entries of a stride table, each with its slot.
fn valid_entries(table: &[StrideEntry]) -> Box<[(u8, StrideEntry)]> {
    table
        .iter()
        .enumerate()
        .filter(|(_, e)| e.valid)
        .map(|(i, e)| (i as u8, *e))
        .collect()
}

/// The digest of one prefetcher: degree, line size, then each valid
/// table entry with its slot index.
fn fold_entries<'a>(
    h: &mut fxhash::FxHasher,
    degree: u8,
    line_bytes: u32,
    valid: impl Iterator<Item = (usize, &'a StrideEntry)>,
) {
    use std::hash::Hasher as _;
    h.write_u8(degree);
    h.write_u32(line_bytes);
    for (i, e) in valid {
        h.write_u64(i as u64);
        h.write_u32(e.pc);
        h.write_u64(e.last_addr);
        h.write_i64(e.stride);
        h.write_u8(e.confidence);
    }
}

/// A prefetcher as a snapshot holds it: degree, line size and only the
/// valid table entries, each with its slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PrefetcherState {
    degree: u8,
    line_bytes: u32,
    entries: Box<[(u8, StrideEntry)]>,
}

impl PrefetcherState {
    fn valid(&self) -> impl Iterator<Item = (usize, &StrideEntry)> {
        self.entries.iter().map(|(i, e)| (*i as usize, e))
    }

    /// Approximate heap footprint, for cache budget accounting.
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_unit_line_stride() {
        let mut p = StridePrefetcher::new(4, 32);
        let mut issued = Vec::new();
        for i in 0..8u64 {
            issued = p.observe(1, i * 32);
        }
        assert_eq!(issued.len(), 4);
        // After accessing line 7, prefetch lines 8..=11.
        assert_eq!(issued[0], 8 * 32);
        assert_eq!(issued[3], 11 * 32);
    }

    #[test]
    fn sub_line_strides_advance_by_lines() {
        let mut p = StridePrefetcher::new(2, 32);
        let mut issued = Vec::new();
        for i in 0..16u64 {
            issued = p.observe(7, i * 8); // 8-byte stride within 32-byte lines
        }
        assert_eq!(issued.len(), 2);
        assert!(issued[0] % 32 == 0 && issued[1] % 32 == 0);
        assert!(issued[1] > issued[0]);
    }

    #[test]
    fn degree_zero_issues_nothing() {
        let mut p = StridePrefetcher::new(0, 32);
        for i in 0..8u64 {
            assert!(p.observe(1, i * 32).is_empty());
        }
    }

    #[test]
    fn random_addresses_issue_nothing() {
        let mut p = StridePrefetcher::new(8, 32);
        let addrs = [100u64, 9000, 40, 77777, 3, 123456];
        let mut total = 0;
        for &a in &addrs {
            total += p.observe(1, a).len();
        }
        assert_eq!(total, 0, "no stable stride should mean no prefetches");
    }

    #[test]
    fn observe_into_matches_allocating_observe() {
        let mut a = StridePrefetcher::new(8, 32);
        let mut b = StridePrefetcher::new(8, 32);
        let mut x = 99u64;
        for i in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mix strided and noisy sites.
            let (pc, addr) = if i % 3 == 0 {
                (5u32, i * 8)
            } else {
                ((x % 17) as u32, x >> 30)
            };
            let alloc = a.observe(pc, addr);
            let mut buf = PrefetchBuf::new();
            b.observe_into(pc, addr, &mut buf);
            assert_eq!(alloc.as_slice(), buf.as_slice(), "diverged at access {i}");
        }
    }

    #[test]
    fn line_math_truncates_like_division() {
        let mut x = 17u64;
        for shift in 0..=12 {
            let line = 1i64 << shift;
            let edges = [
                i64::MIN,
                i64::MIN + 1,
                -line - 1,
                -line,
                -line + 1,
                -1,
                0,
                1,
            ];
            let near_zero = -5 * line..5 * line;
            let random = (0..2_000).map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x as i64) >> (x % 48)
            });
            for v in edges.into_iter().chain(near_zero).chain(random) {
                let q = div_pow2(v, shift);
                assert_eq!(q, v / line, "{v} / {line}");
                assert_eq!(q << shift, q * line, "{q} * {line}");
            }
        }
    }

    #[test]
    fn descending_strides_stop_at_address_zero() {
        // A −40-byte stride over 32-byte lines, confident at address 200:
        // its targets 160, 120, 80, 40 and 0 lie on lines 5, 3, 2, 1 and
        // 0, and the targets below zero are never issued.
        let mut p = StridePrefetcher::new(8, 32);
        let mut issued = Vec::new();
        for i in 0..6u64 {
            issued = p.observe(9, 400 - 40 * i);
        }
        assert_eq!(issued, vec![160, 96, 64, 32, 0]);
    }

    #[test]
    fn distinct_pcs_track_independent_streams() {
        let mut p = StridePrefetcher::new(2, 32);
        for i in 0..6u64 {
            p.observe(1, i * 32);
            p.observe(2, 4096 + i * 64);
        }
        let a = p.observe(1, 6 * 32);
        let b = p.observe(2, 4096 + 6 * 64);
        assert!(!a.is_empty());
        assert!(!b.is_empty());
        assert_ne!(a[0], b[0]);
    }
}
