//! Set-associative reconfigurable cache bank (R-DCache, §3.2.2).
//!
//! Banks are sub-banked in hardware so capacity can grow without losing
//! contents (only set-index/tag mux settings change); shrinking requires a
//! flush. This model tracks tags, LRU state and dirty bits — no data —
//! which is all the timing and energy model needs.
//!
//! **Copy-on-write pages.** The simulator works on a flat line array,
//! but epoch snapshots see it as pages of 16 slots. Every line mutation
//! sets its page's bit in a per-bank bitset, and a commit at each hooked
//! epoch boundary copies and hashes only the marked pages into shared
//! [`Page`]s, keeping the previous commit's page for every other one.
//! Consecutive snapshots of one run therefore share every page the epoch
//! between them did not touch, and a state digest folds one cached hash
//! per page instead of rehashing every line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::machine::DigestInto;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present.
    Hit,
    /// Line absent; a fill was performed. Contains the evicted dirty line
    /// address, if the victim needed writing back.
    Miss {
        /// Address of a dirty victim line that must be written back.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// Line slots per copy-on-write page. A constant, not a knob: sized on
/// R08 and R13 snapshots, 8-line pages used 1–15% less memory than
/// 16-line ones before counting their twice-as-many page-table entries,
/// and 64-line pages 11–58% more.
pub(crate) const PAGE_LINES: usize = 16;

/// Tag-word flag: the slot holds a line.
const VALID: u64 = 1 << 63;
/// Tag-word flag: the line is dirty.
const DIRTY: u64 = 1 << 62;
/// Tag-word bits below the flags.
const TAG_MASK: u64 = DIRTY - 1;

/// One line slot: the tag word (the tag, plus [`VALID`] and [`DIRTY`] in
/// its top two bits) and the LRU stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    word: u64,
    lru: u64,
}

impl Line {
    fn new(tag: u64, dirty: bool, lru: u64) -> Line {
        let dirty = if dirty { DIRTY } else { 0 };
        Line {
            word: VALID | dirty | tag,
            lru,
        }
    }

    fn valid(self) -> bool {
        self.word & VALID != 0
    }

    fn dirty(self) -> bool {
        self.word & DIRTY != 0
    }

    fn tag(self) -> u64 {
        self.word & TAG_MASK
    }
}

const INVALID: Line = Line { word: 0, lru: 0 };

/// An immutable copy of one page of a bank's line slots, shared by the
/// live bank's last commit and every snapshot that saw the page
/// unchanged. It carries the hash of its valid lines, so a digest folds
/// one word per page.
///
/// It also carries one store's count of its references: a store of
/// many snapshots (the epoch cache) that must count each shared page
/// once can claim the page and count on the page itself
/// ([`Page::hold`]/[`Page::release`]), an atomic add on the cache line
/// the `Arc` clone that put the page in the snapshot just touched,
/// instead of a hash-map update. The tally is bookkeeping: equality and
/// the digest ignore it.
#[derive(Debug)]
#[repr(C)] // tally and hash share a cache line with the `Arc` counts
pub struct Page {
    /// Claiming store's token in the high 32 bits (0: unclaimed), its
    /// reference count in the low 32.
    tally: AtomicU64,
    hash: u64,
    lines: [Line; PAGE_LINES],
}

impl Page {
    /// Heap bytes of one shared page: the page plus its `Arc` counts.
    pub const HEAP_BYTES: usize = std::mem::size_of::<Page>() + 2 * std::mem::size_of::<usize>();

    /// Copies one page's slots (the last page of a bank may be short);
    /// `None` when no line is valid.
    fn capture(lines: &[Line]) -> Option<Arc<Page>> {
        let hash = page_hash(lines)?;
        let mut page = [INVALID; PAGE_LINES];
        page[..lines.len()].copy_from_slice(lines);
        Some(Arc::new(Page {
            tally: AtomicU64::new(0),
            hash,
            lines: page,
        }))
    }

    /// Counts one more reference by the store `token` (non-zero, unique
    /// per store), claiming the page if no store has. `Some(true)` for
    /// the store's first reference, `Some(false)` for a later one, and
    /// `None` when another store holds the claim — the caller then
    /// counts this page itself. One store's calls must not race each
    /// other (the store serialises them under its own lock); different
    /// stores may race freely.
    ///
    /// Only the claiming store writes a claimed tally, so its updates
    /// are plain stores. Another store writes only by claiming an
    /// unclaimed (zero) tally; that `AcqRel` exchange pairs with the
    /// `Release` store that released it.
    pub fn hold(&self, token: u32) -> Option<bool> {
        let cur = self.tally.load(Ordering::Acquire);
        if cur >> 32 == u64::from(token) {
            self.tally.store(cur + 1, Ordering::Release);
            return Some(false);
        }
        let claimed = u64::from(token) << 32 | 1;
        self.tally
            .compare_exchange(0, claimed, Ordering::AcqRel, Ordering::Acquire)
            .ok()
            .map(|_| true)
    }

    /// Drops one reference [`Page::hold`] counted for `token`; `true`
    /// when it was the last, which releases the claim.
    pub fn release(&self, token: u32) -> bool {
        let cur = self.tally.load(Ordering::Acquire);
        debug_assert_eq!(cur >> 32, u64::from(token), "release of an unheld page");
        let last = cur & u64::from(u32::MAX) == 1;
        self.tally
            .store(if last { 0 } else { cur - 1 }, Ordering::Release);
        last
    }

    /// Releases `token`'s claim whatever its count (a store dropping
    /// every reference at once).
    pub fn release_all(&self, token: u32) {
        if self.tally.load(Ordering::Acquire) >> 32 == u64::from(token) {
            self.tally.store(0, Ordering::Release);
        }
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        self.lines == other.lines
    }
}

/// Hash of one page's lines; `None` when none is valid. Each line is
/// mixed with its slot on its own and the mixes are summed, so the
/// lines hash side by side instead of down one serial `FxHasher` chain
/// (65 vs 120 ns a page). Invalid lines are all-zero, so the hash sees
/// content only.
fn page_hash(lines: &[Line]) -> Option<u64> {
    let mut any = 0;
    let mut sum = 0u64;
    for (i, l) in lines.iter().enumerate() {
        any |= l.word;
        let slot = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let a = (l.word ^ slot).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let b = (l.lru ^ a.rotate_left(32)).wrapping_mul(0x94D0_49BB_1331_11EB);
        sum = sum.wrapping_add(b ^ (b >> 29));
    }
    // The splitmix64 finalizer.
    let sum = (sum ^ (sum >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let sum = (sum ^ (sum >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (any & VALID != 0).then_some(sum ^ (sum >> 31))
}

/// Whether two page-table slots hold the same shared page (or are both
/// empty).
fn same_page(a: &Option<Arc<Page>>, b: &Option<Arc<Page>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// Per-epoch statistics of one bank, reset by [`CacheBank::take_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankStats {
    /// Demand accesses (loads + stores).
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Prefetches issued on behalf of this bank.
    pub prefetches: u64,
    /// Dirty lines written back (eviction or flush).
    pub writebacks: u64,
}

/// Set count of a bank geometry; `None` unless it is a positive power
/// of two and every tag leaves the tag word's two flag bits free.
fn set_count(capacity_kb: u32, line_bytes: u32, ways: u32) -> Option<usize> {
    let n_sets = (capacity_kb as usize * 1024).checked_div(line_bytes as usize * ways as usize)?;
    let tags_fit = line_bytes as u64 * n_sets as u64 >= 4;
    (n_sets > 0 && n_sets.is_power_of_two() && tags_fit).then_some(n_sets)
}

/// One reconfigurable cache bank.
#[derive(Debug, Clone)]
pub struct CacheBank {
    capacity_kb: u32,
    line_bytes: u32,
    ways: u32,
    sets: Vec<Line>, // sets × ways, row-major
    n_sets: usize,
    tick: u64,
    stats: BankStats,
    /// Valid lines, kept up to date by fills and flushes.
    valid: usize,
    /// One bit per page: changed since the last [`CacheBank::commit`].
    touched: Vec<u64>,
    /// The page table as of the last commit.
    committed: Vec<Option<Arc<Page>>>,
}

/// Sets `slot`'s page bit.
#[inline]
fn mark(touched: &mut [u64], slot: usize) {
    let page = slot / PAGE_LINES;
    touched[page / 64] |= 1 << (page % 64);
}

impl CacheBank {
    /// Creates a cold bank.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one set.
    pub fn new(capacity_kb: u32, line_bytes: u32, ways: u32) -> Self {
        let n_sets = (capacity_kb as usize * 1024) / (line_bytes as usize * ways as usize);
        assert!(
            n_sets > 0,
            "bank too small for {ways} ways of {line_bytes}-byte lines"
        );
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            set_count(capacity_kb, line_bytes, ways).is_some(),
            "tags of {line_bytes}-byte lines in {n_sets} sets overflow the tag word"
        );
        let lines = n_sets * ways as usize;
        let pages = lines.div_ceil(PAGE_LINES);
        CacheBank {
            capacity_kb,
            line_bytes,
            ways,
            sets: vec![INVALID; lines],
            n_sets,
            tick: 0,
            stats: BankStats::default(),
            valid: 0,
            touched: vec![0; pages.div_ceil(64)],
            committed: vec![None; pages],
        }
    }

    /// Active capacity in kB.
    pub fn capacity_kb(&self) -> u32 {
        self.capacity_kb
    }

    /// Looks up (and on miss, fills) the line containing `addr`.
    /// `write` marks the line dirty on hit or after fill.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.stats.accesses += 1;
        let out = self.touch(addr, write, false);
        if let AccessOutcome::Miss { .. } = out {
            self.stats.misses += 1;
        }
        out
    }

    /// Installs a prefetched line (no demand-access accounting; never
    /// dirty). Returns a dirty victim to write back, if any. Returns
    /// `None` writeback and performs nothing if the line is already
    /// present.
    pub fn install_prefetch(&mut self, addr: u64) -> Option<u64> {
        self.stats.prefetches += 1;
        match self.touch(addr, false, true) {
            AccessOutcome::Hit => None,
            AccessOutcome::Miss { writeback } => {
                if writeback.is_some() {
                    self.stats.writebacks += 1;
                }
                writeback
            }
        }
    }

    /// `true` if the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        self.set_slice(set)
            .iter()
            .any(|l| l.word & !DIRTY == VALID | tag)
    }

    fn touch(&mut self, addr: u64, write: bool, is_prefetch: bool) -> AccessOutcome {
        let (set, tag) = self.locate(addr);
        self.tick += 1;
        let tick = self.tick;
        let base = set * self.ways as usize;
        let ways = self.ways as usize;

        // One pass over the set: detect a hit while tracking the victim
        // (first invalid way, else LRU — ties keep the lowest index,
        // matching the old two-pass `min_by_key` exactly).
        let mut victim = 0usize;
        let mut victim_key = (u8::MAX, u64::MAX);
        for (i, line) in self.sets[base..base + ways].iter_mut().enumerate() {
            if line.word & !DIRTY == VALID | tag {
                line.lru = tick;
                if write {
                    line.word |= DIRTY;
                }
                mark(&mut self.touched, base + i);
                return AccessOutcome::Hit;
            }
            let key = if line.valid() { (1, line.lru) } else { (0, 0) };
            if key < victim_key {
                victim_key = key;
                victim = i;
            }
        }
        let slot = base + victim;
        let old = self.sets[slot];
        let writeback = if !old.valid() {
            self.valid += 1;
            None
        } else if old.dirty() {
            if !is_prefetch {
                self.stats.writebacks += 1;
            }
            Some(self.reconstruct_addr(set, old.tag()))
        } else {
            None
        };
        self.sets[slot] = Line::new(tag, write, tick);
        mark(&mut self.touched, slot);
        AccessOutcome::Miss { writeback }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes as u64;
        let set = (line as usize) & (self.n_sets - 1);
        let tag = line / self.n_sets as u64;
        (set, tag)
    }

    fn reconstruct_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.n_sets as u64 + set as u64) * self.line_bytes as u64
    }

    fn set_slice(&self, set: usize) -> &[Line] {
        &self.sets[set * self.ways as usize..(set + 1) * self.ways as usize]
    }

    /// Fraction of valid tags — the "cache occupancy" counter of Table 2.
    pub fn occupancy(&self) -> f64 {
        self.valid as f64 / self.sets.len() as f64
    }

    /// Number of currently dirty lines.
    pub fn dirty_lines(&self) -> usize {
        self.sets.iter().filter(|l| l.dirty()).count()
    }

    /// Grows or shrinks the bank. Growing rehashes resident lines into the
    /// new geometry (the sub-banked design keeps contents, §3.2.2);
    /// shrinking drops everything (the caller models the flush cost).
    /// Returns the number of lines lost (shrink) or displaced (grow
    /// conflicts).
    pub fn resize(&mut self, new_capacity_kb: u32) -> usize {
        if new_capacity_kb == self.capacity_kb {
            return 0;
        }
        let grow = new_capacity_kb > self.capacity_kb;
        // Rebuild the resident address list before mutating geometry.
        let resident: Vec<(u64, bool)> = if grow {
            let mut v = Vec::new();
            for set in 0..self.n_sets {
                for l in self.set_slice(set) {
                    if l.valid() {
                        v.push((self.reconstruct_addr(set, l.tag()), l.dirty()));
                    }
                }
            }
            v
        } else {
            Vec::new()
        };
        let lost_on_shrink = self.valid;
        // A fresh bank's empty page table matches its empty lines; the
        // re-installs below mark the pages they fill.
        *self = CacheBank::new(new_capacity_kb, self.line_bytes, self.ways);
        if grow {
            let mut displaced = 0;
            for (addr, dirty) in resident {
                if let AccessOutcome::Miss { writeback: Some(_) } = self.touch(addr, dirty, true) {
                    displaced += 1;
                }
            }
            self.stats = BankStats::default();
            displaced
        } else {
            lost_on_shrink
        }
    }

    /// Invalidates everything (after a flush).
    pub fn flush(&mut self) {
        self.sets.fill(INVALID);
        self.valid = 0;
        for slot in (0..self.sets.len()).step_by(PAGE_LINES) {
            mark(&mut self.touched, slot);
        }
    }

    /// Returns and resets the per-epoch statistics.
    pub fn take_stats(&mut self) -> BankStats {
        std::mem::take(&mut self.stats)
    }

    /// Reads the statistics without resetting.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Slots of page `p` (the last page of a bank may be short).
    fn page_range(&self, p: usize) -> std::ops::Range<usize> {
        let start = p * PAGE_LINES;
        start..(start + PAGE_LINES).min(self.sets.len())
    }

    fn page_lines(&self, p: usize) -> &[Line] {
        &self.sets[self.page_range(p)]
    }

    fn is_touched(&self, p: usize) -> bool {
        self.touched[p / 64] & (1 << (p % 64)) != 0
    }

    /// Brings the committed page table up to date: every page touched
    /// since the last commit is copied and hashed into a fresh shared
    /// page (`None` when it holds no valid line), every other page keeps
    /// its committed `Arc`, and the marks clear.
    pub(crate) fn commit(&mut self) {
        for w in 0..self.touched.len() {
            let mut bits = std::mem::take(&mut self.touched[w]);
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let page = Page::capture(self.page_lines(p));
                self.committed[p] = page;
            }
        }
    }

    /// The bank as a snapshot holds it: the committed page wherever
    /// nothing changed since the last commit, a fresh copy elsewhere.
    /// Leaves the live commit as it is.
    pub(crate) fn snapshot(&self) -> BankPages {
        let pages = (0..self.committed.len())
            .map(|p| {
                if self.is_touched(p) {
                    Page::capture(self.page_lines(p))
                } else {
                    self.committed[p].clone()
                }
            })
            .collect();
        self.with_pages(pages)
    }

    /// [`CacheBank::snapshot`] that copies every page from the live
    /// lines, ignoring the committed table: the from-scratch witness
    /// the commit is checked against.
    pub(crate) fn snapshot_from_scratch(&self) -> BankPages {
        let pages = (0..self.committed.len())
            .map(|p| Page::capture(self.page_lines(p)))
            .collect();
        self.with_pages(pages)
    }

    fn with_pages(&self, pages: Box<[Option<Arc<Page>>]>) -> BankPages {
        BankPages {
            capacity_kb: self.capacity_kb,
            line_bytes: self.line_bytes,
            ways: self.ways,
            tick: self.tick,
            stats: self.stats,
            valid: self.valid,
            pages,
        }
    }

    /// Reinstates a snapshot's bank and commits to its page table.
    /// Pages the bank already holds as its committed `Arc`, untouched
    /// since, are not copied.
    pub(crate) fn restore(&mut self, snap: &BankPages) {
        if (self.capacity_kb, self.line_bytes, self.ways)
            != (snap.capacity_kb, snap.line_bytes, snap.ways)
        {
            *self = CacheBank::new(snap.capacity_kb, snap.line_bytes, snap.ways);
        }
        for (p, page) in snap.pages.iter().enumerate() {
            if !self.is_touched(p) && same_page(&self.committed[p], page) {
                continue;
            }
            let range = self.page_range(p);
            let dst = &mut self.sets[range];
            match page {
                Some(pg) => dst.copy_from_slice(&pg.lines[..dst.len()]),
                None => dst.fill(INVALID),
            }
            self.committed[p] = page.clone();
        }
        self.touched.fill(0);
        self.tick = snap.tick;
        self.stats = snap.stats;
        self.valid = snap.valid;
    }
}

/// Folds the bank exactly as its snapshot folds. Reads the committed
/// page table, so it must follow a [`CacheBank::commit`].
impl DigestInto for CacheBank {
    fn digest_into(&self, h: &mut fxhash::FxHasher) {
        debug_assert!(
            self.touched.iter().all(|&w| w == 0),
            "digest of an uncommitted bank"
        );
        fold_bank(
            h,
            (self.capacity_kb, self.line_bytes, self.ways),
            self.tick,
            self.stats,
            &self.committed,
        );
    }
}

impl DigestInto for BankPages {
    fn digest_into(&self, h: &mut fxhash::FxHasher) {
        fold_bank(
            h,
            (self.capacity_kb, self.line_bytes, self.ways),
            self.tick,
            self.stats,
            &self.pages,
        );
    }
}

/// The digest of one bank: geometry, LRU clock and statistics (they
/// carry across epochs and drive LRU order or observable output), then
/// each non-empty page's index and hash. Content only, so equal banks
/// digest equally whatever their history.
fn fold_bank(
    h: &mut fxhash::FxHasher,
    (capacity_kb, line_bytes, ways): (u32, u32, u32),
    tick: u64,
    stats: BankStats,
    pages: &[Option<Arc<Page>>],
) {
    use std::hash::Hasher as _;
    h.write_u32(capacity_kb);
    h.write_u32(line_bytes);
    h.write_u32(ways);
    h.write_u64(tick);
    h.write_u64(stats.accesses);
    h.write_u64(stats.misses);
    h.write_u64(stats.prefetches);
    h.write_u64(stats.writebacks);
    for (p, page) in pages.iter().enumerate() {
        if let Some(page) = page {
            h.write_u64(p as u64);
            h.write_u64(page.hash);
        }
    }
}

/// A bank as a snapshot holds it: geometry, LRU clock, statistics and a
/// page table of shared pages, `None` for pages with no valid line.
/// Equality and the digest look at content only, never at which `Arc`
/// holds it.
#[derive(Debug, Clone)]
pub(crate) struct BankPages {
    capacity_kb: u32,
    line_bytes: u32,
    ways: u32,
    tick: u64,
    stats: BankStats,
    valid: usize,
    pages: Box<[Option<Arc<Page>>]>,
}

impl PartialEq for BankPages {
    fn eq(&self, other: &BankPages) -> bool {
        (
            self.capacity_kb,
            self.line_bytes,
            self.ways,
            self.tick,
            self.stats,
        ) == (
            other.capacity_kb,
            other.line_bytes,
            other.ways,
            other.tick,
            other.stats,
        ) && self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(other.pages.iter())
                .all(|(a, b)| same_page(a, b) || matches!((a, b), (Some(a), Some(b)) if a == b))
    }
}

impl BankPages {
    /// The shared pages the snapshot references.
    pub(crate) fn pages(&self) -> impl Iterator<Item = &Arc<Page>> {
        self.pages.iter().flatten()
    }

    /// Heap bytes outside the shared pages: the page table.
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.pages)
    }

    /// Serialises the bank (geometry, tick, stats, valid lines) for the
    /// epoch cache's disk tier.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        use crate::codec::PutBytes as _;
        out.put_u32(self.capacity_kb);
        out.put_u32(self.line_bytes);
        out.put_u32(self.ways);
        out.put_u64(self.tick);
        out.put_u64(self.stats.accesses);
        out.put_u64(self.stats.misses);
        out.put_u64(self.stats.prefetches);
        out.put_u64(self.stats.writebacks);
        let valid_lines = || {
            self.pages.iter().enumerate().flat_map(|(p, page)| {
                page.iter().flat_map(move |pg| {
                    pg.lines
                        .iter()
                        .enumerate()
                        .filter(|(_, l)| l.valid())
                        .map(move |(i, l)| (p * PAGE_LINES + i, *l))
                })
            })
        };
        out.put_u64(valid_lines().count() as u64);
        for (slot, l) in valid_lines() {
            out.put_u64(slot as u64);
            out.put_u64(l.tag());
            out.put_u8(l.dirty() as u8);
            out.put_u64(l.lru);
        }
    }

    /// Inverse of [`BankPages::encode_into`]; `None` on malformed bytes.
    pub(crate) fn decode_from(r: &mut crate::codec::Reader<'_>) -> Option<BankPages> {
        let capacity_kb = r.u32()?;
        let line_bytes = r.u32()?;
        let ways = r.u32()?;
        if capacity_kb == 0 || line_bytes == 0 || ways == 0 {
            return None;
        }
        let n_sets = set_count(capacity_kb, line_bytes, ways)?;
        let mut lines = vec![INVALID; n_sets * ways as usize];
        let tick = r.u64()?;
        let stats = BankStats {
            accesses: r.u64()?,
            misses: r.u64()?,
            prefetches: r.u64()?,
            writebacks: r.u64()?,
        };
        let n = r.len(lines.len())?;
        for _ in 0..n {
            let i = r.u64()? as usize;
            let tag = r.u64()?;
            let dirty = r.bool()?;
            let lru = r.u64()?;
            if tag > TAG_MASK {
                return None;
            }
            *lines.get_mut(i)? = Line::new(tag, dirty, lru);
        }
        Some(BankPages {
            capacity_kb,
            line_bytes,
            ways,
            tick,
            stats,
            valid: lines.iter().filter(|l| l.valid()).count(),
            pages: lines.chunks(PAGE_LINES).map(Page::capture).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = CacheBank::new(4, 32, 4);
        assert!(!c.access(0x1000, false).is_hit());
        assert!(c.access(0x1000, false).is_hit());
        assert!(c.access(0x1008, false).is_hit(), "same line");
        assert!(!c.access(0x1020, false).is_hit(), "next line");
    }

    #[test]
    fn lru_evicts_oldest() {
        // 4 kB, 32 B lines, 4 ways -> 32 sets. Addresses addr = set*32 +
        // way_conflict * 32*32 collide in one set.
        let mut c = CacheBank::new(4, 32, 4);
        let stride = 32 * 32; // same set, different tag
        for i in 0..4u64 {
            c.access(i * stride, false);
        }
        c.access(0, false); // refresh line 0
        c.access(4 * stride, false); // evicts line 1 (oldest)
        assert!(c.probe(0));
        assert!(!c.probe(stride));
        assert!(c.probe(2 * stride));
    }

    #[test]
    fn dirty_writeback_on_eviction() {
        let mut c = CacheBank::new(4, 32, 4);
        let stride = 32 * 32;
        c.access(0, true); // dirty
        for i in 1..4u64 {
            c.access(i * stride, false);
        }
        match c.access(4 * stride, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(0)),
            other => panic!("expected miss with writeback, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = CacheBank::new(4, 32, 4);
        assert_eq!(c.occupancy(), 0.0);
        for i in 0..64u64 {
            c.access(i * 32, false);
        }
        assert!((c.occupancy() - 0.5).abs() < 1e-9); // 64 of 128 lines
    }

    #[test]
    fn grow_keeps_contents() {
        let mut c = CacheBank::new(4, 32, 4);
        for i in 0..32u64 {
            c.access(i * 32, false);
        }
        c.resize(16);
        assert_eq!(c.capacity_kb(), 16);
        for i in 0..32u64 {
            assert!(c.probe(i * 32), "line {i} lost on grow");
        }
    }

    #[test]
    fn shrink_drops_contents() {
        let mut c = CacheBank::new(16, 32, 4);
        c.access(0, false);
        c.resize(4);
        assert!(!c.probe(0));
        assert_eq!(c.occupancy(), 0.0);
    }

    #[test]
    fn stats_reset_on_take() {
        let mut c = CacheBank::new(4, 32, 4);
        c.access(0, false);
        c.access(0, false);
        let s = c.take_stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(c.stats().accesses, 0);
    }

    /// Applies `n` pseudo-random demand accesses, prefetch installs,
    /// flushes and resizes (`resize` picks among 1–8 kB).
    fn random_ops(bank: &mut CacheBank, x: &mut u64, n: usize, resize: bool) {
        for _ in 0..n {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (*x >> 33) % (1 << 15);
            match (*x >> 20) % 64 {
                0 => bank.flush(),
                1 if resize => {
                    bank.resize([1, 2, 4, 8][(*x >> 8) as usize % 4]);
                }
                2..=15 => {
                    bank.install_prefetch(addr);
                }
                _ => {
                    bank.access(addr, (*x >> 12) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn valid_count_matches_a_scan() {
        let mut x = 7u64;
        for _ in 0..40 {
            let mut bank = CacheBank::new(4, 32, 4);
            for _ in 0..25 {
                random_ops(&mut bank, &mut x, 40, true);
                let scanned = bank.sets.iter().filter(|l| l.valid()).count();
                assert_eq!(bank.valid, scanned);
                assert_eq!(bank.occupancy(), scanned as f64 / bank.sets.len() as f64);
            }
        }
    }

    #[test]
    fn commit_copies_touched_pages_and_shares_the_rest() {
        let mut x = 11u64;
        let mut bank = CacheBank::new(8, 32, 4);
        random_ops(&mut bank, &mut x, 300, false);
        bank.commit();
        let before = bank.snapshot();
        let before_copy = bank.snapshot_from_scratch();
        assert_eq!(before, before_copy);
        // One hit moves one LRU stamp: exactly its page is new.
        let addr = (0..1 << 15)
            .step_by(32)
            .find(|&a| bank.probe(a))
            .expect("a resident line");
        assert!(bank.access(addr, false).is_hit());
        let slot = bank.sets.iter().position(|l| l.lru == bank.tick);
        let hit_page = slot.expect("the hit line") / PAGE_LINES;
        bank.commit();
        let after = bank.snapshot();
        for (p, (a, b)) in before.pages.iter().zip(after.pages.iter()).enumerate() {
            assert_eq!(!same_page(a, b), p == hit_page, "page {p}");
        }
        assert_eq!(before, before_copy, "the earlier snapshot is untouched");
        assert_eq!(after, bank.snapshot_from_scratch());
        // Restoring the earlier snapshot copies back only that page.
        bank.restore(&before);
        assert_eq!(bank.snapshot(), before_copy);
        assert_eq!(bank.snapshot_from_scratch(), before_copy);
    }

    #[test]
    fn prefetch_install_is_not_a_demand_access() {
        let mut c = CacheBank::new(4, 32, 4);
        c.install_prefetch(0x40);
        let s = c.stats();
        assert_eq!(s.accesses, 0);
        assert_eq!(s.prefetches, 1);
        assert!(c.access(0x40, false).is_hit(), "prefetched line should hit");
    }
}
