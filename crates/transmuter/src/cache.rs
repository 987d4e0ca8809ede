//! Set-associative reconfigurable cache bank (R-DCache, §3.2.2).
//!
//! Banks are sub-banked in hardware so capacity can grow without losing
//! contents (only set-index/tag mux settings change); shrinking requires a
//! flush. This model tracks tags, LRU state and dirty bits — no data —
//! which is all the timing and energy model needs.

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

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

/// One reconfigurable cache bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheBank {
    capacity_kb: u32,
    line_bytes: u32,
    ways: u32,
    sets: Vec<Line>, // sets × ways, row-major
    n_sets: usize,
    tick: u64,
    stats: BankStats,
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
        CacheBank {
            capacity_kb,
            line_bytes,
            ways,
            sets: vec![INVALID; n_sets * ways as usize],
            n_sets,
            tick: 0,
            stats: BankStats::default(),
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
        self.set_slice(set).iter().any(|l| l.valid && l.tag == tag)
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
            if line.valid && line.tag == tag {
                line.lru = tick;
                if write {
                    line.dirty = true;
                }
                return AccessOutcome::Hit;
            }
            let key = if line.valid { (1, line.lru) } else { (0, 0) };
            if key < victim_key {
                victim_key = key;
                victim = i;
            }
        }
        let old = self.sets[base + victim];
        let writeback = if old.valid && old.dirty {
            if !is_prefetch {
                self.stats.writebacks += 1;
            }
            Some(self.reconstruct_addr(set, old.tag))
        } else {
            None
        };
        self.sets[base + victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: tick,
        };
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
        let valid = self.sets.iter().filter(|l| l.valid).count();
        valid as f64 / self.sets.len() as f64
    }

    /// Number of currently dirty lines.
    pub fn dirty_lines(&self) -> usize {
        self.sets.iter().filter(|l| l.valid && l.dirty).count()
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
                    if l.valid {
                        v.push((self.reconstruct_addr(set, l.tag), l.dirty));
                    }
                }
            }
            v
        } else {
            Vec::new()
        };
        let lost_on_shrink = self.sets.iter().filter(|l| l.valid).count();
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
        for l in &mut self.sets {
            *l = INVALID;
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

    /// Approximate heap footprint, for cache budget accounting.
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        self.sets.len() * std::mem::size_of::<Line>()
    }

    /// Folds the bank's complete state into a digest. Only valid lines
    /// are hashed (with their slot index), so a mostly-cold bank costs
    /// almost nothing; `tick` and the stats are included because they
    /// carry across epochs and influence future behaviour (LRU order)
    /// or observable output.
    pub(crate) fn digest_into(&self, h: &mut fxhash::FxHasher) {
        use std::hash::Hasher as _;
        h.write_u32(self.capacity_kb);
        h.write_u32(self.line_bytes);
        h.write_u32(self.ways);
        h.write_u64(self.tick);
        h.write_u64(self.stats.accesses);
        h.write_u64(self.stats.misses);
        h.write_u64(self.stats.prefetches);
        h.write_u64(self.stats.writebacks);
        for (i, l) in self.sets.iter().enumerate() {
            if l.valid {
                h.write_u64(i as u64);
                h.write_u64(l.tag);
                h.write_u8(l.dirty as u8);
                h.write_u64(l.lru);
            }
        }
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
        let valid = self.sets.iter().filter(|l| l.valid).count();
        out.put_u64(valid as u64);
        for (i, l) in self.sets.iter().enumerate() {
            if l.valid {
                out.put_u64(i as u64);
                out.put_u64(l.tag);
                out.put_u8(l.dirty as u8);
                out.put_u64(l.lru);
            }
        }
    }

    /// Inverse of [`CacheBank::encode_into`]; `None` on malformed bytes.
    pub(crate) fn decode_from(r: &mut crate::codec::Reader<'_>) -> Option<CacheBank> {
        let capacity_kb = r.u32()?;
        let line_bytes = r.u32()?;
        let ways = r.u32()?;
        if capacity_kb == 0 || line_bytes == 0 || ways == 0 {
            return None;
        }
        let n_sets =
            (capacity_kb as usize * 1024).checked_div(line_bytes as usize * ways as usize)?;
        if n_sets == 0 || !n_sets.is_power_of_two() {
            return None;
        }
        let mut bank = CacheBank::new(capacity_kb, line_bytes, ways);
        bank.tick = r.u64()?;
        bank.stats = BankStats {
            accesses: r.u64()?,
            misses: r.u64()?,
            prefetches: r.u64()?,
            writebacks: r.u64()?,
        };
        let valid = r.len(bank.sets.len())?;
        for _ in 0..valid {
            let i = r.u64()? as usize;
            let tag = r.u64()?;
            let dirty = r.bool()?;
            let lru = r.u64()?;
            let slot = bank.sets.get_mut(i)?;
            *slot = Line {
                tag,
                valid: true,
                dirty,
                lru,
            };
        }
        Some(bank)
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
