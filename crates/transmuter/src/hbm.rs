//! Bandwidth-regulated HBM model with per-channel batched arbitration.
//!
//! The off-chip interface is the binding resource for sparse kernels
//! (§1), so it is modelled carefully: a fixed access latency plus a
//! busy-until regulator per channel that serialises line transfers at
//! the configured bandwidth. Because the machine's event loop processes
//! GPEs in global time order, each channel sees requests in
//! non-decreasing time.
//!
//! **Batched draining.** Posted transfers (writebacks, prefetches) never
//! return a completion time to the issuer, so in batched mode (the
//! default) they are queued per channel and folded into the busy-until
//! regulator in one timestamp-ordered pass when the next *demand* read
//! arrives on that channel. Folding is order-preserving —
//! `busy = max(busy, t) + service` applied in arrival order — so the
//! regulator state after a drain is bit-identical to servicing every
//! posted transfer the moment it was issued. Immediate mode
//! ([`Hbm::set_batched`]) keeps the historical one-update-per-op
//! behaviour for differential testing.

/// Per-epoch HBM statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HbmStats {
    /// Bytes read from memory (demand fills + prefetch fills).
    pub bytes_read: u64,
    /// Bytes written to memory (writebacks, flushes).
    pub bytes_written: u64,
}

/// One HBM channel: its busy-until regulator plus the queue of posted
/// transfers not yet folded into it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Channel {
    /// Time at which the channel becomes free, counting only folded
    /// transfers.
    busy_until_ps: u64,
    /// Posted `(issue time, bytes)` transfers awaiting a drain, in
    /// arrival (non-decreasing time) order.
    pending: Vec<(u64, u32)>,
}

/// Drain threshold: fold a channel's pending queue once it grows this
/// large even without a demand read, bounding queue memory. Early
/// folding is free — the fold is order-preserving, so the regulator
/// state is the same whether it happens now or at the next demand read.
const PENDING_DRAIN_LEN: usize = 256;

/// The HBM interface model.
#[derive(Debug, Clone)]
pub struct Hbm {
    /// ps per byte of one channel.
    ps_per_byte: f64,
    /// ps per byte of the aggregate interface (all channels).
    total_ps_per_byte: f64,
    /// Fixed access latency in ps (row activation + interface).
    latency_ps: u64,
    /// Address-to-channel interleave: channel = (addr >> shift) % n.
    line_shift: u32,
    /// Memoised service time for the most recent transfer size — in
    /// practice every transfer is one cache line, so this removes an
    /// f64 multiply + ceil per op.
    service_memo: (u32, u64),
    /// Posted transfers queue per channel instead of updating the
    /// regulator immediately.
    batched: bool,
    channels: Vec<Channel>,
    stats: HbmStats,
}

/// Fixed DRAM access latency (60 ns).
pub const DRAM_LATENCY_PS: u64 = 60_000;

impl Hbm {
    /// Creates a single-channel model for a total bandwidth in GB/s —
    /// the exact historical semantics.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn new(bandwidth_gbps: f64) -> Self {
        Hbm::with_channels(bandwidth_gbps, 1, 32)
    }

    /// Creates a model whose total bandwidth is split evenly over
    /// `channels` independent channels, line-interleaved by address at
    /// `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive, `channels` is zero, or
    /// `line_bytes` is not a power of two.
    pub fn with_channels(bandwidth_gbps: f64, channels: usize, line_bytes: u32) -> Self {
        assert!(bandwidth_gbps > 0.0, "bandwidth must be positive");
        assert!(channels > 0, "need at least one channel");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        // 1 GB/s = 1 byte/ns = 1000 ps/byte.
        let total_ps_per_byte = 1000.0 / bandwidth_gbps;
        Hbm {
            ps_per_byte: total_ps_per_byte * channels as f64,
            total_ps_per_byte,
            latency_ps: DRAM_LATENCY_PS,
            line_shift: line_bytes.trailing_zeros(),
            service_memo: (0, 0),
            batched: true,
            channels: vec![Channel::default(); channels],
            stats: HbmStats::default(),
        }
    }

    /// Selects batched (default) or immediate servicing of posted
    /// transfers. Both produce identical observable timing; immediate
    /// mode exists for the reference simulation path.
    pub fn set_batched(&mut self, batched: bool) {
        if !batched {
            // Entering immediate mode: nothing may stay queued.
            for ci in 0..self.channels.len() {
                self.drain(ci);
            }
        }
        self.batched = batched;
    }

    fn channel_of(&self, addr: u64) -> usize {
        if self.channels.len() == 1 {
            0
        } else {
            ((addr >> self.line_shift) % self.channels.len() as u64) as usize
        }
    }

    fn service_ps(&mut self, bytes: u32) -> u64 {
        if self.service_memo.0 != bytes {
            self.service_memo = (bytes, (bytes as f64 * self.ps_per_byte).ceil() as u64);
        }
        self.service_memo.1
    }

    /// Folds a channel's pending posted transfers into its regulator,
    /// in arrival order.
    fn drain(&mut self, ci: usize) {
        if self.channels[ci].pending.is_empty() {
            return;
        }
        // Move the queue out so `service_ps` can borrow `self`; the
        // allocation is handed back afterwards.
        let mut pending = std::mem::take(&mut self.channels[ci].pending);
        let mut busy = self.channels[ci].busy_until_ps;
        for &(t, bytes) in &pending {
            let service = self.service_ps(bytes);
            busy = busy.max(t) + service;
        }
        pending.clear();
        self.channels[ci].busy_until_ps = busy;
        self.channels[ci].pending = pending;
    }

    /// A demand read of `bytes` at `addr`, issued at absolute time
    /// `now_ps`. Returns the completion time (arrival of the critical
    /// word).
    pub fn read(&mut self, now_ps: u64, addr: u64, bytes: u32) -> u64 {
        self.stats.bytes_read += bytes as u64;
        let ci = self.channel_of(addr);
        self.drain(ci);
        self.occupy(ci, now_ps, bytes) + self.latency_ps
    }

    /// A write of `bytes` to `addr` (writeback / flush) issued at
    /// `now_ps`. Writes are posted: they occupy bandwidth but the issuer
    /// does not wait.
    pub fn write(&mut self, now_ps: u64, addr: u64, bytes: u32) {
        self.stats.bytes_written += bytes as u64;
        self.post(now_ps, addr, bytes);
    }

    /// A prefetch read: occupies bandwidth, issuer does not wait.
    pub fn prefetch_read(&mut self, now_ps: u64, addr: u64, bytes: u32) {
        self.stats.bytes_read += bytes as u64;
        self.post(now_ps, addr, bytes);
    }

    fn post(&mut self, now_ps: u64, addr: u64, bytes: u32) {
        let ci = self.channel_of(addr);
        if self.batched {
            self.channels[ci].pending.push((now_ps, bytes));
            if self.channels[ci].pending.len() >= PENDING_DRAIN_LEN {
                self.drain(ci);
            }
        } else {
            self.occupy(ci, now_ps, bytes);
        }
    }

    /// Serialises a transfer at channel `ci`'s regulator; returns the
    /// time the transfer finishes on the bus.
    fn occupy(&mut self, ci: usize, now_ps: u64, bytes: u32) -> u64 {
        let service = self.service_ps(bytes);
        let ch = &mut self.channels[ci];
        let start = ch.busy_until_ps.max(now_ps);
        ch.busy_until_ps = start + service;
        ch.busy_until_ps
    }

    /// The time at which the interface is next fully free, counting
    /// still-queued posted transfers.
    pub fn busy_until_ps(&self) -> u64 {
        (0..self.channels.len())
            .map(|ci| self.folded_busy_ps(ci))
            .max()
            .unwrap_or(0)
    }

    /// Peak bytes transferable in a window of `window_ps`, over all
    /// channels.
    pub fn capacity_bytes(&self, window_ps: u64) -> f64 {
        window_ps as f64 / self.total_ps_per_byte
    }

    /// Returns and resets the statistics.
    pub fn take_stats(&mut self) -> HbmStats {
        std::mem::take(&mut self.stats)
    }

    /// Reads the statistics without resetting.
    pub fn stats(&self) -> HbmStats {
        self.stats
    }

    /// Channel `ci`'s regulator with any still-queued posted transfers
    /// folded in — the canonical view of the channel, independent of
    /// *when* queued transfers happen to be drained.
    fn folded_busy_ps(&self, ci: usize) -> u64 {
        let ch = &self.channels[ci];
        let mut busy = ch.busy_until_ps;
        for &(t, bytes) in &ch.pending {
            // Same fold as `drain`, without the memo (the view must not
            // mutate).
            let service = (bytes as f64 * self.ps_per_byte).ceil() as u64;
            busy = busy.max(t) + service;
        }
        busy
    }

    /// Approximate heap footprint, for cache budget accounting.
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        self.channels
            .iter()
            .map(|ch| std::mem::size_of::<Channel>() + ch.pending.capacity() * 12)
            .sum()
    }

    /// Folds the model's state into a digest. Channels are hashed in
    /// their canonical (fully folded) form so that a snapshot digest does
    /// not depend on drain timing; `service_memo` and `batched` are
    /// excluded as behaviour-neutral.
    pub(crate) fn digest_into(&self, h: &mut fxhash::FxHasher) {
        use std::hash::Hasher as _;
        h.write_u64(self.ps_per_byte.to_bits());
        h.write_u64(self.total_ps_per_byte.to_bits());
        h.write_u64(self.latency_ps);
        h.write_u32(self.line_shift);
        h.write_u64(self.channels.len() as u64);
        for ci in 0..self.channels.len() {
            h.write_u64(self.folded_busy_ps(ci));
        }
        h.write_u64(self.stats.bytes_read);
        h.write_u64(self.stats.bytes_written);
    }
}

/// Equality over the canonical state: folded channel views plus geometry
/// and statistics. `service_memo` (a pure-function cache) and `batched`
/// (two servicing modes with identical observable timing) are excluded.
impl PartialEq for Hbm {
    fn eq(&self, other: &Hbm) -> bool {
        self.ps_per_byte.to_bits() == other.ps_per_byte.to_bits()
            && self.total_ps_per_byte.to_bits() == other.total_ps_per_byte.to_bits()
            && self.latency_ps == other.latency_ps
            && self.line_shift == other.line_shift
            && self.stats == other.stats
            && self.channels.len() == other.channels.len()
            && (0..self.channels.len())
                .all(|ci| self.folded_busy_ps(ci) == other.folded_busy_ps(ci))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_latency_includes_queuing() {
        let mut hbm = Hbm::new(1.0); // 1 GB/s -> 32 B line = 32 ns
        let t1 = hbm.read(0, 0, 32);
        assert_eq!(t1, 32_000 + DRAM_LATENCY_PS);
        // A second read at t=0 queues behind the first transfer.
        let t2 = hbm.read(0, 64, 32);
        assert_eq!(t2, 64_000 + DRAM_LATENCY_PS);
    }

    #[test]
    fn idle_gaps_do_not_accumulate() {
        let mut hbm = Hbm::new(1.0);
        hbm.read(0, 0, 32);
        let t = hbm.read(1_000_000, 0, 32); // long after the first finished
        assert_eq!(t, 1_000_000 + 32_000 + DRAM_LATENCY_PS);
    }

    #[test]
    fn bandwidth_scales_service_time() {
        let mut slow = Hbm::new(1.0);
        let mut fast = Hbm::new(16.0);
        let ts = slow.read(0, 0, 3200);
        let tf = fast.read(0, 0, 3200);
        assert!(ts > tf);
        assert_eq!(ts - DRAM_LATENCY_PS, 16 * (tf - DRAM_LATENCY_PS));
    }

    #[test]
    fn writes_are_posted_but_occupy_bus() {
        let mut hbm = Hbm::new(1.0);
        hbm.write(0, 0, 32);
        let t = hbm.read(0, 64, 32);
        // The read queues behind the posted write.
        assert_eq!(t, 64_000 + DRAM_LATENCY_PS);
        assert_eq!(hbm.stats().bytes_written, 32);
        assert_eq!(hbm.stats().bytes_read, 32);
    }

    #[test]
    fn stats_reset_on_take() {
        let mut hbm = Hbm::new(1.0);
        hbm.read(0, 0, 32);
        assert_eq!(hbm.take_stats().bytes_read, 32);
        assert_eq!(hbm.stats().bytes_read, 0);
    }

    #[test]
    fn batched_and_immediate_modes_agree() {
        // An arrival-ordered mix of posted and demand traffic must see
        // identical completion times and final regulator state in both
        // modes.
        let ops: Vec<(u64, u64, u8)> = (0..400)
            .map(|i| {
                let t = i * 7_000;
                let addr = (i * 131) % 4096 * 32;
                (t, addr, (i % 5) as u8)
            })
            .collect();
        let mut batched = Hbm::new(1.0);
        let mut immediate = Hbm::new(1.0);
        immediate.set_batched(false);
        for &(t, addr, kind) in &ops {
            match kind {
                0 | 1 => {
                    let a = batched.read(t, addr, 32);
                    let b = immediate.read(t, addr, 32);
                    assert_eq!(a, b, "demand read diverged at t={t}");
                }
                2 | 3 => {
                    batched.write(t, addr, 32);
                    immediate.write(t, addr, 32);
                }
                _ => {
                    batched.prefetch_read(t, addr, 32);
                    immediate.prefetch_read(t, addr, 32);
                }
            }
        }
        assert_eq!(batched.busy_until_ps(), immediate.busy_until_ps());
        assert_eq!(batched.stats(), immediate.stats());
    }

    #[test]
    fn pending_queue_is_bounded() {
        let mut hbm = Hbm::new(1.0);
        // Thousands of posted writes with no demand read in between must
        // not grow the queue without bound.
        for i in 0..10_000u64 {
            hbm.write(i * 1_000, 0, 32);
        }
        assert!(hbm.channels[0].pending.len() < PENDING_DRAIN_LEN);
        // And the folded regulator still reflects every transfer.
        assert_eq!(hbm.busy_until_ps(), 10_000 * 32_000);
    }

    #[test]
    fn channels_interleave_by_line() {
        let mut hbm = Hbm::with_channels(2.0, 2, 32);
        // Same line -> same channel: second read queues.
        let t1 = hbm.read(0, 0, 32);
        let t2 = hbm.read(0, 0, 32);
        assert_eq!(t2 - t1, 32_000); // 1 GB/s per channel
                                     // Different line parity -> the other channel: no queuing.
        let t3 = hbm.read(0, 32, 32);
        assert_eq!(t3, 32_000 + DRAM_LATENCY_PS);
    }

    #[test]
    fn single_channel_matches_historical_model() {
        // Hbm::new must behave exactly like the pre-channel model: one
        // regulator at the full bandwidth.
        let mut hbm = Hbm::new(4.0);
        let t1 = hbm.read(0, 0, 32);
        assert_eq!(t1, 8_000 + DRAM_LATENCY_PS);
        hbm.write(0, 1 << 40, 32); // any address, same regulator
        let t2 = hbm.read(0, 96, 32);
        assert_eq!(t2, 24_000 + DRAM_LATENCY_PS);
        assert!((hbm.capacity_bytes(1000) - 4.0).abs() < 1e-9);
    }
}
