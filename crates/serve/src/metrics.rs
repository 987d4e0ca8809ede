//! Server observability: request counters, latency histograms (requests
//! and peer fetches), queue and cache gauges, rendered as JSON at
//! `/metrics`.
//!
//! Counters are lock-free atomics on the hot path; the per-route
//! breakdown uses a small mutexed map keyed by `(route, status)` — at
//! daemon request rates the map lock is uncontended next to the
//! simulation work behind it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use sparseadapt::trace_cache::CacheStats;

use crate::answer_memo::AnswerMemoStats;

/// Upper edges of the latency histogram buckets, in milliseconds.
/// Roughly ×2 per step: sub-millisecond cache hits through multi-second
/// cold sweeps land in distinct buckets, plus a +Inf overflow bucket.
pub const LATENCY_BUCKETS_MS: [f64; 14] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0,
];

/// A fixed-bucket latency histogram (milliseconds).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS_MS.len() + 1],
    /// Sum of every observation in nanoseconds: integral for the atomic,
    /// and fine enough that a sub-microsecond answer still adds to it.
    sum_ns: AtomicU64,
    observations: AtomicU64,
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn observe_ms(&self, ms: f64) {
        let idx = LATENCY_BUCKETS_MS
            .iter()
            .position(|&edge| ms <= edge)
            .unwrap_or(LATENCY_BUCKETS_MS.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add((ms * 1e6).round() as u64, Ordering::Relaxed);
        self.observations.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.observations.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = self.observations.load(Ordering::Relaxed);
        let sum_ms = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e6;
        HistogramSnapshot {
            bucket_upper_ms: LATENCY_BUCKETS_MS.to_vec(),
            count,
            sum_ms,
            mean_ms: if count == 0 {
                0.0
            } else {
                sum_ms / count as f64
            },
            p50_ms: percentile_from_counts(&counts, count, 0.50),
            p95_ms: percentile_from_counts(&counts, count, 0.95),
            p99_ms: percentile_from_counts(&counts, count, 0.99),
            counts,
        }
    }
}

/// Estimates a percentile from bucket counts: the upper edge of the
/// bucket containing the target rank (the overflow bucket reports the
/// largest finite edge). Coarse by construction — `loadgen` computes
/// exact percentiles client-side from raw samples; this one exists so
/// `/metrics` can answer without the server retaining per-request state.
fn percentile_from_counts(counts: &[u64], total: u64, p: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = (p * total as f64).ceil() as u64;
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return LATENCY_BUCKETS_MS
                .get(i)
                .copied()
                .unwrap_or(LATENCY_BUCKETS_MS[LATENCY_BUCKETS_MS.len() - 1]);
        }
    }
    LATENCY_BUCKETS_MS[LATENCY_BUCKETS_MS.len() - 1]
}

/// JSON shape of one histogram in `/metrics`. `Deserialize` so the
/// cluster router can scrape shard `/metrics` documents and merge them
/// ([`merge_snapshots`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Upper bucket edges, ms; one extra overflow bucket follows.
    pub bucket_upper_ms: Vec<f64>,
    /// Per-bucket counts (`bucket_upper_ms.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed latencies, ms.
    pub sum_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Bucket-resolution p50, ms.
    pub p50_ms: f64,
    /// Bucket-resolution p95, ms.
    pub p95_ms: f64,
    /// Bucket-resolution p99, ms.
    pub p99_ms: f64,
}

impl HistogramSnapshot {
    /// Adds `other`'s buckets, count and sum; the derived statistics
    /// are stale until [`HistogramSnapshot::rederive`].
    fn absorb(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ms += other.sum_ms;
    }

    /// Recomputes the mean and the bucket-resolution percentiles from
    /// the buckets, count and sum.
    fn rederive(&mut self) {
        self.mean_ms = if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        };
        self.p50_ms = percentile_from_counts(&self.counts, self.count, 0.50);
        self.p95_ms = percentile_from_counts(&self.counts, self.count, 0.95);
        self.p99_ms = percentile_from_counts(&self.counts, self.count, 0.99);
    }
}

/// All counters the server keeps about itself.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    by_route: Mutex<BTreeMap<(&'static str, u16), u64>>,
    total: AtomicU64,
    rejected_429: AtomicU64,
    latency: LatencyHistogram,
    peer_fetch: LatencyHistogram,
    coalesced: AtomicU64,
    started: Option<Instant>,
}

/// Queue-side gauges sampled at render time.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QueueGauges {
    /// Jobs admitted and waiting for a worker.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// Admission-queue capacity.
    pub queue_cap: usize,
    /// Worker threads.
    pub workers: usize,
}

/// The `/metrics` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Requests answered, any route, any status.
    pub requests_total: u64,
    /// Requests rejected with 429 by admission control.
    pub rejected_429_total: u64,
    /// Requests whose response was shared from a concurrent identical
    /// request ("coalesced waiters").
    pub coalesced_total: u64,
    /// Per-`route status` request counts (e.g. `"POST /v1/simulate 200"`).
    pub requests_by_route: BTreeMap<String, u64>,
    /// End-to-end request latency histogram (admission wait included).
    pub latency: HistogramSnapshot,
    /// Wall time of each fetch the trace cache asked peers for (`count`
    /// is the fetches); empty without `--peer-fetch`.
    pub peer_fetch: HistogramSnapshot,
    /// Admission queue gauges.
    pub queue: QueueGauges,
    /// Process-wide trace cache counters, its cluster tier included.
    pub trace_cache: TraceCacheSnapshot,
    /// The daemon's answer memo: requests answered from their bytes.
    pub answer_memo: AnswerMemoStats,
    /// Connection-level I/O gauges from the reactor.
    pub reactor: ReactorSnapshot,
    /// The cluster-topology epoch this member holds (the last topology
    /// a router pushed), or 0 for a standalone daemon. Merging takes
    /// the max, so the merged document reports the newest epoch any
    /// member has seen — tests compare it against the router's.
    pub topology_epoch: u64,
}

/// JSON shape of the reactor's connection gauges in `/metrics`.
/// Counters are cumulative since boot; `conns_*` are point-in-time
/// gauges sampled at render.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReactorSnapshot {
    /// Open connections (any state).
    pub conns_open: u64,
    /// Connections with a request in flight (dispatched or writing).
    pub conns_active: u64,
    /// Open connections idling between keep-alive requests.
    pub conns_idle: u64,
    /// Connections accepted since boot.
    pub accepted_total: u64,
    /// `epoll_wait` returns that carried at least one event.
    pub epoll_wakeups_total: u64,
    /// Reads that left a request incomplete (fragment arrived).
    pub partial_reads_total: u64,
    /// Writes that could not flush a full response (slow client;
    /// backpressure engaged via `EPOLLOUT`).
    pub partial_writes_total: u64,
    /// Accepts refused because the connection cap was reached.
    pub accept_overflows_total: u64,
    /// 503 responses shed at the edge when the connection cap is
    /// reached.
    pub shed_503_total: u64,
    /// Idle keep-alive connections reaped by the timer wheel.
    pub idle_closed_total: u64,
}

/// JSON shape of the trace-cache stats (mirrors
/// [`sparseadapt::trace_cache::CacheStats`] plus the derived hit ratio).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceCacheSnapshot {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that simulated.
    pub misses: u64,
    /// Lookups answered from the disk layer.
    pub disk_hits: u64,
    /// Lookups answered by a trace fetched from a cluster peer.
    pub remote_hits: u64,
    /// Peer fetches that returned nothing usable (the lookup then
    /// simulated, and counts as a miss too).
    pub remote_misses: u64,
    /// Traces published to the shared disk tier.
    pub disk_writes: u64,
    /// Traces evicted by the memory cap.
    pub evictions: u64,
    /// Traces resident in memory.
    pub entries: usize,
    /// Bytes resident in memory.
    pub resident_bytes: usize,
    /// Fraction of lookups answered without simulating, any tier; 0
    /// when idle.
    pub hit_ratio: f64,
}

impl TraceCacheSnapshot {
    /// Recomputes [`TraceCacheSnapshot::hit_ratio`] from the counters.
    fn rederive(&mut self) {
        let answered = self.hits + self.disk_hits + self.remote_hits;
        self.hit_ratio = if answered + self.misses == 0 {
            0.0
        } else {
            answered as f64 / (answered + self.misses) as f64
        };
    }
}

impl From<CacheStats> for TraceCacheSnapshot {
    fn from(s: CacheStats) -> Self {
        let mut snap = TraceCacheSnapshot {
            hits: s.hits,
            misses: s.misses,
            disk_hits: s.disk_hits,
            remote_hits: s.remote_hits,
            remote_misses: s.remote_misses,
            disk_writes: s.disk_writes,
            evictions: s.evictions,
            entries: s.entries,
            resident_bytes: s.resident_bytes,
            hit_ratio: 0.0,
        };
        snap.rederive();
        snap
    }
}

/// Merges per-shard `/metrics` documents into one cluster-wide view:
/// counters and histogram buckets sum, derived statistics (mean,
/// bucket-resolution percentiles, hit ratio) are recomputed from the
/// summed buckets, and `uptime_s` takes the oldest shard. Gauges
/// (queue depth, resident bytes) sum across shards — they describe
/// total cluster capacity in flight, not any single process.
pub fn merge_snapshots(snaps: &[MetricsSnapshot]) -> Option<MetricsSnapshot> {
    let first = snaps.first()?;
    let mut merged = first.clone();
    for s in &snaps[1..] {
        merged.uptime_s = merged.uptime_s.max(s.uptime_s);
        merged.requests_total += s.requests_total;
        merged.rejected_429_total += s.rejected_429_total;
        merged.coalesced_total += s.coalesced_total;
        for (route, n) in &s.requests_by_route {
            *merged.requests_by_route.entry(route.clone()).or_insert(0) += n;
        }
        merged.latency.absorb(&s.latency);
        merged.peer_fetch.absorb(&s.peer_fetch);
        merged.queue.queue_depth += s.queue.queue_depth;
        merged.queue.in_flight += s.queue.in_flight;
        merged.queue.queue_cap += s.queue.queue_cap;
        merged.queue.workers += s.queue.workers;
        let c = &mut merged.trace_cache;
        c.hits += s.trace_cache.hits;
        c.misses += s.trace_cache.misses;
        c.disk_hits += s.trace_cache.disk_hits;
        c.remote_hits += s.trace_cache.remote_hits;
        c.remote_misses += s.trace_cache.remote_misses;
        c.disk_writes += s.trace_cache.disk_writes;
        c.evictions += s.trace_cache.evictions;
        c.entries += s.trace_cache.entries;
        c.resident_bytes += s.trace_cache.resident_bytes;
        let a = &mut merged.answer_memo;
        a.hits += s.answer_memo.hits;
        a.fills += s.answer_memo.fills;
        a.evictions += s.answer_memo.evictions;
        a.resident_bytes += s.answer_memo.resident_bytes;
        let r = &mut merged.reactor;
        r.conns_open += s.reactor.conns_open;
        r.conns_active += s.reactor.conns_active;
        r.conns_idle += s.reactor.conns_idle;
        r.accepted_total += s.reactor.accepted_total;
        r.epoll_wakeups_total += s.reactor.epoll_wakeups_total;
        r.partial_reads_total += s.reactor.partial_reads_total;
        r.partial_writes_total += s.reactor.partial_writes_total;
        r.accept_overflows_total += s.reactor.accept_overflows_total;
        r.shed_503_total += s.reactor.shed_503_total;
        r.idle_closed_total += s.reactor.idle_closed_total;
        merged.topology_epoch = merged.topology_epoch.max(s.topology_epoch);
    }
    merged.latency.rederive();
    merged.peer_fetch.rederive();
    merged.trace_cache.rederive();
    Some(merged)
}

impl ServerMetrics {
    /// Fresh counters; the uptime clock starts now.
    pub fn new() -> Self {
        ServerMetrics {
            started: Some(Instant::now()),
            ..ServerMetrics::default()
        }
    }

    /// Records one answered request. A poisoned lock is recovered: each
    /// update leaves the map valid, and this runs from the `Drop` of an
    /// unanswered [`crate::reactor::Reply`], which must not panic.
    pub fn record(&self, route: &'static str, status: u16, latency_ms: f64) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if status == 429 {
            self.rejected_429.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.observe_ms(latency_ms);
        let mut map = self.by_route.lock().unwrap_or_else(PoisonError::into_inner);
        *map.entry((route, status)).or_insert(0) += 1;
    }

    /// Records a request whose response was coalesced off a concurrent
    /// identical request.
    pub fn record_coalesced(&self) {
        self.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the wall time of one fetch the trace cache's cluster
    /// tier sent to peers ([`crate::peer_tier`]).
    pub fn record_peer_fetch(&self, ms: f64) {
        self.peer_fetch.observe_ms(ms);
    }

    /// Requests rejected by admission control so far.
    pub fn rejected_429_total(&self) -> u64 {
        self.rejected_429.load(Ordering::Relaxed)
    }

    /// Builds the `/metrics` document from the counters plus the gauges
    /// sampled now.
    pub fn snapshot(
        &self,
        queue: QueueGauges,
        cache: CacheStats,
        answers: AnswerMemoStats,
        reactor: ReactorSnapshot,
    ) -> MetricsSnapshot {
        let by_route = self
            .by_route
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|((route, status), n)| (format!("{route} {status}"), *n))
            .collect();
        MetricsSnapshot {
            uptime_s: self.started.map_or(0.0, |t| t.elapsed().as_secs_f64()),
            requests_total: self.total.load(Ordering::Relaxed),
            rejected_429_total: self.rejected_429.load(Ordering::Relaxed),
            coalesced_total: self.coalesced.load(Ordering::Relaxed),
            requests_by_route: by_route,
            latency: self.latency.snapshot(),
            peer_fetch: self.peer_fetch.snapshot(),
            queue,
            trace_cache: cache.into(),
            answer_memo: answers,
            reactor,
            // Stamped by the caller (`handlers::metrics`) from the
            // member's held topology; the counters know nothing of it.
            topology_epoch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauges() -> QueueGauges {
        QueueGauges {
            queue_depth: 3,
            in_flight: 2,
            queue_cap: 64,
            workers: 4,
        }
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = LatencyHistogram::default();
        for _ in 0..98 {
            h.observe_ms(0.2); // bucket 0 (<= 0.25)
        }
        h.observe_ms(30.0); // <= 32
        h.observe_ms(2000.0); // <= 4096
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.counts[0], 98);
        assert_eq!(s.p50_ms, 0.25);
        assert_eq!(s.p95_ms, 0.25);
        assert_eq!(s.p99_ms, 32.0);
        assert!((s.mean_ms - s.sum_ms / 100.0).abs() < 1e-9);
    }

    #[test]
    fn sub_microsecond_latencies_still_add_to_the_sum() {
        let h = LatencyHistogram::default();
        for _ in 0..1000 {
            h.observe_ms(0.0004);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert!((s.sum_ms - 0.4).abs() < 1e-9, "sum_ms = {}", s.sum_ms);
        assert!(
            (s.mean_ms - 0.0004).abs() < 1e-12,
            "mean_ms = {}",
            s.mean_ms
        );
    }

    #[test]
    fn overflow_bucket_catches_huge_latencies() {
        let h = LatencyHistogram::default();
        h.observe_ms(1e6);
        let s = h.snapshot();
        assert_eq!(*s.counts.last().unwrap(), 1);
        assert_eq!(s.p99_ms, LATENCY_BUCKETS_MS[LATENCY_BUCKETS_MS.len() - 1]);
    }

    #[test]
    fn snapshot_aggregates_routes_and_429s() {
        let m = ServerMetrics::new();
        m.record("POST /v1/simulate", 200, 5.0);
        m.record("POST /v1/simulate", 200, 7.0);
        m.record("POST /v1/simulate", 429, 0.1);
        m.record("GET /metrics", 200, 0.2);
        m.record_coalesced();
        let s = m.snapshot(
            gauges(),
            CacheStats::default(),
            AnswerMemoStats::default(),
            ReactorSnapshot::default(),
        );
        assert_eq!(s.requests_total, 4);
        assert_eq!(s.rejected_429_total, 1);
        assert_eq!(s.coalesced_total, 1);
        assert_eq!(s.requests_by_route["POST /v1/simulate 200"], 2);
        assert_eq!(s.requests_by_route["POST /v1/simulate 429"], 1);
        assert_eq!(s.requests_by_route["GET /metrics 200"], 1);
        assert_eq!(s.latency.count, 4);
        // The snapshot serializes (the /metrics handler relies on it).
        let json = serde_json::to_string(&s).expect("serializes");
        assert!(json.contains("\"hit_ratio\""));
    }

    #[test]
    fn merged_snapshots_sum_counters_and_recompute_percentiles() {
        let a = ServerMetrics::new();
        for _ in 0..90 {
            a.record("POST /v1/simulate", 200, 0.2);
        }
        let b = ServerMetrics::new();
        for _ in 0..10 {
            b.record("POST /v1/simulate", 200, 30.0);
        }
        b.record("POST /v1/simulate", 429, 0.1);
        let mut snap_a = a.snapshot(
            gauges(),
            CacheStats::default(),
            AnswerMemoStats::default(),
            ReactorSnapshot::default(),
        );
        snap_a.reactor.conns_open = 100;
        snap_a.reactor.shed_503_total = 3;
        snap_a.topology_epoch = 3;
        snap_a.answer_memo = AnswerMemoStats {
            hits: 40,
            fills: 4,
            evictions: 1,
            resident_bytes: 900,
        };
        let mut snap_b = b.snapshot(
            gauges(),
            CacheStats::default(),
            AnswerMemoStats::default(),
            ReactorSnapshot::default(),
        );
        snap_b.reactor.conns_open = 50;
        snap_b.reactor.epoll_wakeups_total = 7;
        snap_b.topology_epoch = 5;
        snap_b.answer_memo.hits = 2;
        snap_b.answer_memo.fills = 3;
        snap_b.answer_memo.resident_bytes = 600;
        let snaps = [snap_a, snap_b];
        let m = merge_snapshots(&snaps).expect("non-empty");
        assert_eq!(m.reactor.conns_open, 150);
        assert_eq!(m.reactor.shed_503_total, 3);
        assert_eq!(m.reactor.epoll_wakeups_total, 7);
        assert_eq!(
            m.answer_memo,
            AnswerMemoStats {
                hits: 42,
                fills: 7,
                evictions: 1,
                resident_bytes: 1_500,
            }
        );
        assert_eq!(m.requests_total, 101);
        assert_eq!(m.rejected_429_total, 1);
        assert_eq!(m.requests_by_route["POST /v1/simulate 200"], 100);
        assert_eq!(m.latency.count, 101);
        // 90 of 101 at <=0.25ms, so p50 sits in the first bucket and p95
        // lands where shard b's slow requests are.
        assert_eq!(m.latency.p50_ms, 0.25);
        assert_eq!(m.latency.p95_ms, 32.0);
        assert_eq!(m.queue.workers, 8);
        // Epochs take the max, not the sum: the merged view reports the
        // newest topology any member holds.
        assert_eq!(m.topology_epoch, 5);
        // The merged document round-trips through JSON the same way a
        // scraped shard document does.
        let json = serde_json::to_string(&m).expect("serializes");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.requests_total, 101);
        assert_eq!(back.latency.counts, m.latency.counts);
        assert_eq!(back.answer_memo, m.answer_memo);
    }

    #[test]
    fn merging_nothing_yields_none() {
        assert!(merge_snapshots(&[]).is_none());
    }

    #[test]
    fn hit_ratio_is_derived_from_cache_stats() {
        let cache = CacheStats {
            hits: 6,
            misses: 2,
            disk_hits: 2,
            ..CacheStats::default()
        };
        let snap: TraceCacheSnapshot = cache.into();
        assert!((snap.hit_ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn trace_hit_ratios_stay_within_one_and_peer_fetches_merge() {
        let snapshot = |cache, fetch_ms: &[f64]| {
            let m = ServerMetrics::new();
            for &ms in fetch_ms {
                m.record_peer_fetch(ms);
            }
            m.snapshot(
                gauges(),
                cache,
                AnswerMemoStats::default(),
                ReactorSnapshot::default(),
            )
        };
        // A cold shard simulated four traces; a peer-warm one fetched
        // them, after one fetch that missed and simulated.
        let cold = snapshot(
            CacheStats {
                misses: 4,
                ..CacheStats::default()
            },
            &[],
        );
        let warm = snapshot(
            CacheStats {
                remote_hits: 4,
                remote_misses: 1,
                misses: 1,
                ..CacheStats::default()
            },
            &[0.2, 0.3, 0.4, 3.0, 30.0],
        );
        assert_eq!(cold.trace_cache.hit_ratio, 0.0);
        assert_eq!(warm.trace_cache.hit_ratio, 0.8);
        assert_eq!(warm.peer_fetch.count, 5);
        assert_eq!(warm.peer_fetch.p50_ms, 0.5);
        let m = merge_snapshots(&[cold, warm.clone(), warm]).expect("non-empty");
        let c = &m.trace_cache;
        assert_eq!((c.remote_hits, c.remote_misses, c.misses), (8, 2, 6));
        assert_eq!(c.hit_ratio, 8.0 / 14.0);
        assert_eq!(m.peer_fetch.count, 10);
        assert_eq!(m.peer_fetch.counts[0], 2, "two fetches of at most 0.25 ms");
        assert!((m.peer_fetch.mean_ms - 33.9 / 5.0).abs() < 1e-9);
        assert_eq!(m.peer_fetch.p95_ms, 32.0);
    }
}
