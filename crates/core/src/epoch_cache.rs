//! Epoch-granular simulation memoization: a process-wide cache of
//! `(workload, machine, config, epoch, entry-state)` →
//! `(epoch record, exit machine state)`, with up to three tiers:
//! in-process memory, per-host disk, and (optionally) the rest of the
//! cluster.
//!
//! The [`crate::trace_cache`] memoises whole runs; this cache memoises
//! *epochs*, which is what makes reuse possible **across schemes**: a
//! static sweep and a live controller run share every epoch up to the
//! first point their configuration decisions diverge. The key includes a
//! digest of the machine state entering the epoch
//! ([`MachineState::digest`]), so a hit is sound by construction — two
//! runs arriving at an epoch with the same entry state, configuration,
//! workload and machine execute that epoch bit-identically (the
//! simulator is deterministic and controllers act only at boundaries).
//! Content addressing is also what makes the *remote* tier sound: the
//! key pins every input of the epoch, and every encoded blob carries the
//! key it was stored under, which decoding checks against the key that
//! was asked for. So remote (and disk) bytes either decode to the one
//! correct answer or are rejected as a miss — a well-formed blob for a
//! *different* key included.
//!
//! Structure mirrors the trace cache where the problems are the same:
//! a mutex-guarded map with an LRU byte budget in memory, and an
//! optional best-effort disk tier (one file per epoch, `b"SAEP"` magic,
//! checksummed) that reuses the [`crate::trace_bin`] record framing for
//! the epoch record and [`MachineState::to_bytes`] for the snapshot.
//! Disk publishes are write-to-temporary + atomic rename, so concurrent
//! processes sharing a cache directory never observe a torn file; keys
//! are content fingerprints, so racing writers produce identical bytes
//! and the last rename simply wins. A file that fails to decode —
//! truncated, bit-flipped, or written by a different codec version — is
//! *quarantined* (renamed aside) and read as a miss, never as a corrupt
//! restore.
//!
//! The remote tier is pluggable: a [`RemoteFetcher`] installed via
//! [`EpochCache::set_remote`] is consulted after a memory + disk miss,
//! under a strict latency budget — the hot simulation path falls back
//! to computing the epoch whenever the budget expires, so it can never
//! stall on the network. Negative lookups are suppressed (a key that
//! just missed remotely is not asked for again), concurrent fetches are
//! bounded, and remotely-sourced entries live under their own byte
//! quota with LRU eviction so a chatty peer cannot evict the local
//! working set.
//!
//! The cache is *disabled* by default — sweeps and live runs consult it
//! only after [`EpochCache::set_enabled`]`(true)` (the `--epoch-cache`
//! CLI flag). The frozen reference simulation path never consults it,
//! keeping an independent witness for differential tests.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use fxhash::{FxHashMap, FxHashSet};
use transmuter::config::{MachineSpec, TransmuterConfig};
use transmuter::machine::{
    CachedEpoch, CachedSegment, EpochBoundary, EpochHook, EpochRecord, Machine, MachineState,
};
use transmuter::workload::Workload;

use crate::trace_bin;
use crate::trace_cache::write_then_rename;

/// Full identity of one cached epoch. The first three components name
/// the run family (machine × workload × configuration *active for this
/// epoch*); the last two pin the epoch's position and the machine state
/// entering it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpochKey {
    /// [`MachineSpec::fingerprint`] of the machine.
    pub spec: u64,
    /// [`Workload::fingerprint`](Workload::fingerprint) of the workload.
    pub workload: u64,
    /// [`TransmuterConfig::fingerprint`] of the configuration the epoch
    /// executes under.
    pub config: u64,
    /// Epoch index within the run.
    pub index: u64,
    /// [`MachineState::digest`] of the state entering the epoch.
    pub entry_digest: u64,
}

impl EpochKey {
    fn file_name(&self) -> String {
        format!(
            "epoch-{:016x}-{:016x}-{:016x}-{:06}-{:016x}.bin",
            self.spec, self.workload, self.config, self.index, self.entry_digest
        )
    }

    /// The wire form of the key: five fixed-width hex fields joined by
    /// `-`, safe in a URL path segment. This is the `{key}` of the
    /// shard-to-shard `GET /v2/cache/epoch/{key}` protocol.
    pub fn token(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}-{:016x}-{:016x}",
            self.spec, self.workload, self.config, self.index, self.entry_digest
        )
    }

    /// Inverse of [`EpochKey::token`]; `None` on anything that is not
    /// exactly five `-`-separated hex fields.
    pub fn parse_token(s: &str) -> Option<EpochKey> {
        let mut parts = s.split('-');
        let mut next = || u64::from_str_radix(parts.next()?, 16).ok();
        let key = EpochKey {
            spec: next()?,
            workload: next()?,
            config: next()?,
            index: next()?,
            entry_digest: next()?,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(key)
    }
}

struct Entry {
    epoch: Arc<CachedEpoch>,
    /// Logical timestamp of the most recent lookup (LRU order).
    last_use: u64,
    bytes: usize,
    /// Whether the entry arrived from a peer (remote fetch or warm
    /// push) rather than local simulation or disk. Remote entries are
    /// accounted against [`RemoteConfig::quota_bytes`] and evicted
    /// among themselves first.
    remote: bool,
}

#[derive(Default)]
struct Inner {
    map: FxHashMap<EpochKey, Entry>,
    clock: u64,
    resident: usize,
    remote_resident: usize,
    cap: Option<usize>,
}

/// Approximate heap footprint of one resident epoch, for the memory
/// cap. Dominated by the exit snapshot (cache bank line arrays).
fn epoch_bytes(e: &CachedEpoch) -> usize {
    std::mem::size_of::<CachedEpoch>() + e.exit.approx_heap_bytes()
}

/// How many recently-missed remote keys are remembered for negative-
/// lookup suppression before the set resets wholesale.
const NEGATIVE_CAP: usize = 8192;

/// How many recent remote-fetch latency samples back the percentile
/// estimates in [`EpochCacheStats`]; older samples are overwritten
/// ring-buffer style.
const FETCH_SAMPLE_CAP: usize = 4096;

/// Most epochs one [`EpochCache::export_segment`] response may carry;
/// also clamps [`RemoteConfig::chain`]. Bounds a single response to a
/// sane size however large the peer's cache is.
pub const CHAIN_CAP: usize = 512;

/// A pluggable cluster tier: given a key and a latency budget, return
/// the encoded epoch bytes or `None`.
///
/// `chain` selects the response format. `chain == 1` asks for one bare
/// [`encode_epoch`] blob for the key. `chain > 1` asks the peer to
/// follow the content-addressed digest chain from the key and answer
/// with one [`encode_segment`] blob — records for up to `chain`
/// consecutive epochs plus the final exit state — collapsing one
/// network round trip (and one full `MachineState`) per epoch into one
/// per run.
///
/// Implementations must treat `budget` as a hard deadline — the caller
/// sits on the hot simulation path and falls back to computing the
/// epoch as soon as `fetch` returns. Returning corrupt bytes is safe
/// (they fail decoding and read as a miss) but wasteful.
pub trait RemoteFetcher: Send + Sync {
    /// Fetches the encoded epoch for `key` (`chain == 1`) or the
    /// encoded segment of up to `chain` epochs starting at `key`,
    /// spending at most `budget`.
    fn fetch(&self, key: &EpochKey, budget: Duration, chain: usize) -> Option<Vec<u8>>;
}

/// Tuning knobs of the remote tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteConfig {
    /// Hard latency budget per fetch; expiry falls back to computing
    /// the epoch.
    pub budget: Duration,
    /// Maximum concurrent fetches; lookups beyond it skip the remote
    /// tier instead of queueing.
    pub max_inflight: u64,
    /// Byte quota for remotely-sourced entries resident in memory; LRU
    /// eviction among remote entries keeps the local working set safe.
    pub quota_bytes: usize,
    /// Epochs requested per fetch (the looked-up key plus its
    /// successors); clamped to [`CHAIN_CAP`]. `1` disables chaining.
    pub chain: usize,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            budget: Duration::from_millis(25),
            max_inflight: 8,
            quota_bytes: 64 << 20,
            chain: 256,
        }
    }
}

/// Counter snapshot from [`EpochCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochCacheStats {
    /// Boundary lookups observed.
    pub lookups: u64,
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups answered by loading an epoch from the disk tier.
    pub disk_hits: u64,
    /// Lookups answered by fetching an epoch from a peer.
    pub remote_hits: u64,
    /// Fresh epochs recorded (cache misses that simulated).
    pub inserts: u64,
    /// Epochs dropped to stay under the memory cap.
    pub evictions: u64,
    /// Epochs published to the disk tier by this process.
    pub disk_writes: u64,
    /// Corrupt/unreadable disk entries quarantined (renamed aside and
    /// treated as misses).
    pub disk_quarantined: u64,
    /// Remote fetches that returned nothing (or undecodable bytes).
    pub remote_misses: u64,
    /// Extra epochs admitted by chained prefetch, beyond the one each
    /// remote hit was asked for. These turn later boundary lookups into
    /// memory hits without their own round trips.
    pub remote_chain_entries: u64,
    /// Bytes received from peers by remote fetches.
    pub remote_bytes: u64,
    /// Total wall time spent in remote fetches, microseconds.
    pub remote_fetch_us: u64,
    /// Remote lookups suppressed because the key recently missed.
    pub remote_negative_suppressed: u64,
    /// Remote lookups skipped because the in-flight fetch cap was hit.
    pub remote_inflight_skipped: u64,
    /// Remote-sourced epochs evicted by the remote byte quota.
    pub remote_evictions: u64,
    /// Warm-push entries sent to peers (recorded by the pusher via
    /// [`EpochCache::note_push_sent`]).
    pub push_sent: u64,
    /// Bytes sent in warm pushes.
    pub push_bytes_sent: u64,
    /// Warm-push entries accepted from peers ([`EpochCache::import`]).
    pub push_received: u64,
    /// Bytes accepted in warm pushes.
    pub push_bytes_received: u64,
    /// Distinct epochs currently held in memory.
    pub entries: usize,
    /// Accounted bytes of in-memory epochs.
    pub resident_bytes: usize,
    /// Remote-sourced epochs currently held in memory.
    pub remote_entries: usize,
    /// Accounted bytes of remote-sourced in-memory epochs.
    pub remote_resident_bytes: usize,
    /// Remote-fetch latency p50 over the recent sample window, ms.
    pub remote_fetch_p50_ms: f64,
    /// Remote-fetch latency p95 over the recent sample window, ms.
    pub remote_fetch_p95_ms: f64,
}

impl EpochCacheStats {
    /// Fraction of lookups answered without simulating (any tier).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.hits + self.disk_hits + self.remote_hits) as f64 / self.lookups as f64
        }
    }

    /// Fraction of attempted remote fetches that hit.
    pub fn remote_hit_rate(&self) -> f64 {
        let attempts = self.remote_hits + self.remote_misses;
        if attempts == 0 {
            0.0
        } else {
            self.remote_hits as f64 / attempts as f64
        }
    }
}

/// The epoch cache. Use [`EpochCache::global`] to share across every
/// sweep and live run in the process.
#[derive(Default)]
pub struct EpochCache {
    inner: Mutex<Inner>,
    disk_dir: Mutex<Option<PathBuf>>,
    remote: Mutex<Option<Arc<dyn RemoteFetcher>>>,
    remote_cfg: Mutex<Option<RemoteConfig>>,
    negative: Mutex<FxHashSet<EpochKey>>,
    fetch_samples: Mutex<Vec<u64>>,
    inflight: AtomicU64,
    enabled: AtomicBool,
    lookups: AtomicU64,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    remote_hits: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    disk_writes: AtomicU64,
    disk_quarantined: AtomicU64,
    remote_misses: AtomicU64,
    remote_chain_entries: AtomicU64,
    remote_bytes: AtomicU64,
    remote_fetch_us: AtomicU64,
    remote_negative_suppressed: AtomicU64,
    remote_inflight_skipped: AtomicU64,
    remote_evictions: AtomicU64,
    push_sent: AtomicU64,
    push_bytes_sent: AtomicU64,
    push_received: AtomicU64,
    push_bytes_received: AtomicU64,
}

impl std::fmt::Debug for EpochCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCache")
            .field("enabled", &self.is_enabled())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl EpochCache {
    /// An empty, disabled cache (tests; production code wants
    /// [`EpochCache::global`]).
    pub fn new() -> Self {
        EpochCache::default()
    }

    /// The process-wide cache instance.
    pub fn global() -> &'static EpochCache {
        static GLOBAL: OnceLock<EpochCache> = OnceLock::new();
        GLOBAL.get_or_init(EpochCache::new)
    }

    /// Turns the cache on or off. Off (the default) makes every sweep
    /// and live run simulate unhooked, exactly as before the cache
    /// existed.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether sweeps and live runs should consult the cache.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Bounds the resident set to `cap` bytes (`None` = unbounded, the
    /// default). Takes effect immediately.
    pub fn set_memory_cap(&self, cap: Option<usize>) {
        let mut inner = self.inner.lock().expect("epoch cache lock");
        inner.cap = cap;
        self.enforce_cap(&mut inner);
    }

    /// Enables (or disables, with `None`) the on-disk tier. The
    /// directory is created if missing; per-epoch I/O errors are treated
    /// as misses.
    pub fn set_disk_dir(&self, dir: Option<PathBuf>) {
        if let Some(d) = &dir {
            if let Err(e) = std::fs::create_dir_all(d) {
                eprintln!(
                    "warning: epoch cache dir {} is unusable ({e}); running without disk tier",
                    d.display()
                );
            }
        }
        *self.disk_dir.lock().expect("epoch disk_dir lock") = dir;
    }

    /// Installs (or removes, with `None`) the cluster tier. With a
    /// fetcher installed, memory + disk misses consult peers under the
    /// configured budget before falling back to simulation.
    pub fn set_remote(&self, fetcher: Option<Arc<dyn RemoteFetcher>>) {
        *self.remote.lock().expect("epoch remote lock") = fetcher;
    }

    /// Tunes the remote tier (budget, in-flight cap, byte quota).
    pub fn set_remote_config(&self, cfg: RemoteConfig) {
        *self.remote_cfg.lock().expect("epoch remote cfg lock") = Some(cfg);
    }

    /// The remote tier's active tuning.
    pub fn remote_config(&self) -> RemoteConfig {
        self.remote_cfg
            .lock()
            .expect("epoch remote cfg lock")
            .unwrap_or_default()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> EpochCacheStats {
        let (entries, resident, remote_entries, remote_resident) = {
            let inner = self.inner.lock().expect("epoch cache lock");
            let remote_entries = inner.map.values().filter(|e| e.remote).count();
            (
                inner.map.len(),
                inner.resident,
                remote_entries,
                inner.remote_resident,
            )
        };
        let (p50, p95) = {
            let samples = self.fetch_samples.lock().expect("epoch samples lock");
            let mut sorted: Vec<u64> = samples.clone();
            sorted.sort_unstable();
            let pick = |p: f64| -> f64 {
                if sorted.is_empty() {
                    return 0.0;
                }
                let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                sorted[rank - 1] as f64 / 1000.0
            };
            (pick(0.50), pick(0.95))
        };
        EpochCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            disk_quarantined: self.disk_quarantined.load(Ordering::Relaxed),
            remote_misses: self.remote_misses.load(Ordering::Relaxed),
            remote_chain_entries: self.remote_chain_entries.load(Ordering::Relaxed),
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
            remote_fetch_us: self.remote_fetch_us.load(Ordering::Relaxed),
            remote_negative_suppressed: self.remote_negative_suppressed.load(Ordering::Relaxed),
            remote_inflight_skipped: self.remote_inflight_skipped.load(Ordering::Relaxed),
            remote_evictions: self.remote_evictions.load(Ordering::Relaxed),
            push_sent: self.push_sent.load(Ordering::Relaxed),
            push_bytes_sent: self.push_bytes_sent.load(Ordering::Relaxed),
            push_received: self.push_received.load(Ordering::Relaxed),
            push_bytes_received: self.push_bytes_received.load(Ordering::Relaxed),
            entries,
            resident_bytes: resident,
            remote_entries,
            remote_resident_bytes: remote_resident,
            remote_fetch_p50_ms: p50,
            remote_fetch_p95_ms: p95,
        }
    }

    /// Drops every in-memory epoch and zeroes the counters (the disk
    /// tier, if any, is left untouched). The enabled flag, cap, and
    /// remote tier installation are kept.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("epoch cache lock");
        inner.map.clear();
        inner.resident = 0;
        inner.remote_resident = 0;
        inner.clock = 0;
        drop(inner);
        self.negative.lock().expect("epoch negative lock").clear();
        self.fetch_samples
            .lock()
            .expect("epoch samples lock")
            .clear();
        for counter in [
            &self.lookups,
            &self.hits,
            &self.disk_hits,
            &self.remote_hits,
            &self.inserts,
            &self.evictions,
            &self.disk_writes,
            &self.disk_quarantined,
            &self.remote_misses,
            &self.remote_chain_entries,
            &self.remote_bytes,
            &self.remote_fetch_us,
            &self.remote_negative_suppressed,
            &self.remote_inflight_skipped,
            &self.remote_evictions,
            &self.push_sent,
            &self.push_bytes_sent,
            &self.push_received,
            &self.push_bytes_received,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Looks up one epoch, consulting memory, then disk, then (when a
    /// [`RemoteFetcher`] is installed) the cluster. Disk and remote
    /// hits are promoted into memory.
    pub fn lookup(&self, key: &EpochKey) -> Option<Arc<CachedEpoch>> {
        self.lookup_gated(key, &mut true)
    }

    /// [`Self::lookup`] with a per-run gate on the cluster tier:
    /// `*remote_ok` is cleared on the first remote miss, so a cold run
    /// pays one peer probe instead of one per epoch boundary. This is
    /// sound to do because chained prefetch means a remote *hit* warms
    /// every later boundary the peer knows about — so the first miss
    /// tells us the peers have nothing more for this run.
    pub fn lookup_gated(&self, key: &EpochKey, remote_ok: &mut bool) -> Option<Arc<CachedEpoch>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = self.inner.lock().expect("epoch cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(key) {
                entry.last_use = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry.epoch.clone());
            }
        }
        if let Some(epoch) = self.disk_load(key) {
            let epoch = Arc::new(epoch);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.admit(*key, epoch.clone(), false);
            return Some(epoch);
        }
        if !*remote_ok {
            return None;
        }
        let fetched = self.remote_lookup(key);
        if fetched.is_none() {
            *remote_ok = false;
        }
        fetched
    }

    /// The cluster tier, one epoch at a time: budgeted fetch-on-miss
    /// with negative-lookup suppression and a bounded in-flight fetch
    /// count. Every failure mode — no fetcher, suppressed, over the
    /// cap, budget expired, undecodable bytes — is a miss, and the
    /// caller simulates.
    fn remote_lookup(&self, key: &EpochKey) -> Option<Arc<CachedEpoch>> {
        let fetched = self.fetch_guarded(key, 1)?;
        let Some(epoch) = fetched.and_then(|bytes| decode_epoch(&bytes, key).ok()) else {
            self.remote_misses.fetch_add(1, Ordering::Relaxed);
            self.note_negative(*key);
            return None;
        };
        self.remote_hits.fetch_add(1, Ordering::Relaxed);
        let epoch = Arc::new(epoch);
        // Write-through to the local disk tier: the next process on
        // this host should not re-fetch what we already paid for.
        self.disk_store(key, &epoch);
        self.admit(*key, epoch.clone(), true);
        Some(epoch)
    }

    /// The cluster tier, whole-segment variant backing
    /// [`EpochCacheHook::lookup_segment`]: one budgeted fetch asks a
    /// peer to follow the digest chain from `key` and answer with
    /// records for every consecutive epoch it holds plus the final exit
    /// state ([`encode_segment`]). The last epoch — the only one whose
    /// full state arrives — is admitted locally; the rest fast-forward
    /// this run and cost nothing to keep. `None` is a miss and the
    /// caller simulates.
    pub fn remote_segment(&self, key: &EpochKey) -> Option<CachedSegment> {
        let chain = self.remote_config().chain.clamp(1, CHAIN_CAP);
        if chain < 2 {
            // Chaining disabled: the per-epoch path is the whole tier.
            return None;
        }
        let fetched = self.fetch_guarded(key, chain)?;
        let decoded = fetched.and_then(|bytes| decode_fetched_segment(&bytes, key));
        let Some((segment, digests)) = decoded else {
            self.remote_misses.fetch_add(1, Ordering::Relaxed);
            self.note_negative(*key);
            return None;
        };
        self.remote_hits.fetch_add(1, Ordering::Relaxed);
        self.remote_chain_entries
            .fetch_add(segment.records.len() as u64 - 1, Ordering::Relaxed);
        // Admit the last epoch under its derived key: entry digest of
        // epoch i is the exit digest of epoch i-1 (the requested key's
        // own entry digest for a length-1 segment).
        let n = segment.records.len();
        let last_key = EpochKey {
            index: key.index + (n as u64 - 1),
            entry_digest: if n >= 2 {
                digests[n - 2]
            } else {
                key.entry_digest
            },
            ..*key
        };
        let last = Arc::new(CachedEpoch {
            record: segment.records[n - 1].clone(),
            exit: segment.exit.clone(),
        });
        self.disk_store(&last_key, &last);
        self.admit(last_key, last, true);
        Some(segment)
    }

    /// Shared plumbing of the remote lookups: resolves the fetcher,
    /// applies negative-lookup suppression and the in-flight cap, times
    /// the fetch, and accounts received bytes. The outer `Option` is
    /// `None` when no fetch was attempted at all (no fetcher installed,
    /// suppressed, or over the cap); the inner one is the fetch result.
    #[allow(clippy::option_option)]
    fn fetch_guarded(&self, key: &EpochKey, chain: usize) -> Option<Option<Vec<u8>>> {
        let fetcher = self.remote.lock().expect("epoch remote lock").clone()?;
        let cfg = self.remote_config();
        if self
            .negative
            .lock()
            .expect("epoch negative lock")
            .contains(key)
        {
            self.remote_negative_suppressed
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cfg.max_inflight).then_some(n + 1)
            })
            .is_err()
        {
            self.remote_inflight_skipped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let started = Instant::now();
        let fetched = fetcher.fetch(key, cfg.budget, chain);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        let elapsed_us = started.elapsed().as_micros() as u64;
        self.remote_fetch_us
            .fetch_add(elapsed_us, Ordering::Relaxed);
        {
            let mut samples = self.fetch_samples.lock().expect("epoch samples lock");
            if samples.len() < FETCH_SAMPLE_CAP {
                samples.push(elapsed_us);
            } else {
                let total = self.remote_hits.load(Ordering::Relaxed)
                    + self.remote_misses.load(Ordering::Relaxed);
                samples[total as usize % FETCH_SAMPLE_CAP] = elapsed_us;
            }
        }
        if let Some(bytes) = &fetched {
            self.remote_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        Some(fetched)
    }

    fn note_negative(&self, key: EpochKey) {
        let mut negative = self.negative.lock().expect("epoch negative lock");
        if negative.len() >= NEGATIVE_CAP {
            // Wholesale reset beats tracking per-entry age: the set is
            // a rate limiter, not a source of truth.
            negative.clear();
        }
        negative.insert(key);
    }

    /// Records a freshly simulated epoch in the memory and disk tiers.
    pub fn insert(&self, key: EpochKey, epoch: CachedEpoch) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let epoch = Arc::new(epoch);
        self.disk_store(&key, &epoch);
        self.admit(key, epoch, false);
    }

    /// Serialises one cached epoch for a peer: from memory if resident,
    /// else verbatim disk bytes (validated before shipping — corrupt
    /// files are quarantined, not served).
    pub fn export(&self, key: &EpochKey) -> Option<Vec<u8>> {
        {
            let inner = self.inner.lock().expect("epoch cache lock");
            if let Some(entry) = inner.map.get(key) {
                return Some(encode_epoch(key, &entry.epoch));
            }
        }
        let path = self.disk_path(key)?;
        let bytes = std::fs::read(&path).ok()?;
        match decode_epoch(&bytes, key) {
            Ok(_) => Some(bytes),
            Err(_) => {
                self.quarantine(&path);
                None
            }
        }
    }

    /// Serialises `key` and up to `max - 1` of its successors as one
    /// compact segment ([`encode_segment`]): every epoch's record and
    /// exit digest, but only the *last* epoch's full exit state. Each
    /// successor key is derived from the previous epoch's exit state —
    /// the same digest chain the simulator walks — so one response
    /// fast-forwards the requester through the whole stretch this shard
    /// holds, at a fraction of the bytes of one full [`MachineState`]
    /// per epoch. The walk stops at the first key this shard doesn't
    /// hold (for adaptive runs, also where the requester's configuration
    /// trajectory diverges); `None` when even `key` itself is absent.
    pub fn export_segment(&self, key: &EpochKey, max: usize) -> Option<Vec<u8>> {
        let max = max.clamp(1, CHAIN_CAP);
        let mut records = Vec::new();
        let mut digests = Vec::new();
        let mut last: Option<Arc<CachedEpoch>> = None;
        let mut k = *key;
        while records.len() < max {
            let Some(epoch) = self.peek(&k) else { break };
            records.push(epoch.record.clone());
            digests.push(epoch.exit.digest());
            k = successor_key(&k, &epoch.exit);
            last = Some(epoch);
        }
        let exit = &last?.exit;
        Some(encode_segment(key, &records, &digests, exit))
    }

    /// Whether `key` is held locally (resident or on disk), without
    /// touching counters, the LRU clock, or the bytes themselves. Used
    /// to decide if a segment fetch is worth a round trip.
    fn has_local(&self, key: &EpochKey) -> bool {
        {
            let inner = self.inner.lock().expect("epoch cache lock");
            if inner.map.contains_key(key) {
                return true;
            }
        }
        self.disk_path(key)
            .is_some_and(|p| std::fs::metadata(p).is_ok())
    }

    /// A decoded view of one entry, memory first then disk, without
    /// touching the hit counters or LRU clock (peer exports are not
    /// local cache traffic).
    fn peek(&self, key: &EpochKey) -> Option<Arc<CachedEpoch>> {
        {
            let inner = self.inner.lock().expect("epoch cache lock");
            if let Some(entry) = inner.map.get(key) {
                return Some(entry.epoch.clone());
            }
        }
        self.disk_load(key).map(Arc::new)
    }

    /// Accepts one encoded epoch pushed by a peer (the receive side of
    /// the post-sweep warm push). Decodes, verifies, and admits it as a
    /// remote-sourced entry; also clears any negative-lookup record for
    /// the key.
    ///
    /// # Errors
    ///
    /// The [`DecodeError`] for malformed or version-skewed bytes, or
    /// for a blob stored under another key — nothing is admitted in
    /// that case.
    pub fn import(&self, key: &EpochKey, bytes: &[u8]) -> Result<(), DecodeError> {
        let epoch = decode_epoch(bytes, key)?;
        self.push_received.fetch_add(1, Ordering::Relaxed);
        self.push_bytes_received
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.negative
            .lock()
            .expect("epoch negative lock")
            .remove(key);
        let epoch = Arc::new(epoch);
        self.disk_store(key, &epoch);
        self.admit(*key, epoch, true);
        Ok(())
    }

    /// Records one warm-push send (counters only; the transport lives
    /// in the serving layer).
    pub fn note_push_sent(&self, bytes: usize) {
        self.push_sent.fetch_add(1, Ordering::Relaxed);
        self.push_bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The `k` most-recently-used resident keys — the candidates a
    /// post-sweep warm push ships to ring neighbors.
    pub fn hottest(&self, k: usize) -> Vec<EpochKey> {
        let inner = self.inner.lock().expect("epoch cache lock");
        let mut keys: Vec<(u64, EpochKey)> =
            inner.map.iter().map(|(k, e)| (e.last_use, *k)).collect();
        drop(inner);
        keys.sort_unstable_by_key(|k| std::cmp::Reverse(k.0));
        keys.truncate(k);
        keys.into_iter().map(|(_, key)| key).collect()
    }

    /// Puts an epoch into the memory tier (no disk write) and trims to
    /// the caps. Re-admitting a resident key only refreshes its LRU
    /// slot.
    fn admit(&self, key: EpochKey, epoch: Arc<CachedEpoch>, remote: bool) {
        let bytes = epoch_bytes(&epoch);
        let quota = if remote {
            Some(self.remote_config().quota_bytes)
        } else {
            None
        };
        let mut inner = self.inner.lock().expect("epoch cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                o.get_mut().last_use = clock;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Entry {
                    epoch,
                    last_use: clock,
                    bytes,
                    remote,
                });
                inner.resident += bytes;
                if remote {
                    inner.remote_resident += bytes;
                    if let Some(quota) = quota {
                        self.enforce_remote_quota(&mut inner, quota);
                    }
                }
                self.enforce_cap(&mut inner);
            }
        }
    }

    /// Evicts least-recently-used epochs until the resident set fits the
    /// cap.
    fn enforce_cap(&self, inner: &mut Inner) {
        let Some(cap) = inner.cap else { return };
        while inner.resident > cap && !inner.map.is_empty() {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            if let Some(entry) = inner.map.remove(&key) {
                inner.resident -= entry.bytes;
                if entry.remote {
                    inner.remote_resident -= entry.bytes;
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Evicts least-recently-used *remote* epochs until their footprint
    /// fits the remote byte quota, leaving locally-computed entries
    /// untouched.
    fn enforce_remote_quota(&self, inner: &mut Inner, quota: usize) {
        while inner.remote_resident > quota {
            let victim = inner
                .map
                .iter()
                .filter(|(_, e)| e.remote)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            if let Some(entry) = inner.map.remove(&key) {
                inner.resident -= entry.bytes;
                inner.remote_resident -= entry.bytes;
                self.remote_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// An [`EpochHook`] adapter binding this cache to one
    /// `(machine, workload)` pair by fingerprint. Pass it to
    /// [`Machine::run_with_hook`] or
    /// [`Machine::run_with_controller_and_hook`].
    pub fn hook_for(&self, spec_fp: u64, workload_fp: u64) -> EpochCacheHook<'_> {
        EpochCacheHook {
            cache: self,
            spec: spec_fp,
            workload: workload_fp,
            remote_ok: true,
        }
    }

    fn disk_path(&self, key: &EpochKey) -> Option<PathBuf> {
        self.disk_dir
            .lock()
            .expect("epoch disk_dir lock")
            .as_ref()
            .map(|d| d.join(key.file_name()))
    }

    fn disk_load(&self, key: &EpochKey) -> Option<CachedEpoch> {
        let path = self.disk_path(key)?;
        let bytes = std::fs::read(&path).ok()?;
        match decode_epoch(&bytes, key) {
            Ok(epoch) => Some(epoch),
            Err(_) => {
                self.quarantine(&path);
                None
            }
        }
    }

    /// Moves a corrupt, version-skewed or misnamed disk entry aside (so the next
    /// recompute can republish cleanly) and counts it. Best-effort: a
    /// failed rename just leaves the bad file to lose the next publish
    /// race.
    fn quarantine(&self, path: &Path) {
        let aside = path.with_extension("quarantined");
        if std::fs::rename(path, aside).is_ok() {
            self.disk_quarantined.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn disk_store(&self, key: &EpochKey, epoch: &CachedEpoch) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        // Keys are content fingerprints, so racing writers publish
        // identical bytes and the last rename wins harmlessly.
        if write_then_rename(&path, &encode_epoch(key, epoch)).is_ok() {
            self.disk_writes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// File magic of the disk tier: "SparseAdapt EPoch".
pub const EPOCH_MAGIC: [u8; 4] = *b"SAEP";
/// Disk-tier/wire format version. Bumped whenever the epoch-record
/// framing ([`trace_bin`]), the snapshot wire format, or the header
/// changes; unknown versions read as [`DecodeError::VersionSkew`],
/// never as garbage. Version 2 added the payload checksum, version 3
/// the key.
pub const EPOCH_VERSION: u16 = 3;

/// Why a `SAEP` byte string failed to decode. Every variant reads as a
/// cache miss; the typed split exists so tests (and the push endpoint's
/// 400s) can tell version skew from corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes do not start with [`EPOCH_MAGIC`].
    BadMagic,
    /// The codec version is not [`EPOCH_VERSION`] (older or newer
    /// writer).
    VersionSkew {
        /// The version the bytes claim.
        found: u16,
    },
    /// Reserved flag bits were set.
    BadFlags {
        /// The flag word the bytes carry.
        found: u16,
    },
    /// The bytes end before the structure does.
    Truncated,
    /// Decoding finished with bytes left over.
    TrailingBytes,
    /// The payload does not match its checksum (bit rot, torn write).
    ChecksumMismatch,
    /// The epoch record failed [`trace_bin`] decoding.
    BadRecord,
    /// The exit snapshot failed [`MachineState::from_bytes`].
    BadSnapshot,
    /// The blob is intact but was stored under a different key than the
    /// one asked for.
    KeyMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a SAEP epoch (bad magic)"),
            DecodeError::VersionSkew { found } => {
                write!(
                    f,
                    "epoch codec version {found} (this build speaks {EPOCH_VERSION})"
                )
            }
            DecodeError::BadFlags { found } => write!(f, "reserved epoch flags set ({found:#06x})"),
            DecodeError::Truncated => write!(f, "truncated epoch bytes"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after epoch"),
            DecodeError::ChecksumMismatch => write!(f, "epoch payload checksum mismatch"),
            DecodeError::BadRecord => write!(f, "malformed epoch record"),
            DecodeError::BadSnapshot => write!(f, "malformed exit snapshot"),
            DecodeError::KeyMismatch => write!(f, "epoch stored under another key"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The key of the epoch following `key`'s: next index, entered in the
/// state `key`'s epoch exited in. Sound because [`MachineState::digest`]
/// of a stored exit snapshot equals the entry digest the simulator
/// computes after restoring (or reaching) that state. The configuration
/// fingerprint is carried over — exact for fixed-config runs; an
/// adaptive run that reconfigures at this boundary derives a different
/// key and the chain simply stops matching there.
fn successor_key(key: &EpochKey, exit: &MachineState) -> EpochKey {
    EpochKey {
        index: key.index + 1,
        entry_digest: exit.digest(),
        ..*key
    }
}

/// Magic bytes opening the segment wire format ([`encode_segment`]).
pub const SEGMENT_MAGIC: [u8; 4] = *b"SAEG";
/// Segment wire-format version. Bumped on any layout change; a peer on
/// another version reads as [`DecodeError::VersionSkew`], i.e. a miss.
/// Version 2 added the first epoch's key.
pub const SEGMENT_VERSION: u16 = 2;

/// Serialises a run of consecutive cached epochs, the first stored
/// under `first`, for the shard-to-shard wire: a 16-byte header like
/// [`encode_epoch`]'s (the `SAEG` magic, version, zero flags, FNV-1a 64
/// payload checksum), then `first` and — each length-prefixed — every
/// record in the [`trace_bin`] framing, every epoch's exit digest (LE
/// `u64`s), and the *last* epoch's full exit state. Interior states are
/// represented only by their digests, which is what makes a long
/// segment ~20x smaller than the equivalent chain of [`encode_epoch`]
/// blobs: the requester fast-forwards through the records and needs a
/// full state only where it resumes simulating.
pub fn encode_segment(
    first: &EpochKey,
    records: &[EpochRecord],
    digests: &[u64],
    exit: &MachineState,
) -> Vec<u8> {
    assert_eq!(records.len(), digests.len());
    let recs = trace_bin::encode_trace(records);
    let state = exit.to_bytes();
    let mut payload =
        Vec::with_capacity(KEY_BYTES + 24 + recs.len() + digests.len() * 8 + state.len());
    put_key(&mut payload, first);
    payload.extend_from_slice(&(recs.len() as u64).to_le_bytes());
    payload.extend_from_slice(&recs);
    payload.extend_from_slice(&(digests.len() as u64 * 8).to_le_bytes());
    for d in digests {
        payload.extend_from_slice(&d.to_le_bytes());
    }
    payload.extend_from_slice(&(state.len() as u64).to_le_bytes());
    payload.extend_from_slice(&state);
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`encode_segment`] for a segment whose first epoch is
/// `first`: the segment plus the per-epoch exit digests (`digests[i]`
/// belongs to `records[i]`; the last one is verified against the
/// decoded state).
///
/// # Errors
///
/// A typed [`DecodeError`] on any malformed, truncated, version-skewed,
/// checksum-failing, or internally inconsistent input, and
/// [`DecodeError::KeyMismatch`] for a segment that starts at another
/// key — the cache treats every error as a miss and simulates; it never
/// fast-forwards through suspect bytes.
pub fn decode_segment(
    bytes: &[u8],
    first: &EpochKey,
) -> Result<(CachedSegment, Vec<u64>), DecodeError> {
    if bytes.len() < SEGMENT_MAGIC.len() {
        return Err(DecodeError::Truncated);
    }
    let rest = bytes
        .strip_prefix(&SEGMENT_MAGIC)
        .ok_or(DecodeError::BadMagic)?;
    let (version, rest) = split_u16(rest).ok_or(DecodeError::Truncated)?;
    if version != SEGMENT_VERSION {
        return Err(DecodeError::VersionSkew { found: version });
    }
    let (flags, rest) = split_u16(rest).ok_or(DecodeError::Truncated)?;
    if flags != 0 {
        return Err(DecodeError::BadFlags { found: flags });
    }
    let (checksum, payload) = split_u64(rest).ok_or(DecodeError::Truncated)?;
    if fnv1a64(payload) != checksum {
        return Err(DecodeError::ChecksumMismatch);
    }
    let rest = strip_key(payload, first)?;
    let (record_bytes, rest) = split_len_prefixed(rest).ok_or(DecodeError::Truncated)?;
    let (digest_bytes, rest) = split_len_prefixed(rest).ok_or(DecodeError::Truncated)?;
    let (state_bytes, rest) = split_len_prefixed(rest).ok_or(DecodeError::Truncated)?;
    if !rest.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    let records = trace_bin::decode_trace(record_bytes).map_err(|_| DecodeError::BadRecord)?;
    if records.is_empty() || records.len() > CHAIN_CAP || digest_bytes.len() != records.len() * 8 {
        return Err(DecodeError::BadRecord);
    }
    let digests: Vec<u64> = digest_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect();
    let exit = MachineState::from_bytes(state_bytes).ok_or(DecodeError::BadSnapshot)?;
    if exit.digest() != *digests.last().expect("non-empty digests") {
        return Err(DecodeError::BadSnapshot);
    }
    Ok((CachedSegment { records, exit }, digests))
}

/// Decodes a `chain > 1` fetch response for `key`: an
/// [`encode_segment`] blob, or — from a peer that doesn't chain
/// (feature off, older wire version) — a bare [`encode_epoch`] blob,
/// degraded to a length-1 segment. The magics make the two cases
/// unambiguous; anything else, or a blob for another key, is a miss.
fn decode_fetched_segment(bytes: &[u8], key: &EpochKey) -> Option<(CachedSegment, Vec<u64>)> {
    if bytes.starts_with(&SEGMENT_MAGIC) {
        return decode_segment(bytes, key).ok();
    }
    let epoch = decode_epoch(bytes, key).ok()?;
    let digest = epoch.exit.digest();
    Some((
        CachedSegment {
            records: vec![epoch.record],
            exit: epoch.exit,
        },
        vec![digest],
    ))
}

/// FNV-1a 64 over `bytes` — the payload checksum of the `SAEP` format.
/// Not cryptographic; it exists to turn bit rot and torn writes into
/// clean misses, not to authenticate peers.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encoded size of an [`EpochKey`]: five LE `u64`s.
const KEY_BYTES: usize = 40;

fn put_key(out: &mut Vec<u8>, key: &EpochKey) {
    for field in [
        key.spec,
        key.workload,
        key.config,
        key.index,
        key.entry_digest,
    ] {
        out.extend_from_slice(&field.to_le_bytes());
    }
}

/// Strips the encoded key off the front of a payload, checking it is
/// `expected`.
fn strip_key<'a>(payload: &'a [u8], expected: &EpochKey) -> Result<&'a [u8], DecodeError> {
    let mut rest = payload;
    let mut field = || {
        let (value, tail) = split_u64(rest).ok_or(DecodeError::Truncated)?;
        rest = tail;
        Ok(value)
    };
    let key = EpochKey {
        spec: field()?,
        workload: field()?,
        config: field()?,
        index: field()?,
        entry_digest: field()?,
    };
    if key != *expected {
        return Err(DecodeError::KeyMismatch);
    }
    Ok(rest)
}

/// Serialises one cached epoch, stored under `key`, for the disk tier
/// and the shard-to-shard wire: a 16-byte header (magic, version, zero
/// flags, FNV-1a 64 payload checksum), then the key, the epoch record
/// in the [`trace_bin`] framing and the exit snapshot via
/// [`MachineState::to_bytes`], the last two length-prefixed.
pub fn encode_epoch(key: &EpochKey, epoch: &CachedEpoch) -> Vec<u8> {
    let record = trace_bin::encode_trace(std::slice::from_ref(&epoch.record));
    let state = epoch.exit.to_bytes();
    let mut payload = Vec::with_capacity(KEY_BYTES + 16 + record.len() + state.len());
    put_key(&mut payload, key);
    payload.extend_from_slice(&(record.len() as u64).to_le_bytes());
    payload.extend_from_slice(&record);
    payload.extend_from_slice(&(state.len() as u64).to_le_bytes());
    payload.extend_from_slice(&state);
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&EPOCH_MAGIC);
    out.extend_from_slice(&EPOCH_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`encode_epoch`] for the epoch stored under `key`.
///
/// # Errors
///
/// A typed [`DecodeError`] on any malformed, truncated, version-skewed,
/// or checksum-failing input, and [`DecodeError::KeyMismatch`] for an
/// intact blob stored under another key — the cache treats every error
/// as a miss and re-simulates; it never restores from suspect bytes.
pub fn decode_epoch(bytes: &[u8], key: &EpochKey) -> Result<CachedEpoch, DecodeError> {
    if bytes.len() < EPOCH_MAGIC.len() {
        return Err(DecodeError::Truncated);
    }
    let rest = bytes
        .strip_prefix(&EPOCH_MAGIC)
        .ok_or(DecodeError::BadMagic)?;
    let (version, rest) = split_u16(rest).ok_or(DecodeError::Truncated)?;
    if version != EPOCH_VERSION {
        return Err(DecodeError::VersionSkew { found: version });
    }
    let (flags, rest) = split_u16(rest).ok_or(DecodeError::Truncated)?;
    if flags != 0 {
        return Err(DecodeError::BadFlags { found: flags });
    }
    let (checksum, payload) = split_u64(rest).ok_or(DecodeError::Truncated)?;
    if fnv1a64(payload) != checksum {
        return Err(DecodeError::ChecksumMismatch);
    }
    let rest = strip_key(payload, key)?;
    let (record_bytes, rest) = split_len_prefixed(rest).ok_or(DecodeError::Truncated)?;
    let (state_bytes, rest) = split_len_prefixed(rest).ok_or(DecodeError::Truncated)?;
    if !rest.is_empty() {
        return Err(DecodeError::TrailingBytes);
    }
    let mut records = trace_bin::decode_trace(record_bytes).map_err(|_| DecodeError::BadRecord)?;
    if records.len() != 1 {
        return Err(DecodeError::BadRecord);
    }
    let exit = MachineState::from_bytes(state_bytes).ok_or(DecodeError::BadSnapshot)?;
    Ok(CachedEpoch {
        record: records.pop().expect("one record"),
        exit,
    })
}

fn split_u16(b: &[u8]) -> Option<(u16, &[u8])> {
    let (head, rest) = b.split_first_chunk::<2>()?;
    Some((u16::from_le_bytes(*head), rest))
}

fn split_u64(b: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = b.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*head), rest))
}

fn split_len_prefixed(b: &[u8]) -> Option<(&[u8], &[u8])> {
    let (head, rest) = b.split_first_chunk::<8>()?;
    let len = usize::try_from(u64::from_le_bytes(*head)).ok()?;
    if len > rest.len() {
        return None;
    }
    Some(rest.split_at(len))
}

/// The [`EpochHook`] adapter produced by [`EpochCache::hook_for`].
#[derive(Debug)]
pub struct EpochCacheHook<'a> {
    cache: &'a EpochCache,
    spec: u64,
    workload: u64,
    /// Per-run remote gate: cleared on the first remote miss so a cold
    /// run probes the cluster once, not once per boundary.
    remote_ok: bool,
}

impl EpochCacheHook<'_> {
    fn key(&self, b: &EpochBoundary) -> EpochKey {
        EpochKey {
            spec: self.spec,
            workload: self.workload,
            config: b.config_fp,
            index: b.index as u64,
            entry_digest: b.entry_digest,
        }
    }
}

impl EpochHook for EpochCacheHook<'_> {
    fn lookup(&mut self, boundary: &EpochBoundary) -> Option<Arc<CachedEpoch>> {
        let key = self.key(boundary);
        self.cache.lookup_gated(&key, &mut self.remote_ok)
    }

    fn lookup_segment(&mut self, boundary: &EpochBoundary) -> Option<CachedSegment> {
        if !self.remote_ok {
            return None;
        }
        let key = self.key(boundary);
        // A locally held epoch is served by the per-epoch `lookup` path
        // for free; the segment fetch is only worth a round trip when
        // this boundary would otherwise simulate.
        if self.cache.has_local(&key) {
            return None;
        }
        let segment = self.cache.remote_segment(&key);
        if segment.is_none() {
            // Same per-run gate as `lookup_gated`: with chained
            // prefetch, the first remote miss means the cluster has
            // nothing more for this run.
            self.remote_ok = false;
        }
        segment
    }

    fn record(&mut self, boundary: &EpochBoundary, epoch: CachedEpoch) {
        self.cache.insert(self.key(boundary), epoch);
    }
}

/// [`crate::trace_cache::simulate_trace`] routed through the global
/// epoch cache when it is enabled: hit epochs fast-forward, miss epochs
/// simulate and are recorded for every later sweep *and* live run.
/// Bit-identical to the unhooked simulation by construction (and by the
/// differential suite).
pub fn simulate_trace_adaptive(
    spec: MachineSpec,
    workload: &Workload,
    config: TransmuterConfig,
) -> Vec<transmuter::machine::EpochRecord> {
    simulate_trace_adaptive_keyed(
        spec,
        workload,
        config,
        spec.fingerprint(),
        workload.fingerprint(),
    )
}

/// [`simulate_trace_adaptive`] with the spec and workload fingerprints
/// precomputed by the caller, so an N-config sweep hashes the (possibly
/// large) workload once instead of once per configuration.
pub fn simulate_trace_adaptive_keyed(
    spec: MachineSpec,
    workload: &Workload,
    config: TransmuterConfig,
    spec_fp: u64,
    workload_fp: u64,
) -> Vec<transmuter::machine::EpochRecord> {
    let cache = EpochCache::global();
    if cache.is_enabled() {
        let mut hook = cache.hook_for(spec_fp, workload_fp);
        Machine::new(spec, config)
            .run_with_hook(workload, &mut hook)
            .epochs
    } else {
        crate::trace_cache::simulate_trace(spec, workload, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transmuter::workload::{Op, Phase};

    /// A small workload whose access stride varies with `tag`, so
    /// different tags genuinely execute differently (not just at
    /// shifted addresses).
    fn tiny_workload(tag: u64) -> Workload {
        let streams: Vec<Vec<Op>> = (0..16)
            .map(|g| {
                (0..80u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: g as u64 * 8192 + i * (16 + tag * 24),
                                pc: 1,
                            },
                            Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        Workload::new("tiny-epoch", vec![Phase::new("p", streams)])
    }

    /// Runs `wl` under `cfg` with a hook bound to `cache`.
    fn run_hooked(
        cache: &EpochCache,
        spec: MachineSpec,
        wl: &Workload,
        cfg: TransmuterConfig,
    ) -> transmuter::machine::RunResult {
        let mut hook = cache.hook_for(spec.fingerprint(), wl.fingerprint());
        Machine::new(spec, cfg).run_with_hook(wl, &mut hook)
    }

    #[test]
    fn warm_rerun_hits_every_epoch_and_matches() {
        let cache = EpochCache::new();
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(1);
        let cfg = TransmuterConfig::baseline();
        let plain = Machine::new(spec, cfg).run(&wl);
        let cold = run_hooked(&cache, spec, &wl, cfg);
        assert_eq!(cold, plain);
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.inserts as usize, plain.epochs.len());
        let warm = run_hooked(&cache, spec, &wl, cfg);
        assert_eq!(warm, plain);
        let s = cache.stats();
        assert_eq!(s.hits as usize, plain.epochs.len());
        assert!(s.hit_rate() > 0.0);
    }

    #[test]
    fn distinct_workloads_do_not_collide() {
        let cache = EpochCache::new();
        let spec = MachineSpec::default().with_epoch_ops(120);
        let cfg = TransmuterConfig::baseline();
        let (wl1, wl2) = (tiny_workload(2), tiny_workload(3));
        let a = run_hooked(&cache, spec, &wl1, cfg);
        let b = run_hooked(&cache, spec, &wl2, cfg);
        assert_ne!(a, b, "workloads chosen to differ");
        assert_eq!(cache.stats().hits, 0, "cross-workload hit would be unsound");
        // Both rerun warm.
        assert_eq!(run_hooked(&cache, spec, &wl1, cfg), a);
        assert_eq!(run_hooked(&cache, spec, &wl2, cfg), b);
    }

    #[test]
    fn disk_tier_survives_a_clear() {
        let dir = std::env::temp_dir().join(format!("sa-epoch-cache-test-{}", std::process::id()));
        let cache = EpochCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(4);
        let cfg = TransmuterConfig::baseline();
        let first = run_hooked(&cache, spec, &wl, cfg);
        assert!(cache.stats().disk_writes as usize >= first.epochs.len());
        cache.clear();
        let second = run_hooked(&cache, spec, &wl, cfg);
        assert_eq!(first, second, "disk round-trip changed the run");
        let s = cache.stats();
        assert_eq!(s.disk_hits as usize, first.epochs.len());
        assert_eq!(s.hits, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_rename_removes_the_temporary() {
        let dir = std::env::temp_dir().join(format!("sa-epoch-rename-{}", std::process::id()));
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .expect("dir")
                .map(|e| e.expect("entry").file_name())
                .collect();
            names.sort();
            names
        };
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(12);
        let cfg = TransmuterConfig::baseline();
        // Learn the run's file names, then put a directory at each, so
        // every publish fails at the final rename.
        let cache = EpochCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let first = run_hooked(&cache, spec, &wl, cfg);
        let planted = listing();
        for name in &planted {
            std::fs::remove_file(dir.join(name)).expect("remove");
            std::fs::create_dir(dir.join(name)).expect("plant dir");
        }
        let cache = EpochCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        assert_eq!(run_hooked(&cache, spec, &wl, cfg), first);
        assert_eq!(cache.stats().disk_writes, 0);
        assert_eq!(listing(), planted, "a failed publish left a temporary");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_disk_entries_read_as_misses_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("sa-epoch-corrupt-{}", std::process::id()));
        let cache = EpochCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(5);
        let cfg = TransmuterConfig::baseline();
        let first = run_hooked(&cache, spec, &wl, cfg);
        // Truncate and bit-flip every published file.
        for entry in std::fs::read_dir(&dir).expect("dir") {
            let path = entry.expect("entry").path();
            let mut bytes = std::fs::read(&path).expect("read");
            bytes.truncate(bytes.len() / 2);
            if let Some(b) = bytes.last_mut() {
                *b ^= 0xFF;
            }
            std::fs::write(&path, bytes).expect("write");
        }
        cache.clear();
        let second = run_hooked(&cache, spec, &wl, cfg);
        assert_eq!(first, second, "corrupt files must re-simulate identically");
        let s = cache.stats();
        assert_eq!(s.disk_hits, 0);
        assert_eq!(
            s.disk_quarantined as usize,
            first.epochs.len(),
            "every corrupt file is quarantined"
        );
        // The quarantined copies were moved aside and the recompute
        // republished clean entries, so a third run disk-hits again.
        cache.clear();
        let third = run_hooked(&cache, spec, &wl, cfg);
        assert_eq!(first, third);
        assert_eq!(cache.stats().disk_hits as usize, first.epochs.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn memory_cap_evicts_and_rebuilds_identically() {
        let cache = EpochCache::new();
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(6);
        let cfg = TransmuterConfig::baseline();
        let plain = Machine::new(spec, cfg).run(&wl);
        assert!(plain.epochs.len() >= 2, "need multiple epochs");
        // Room for roughly one epoch: constant eviction.
        let one = {
            let probe = EpochCache::new();
            run_hooked(&probe, spec, &wl, cfg);
            probe.stats().resident_bytes / plain.epochs.len()
        };
        cache.set_memory_cap(Some(one + one / 2));
        let cold = run_hooked(&cache, spec, &wl, cfg);
        assert_eq!(cold, plain);
        let s = cache.stats();
        assert!(s.evictions > 0, "cap should have evicted");
        assert!(s.resident_bytes <= one + one / 2);
        let warm = run_hooked(&cache, spec, &wl, cfg);
        assert_eq!(warm, plain, "post-eviction re-simulation must be identical");
    }

    #[test]
    fn adaptive_simulation_matches_plain_when_disabled_and_enabled() {
        // Private cache semantics via the global: this test is the only
        // in-crate user of the global flag, and it restores it.
        let spec = MachineSpec::default().with_epoch_ops(130);
        let wl = tiny_workload(7);
        let cfg = TransmuterConfig::best_avg_cache();
        let plain = crate::trace_cache::simulate_trace(spec, &wl, cfg);
        assert!(!EpochCache::global().is_enabled(), "default must be off");
        assert_eq!(simulate_trace_adaptive(spec, &wl, cfg), plain);
        EpochCache::global().set_enabled(true);
        let on_cold = simulate_trace_adaptive(spec, &wl, cfg);
        let on_warm = simulate_trace_adaptive(spec, &wl, cfg);
        EpochCache::global().set_enabled(false);
        assert_eq!(on_cold, plain);
        assert_eq!(on_warm, plain);
    }

    #[test]
    fn key_token_round_trips_and_rejects_garbage() {
        let key = EpochKey {
            spec: 0xdead_beef_0000_0001,
            workload: 2,
            config: u64::MAX,
            index: 17,
            entry_digest: 0x0123_4567_89ab_cdef,
        };
        assert_eq!(EpochKey::parse_token(&key.token()), Some(key));
        for bad in [
            "",
            "zz",
            "1-2-3-4",
            "1-2-3-4-5-6",
            "1-2-3-4-not_hex",
            "0123456789abcdef01-2-3-4-5",
        ] {
            assert_eq!(EpochKey::parse_token(bad), None, "{bad:?}");
        }
    }

    /// A remote tier backed by another in-process cache: what a peer
    /// shard is, minus the HTTP. Serves single entries only, so every
    /// boundary costs one fetch (the chain-free baseline).
    struct CacheBacked(Arc<EpochCache>);

    impl RemoteFetcher for CacheBacked {
        fn fetch(&self, key: &EpochKey, _budget: Duration, _chain: usize) -> Option<Vec<u8>> {
            self.0.export(key)
        }
    }

    /// [`CacheBacked`] honoring the chain: what a peer shard is with
    /// chained prefetch, minus the HTTP.
    struct ChainBacked(Arc<EpochCache>);

    impl RemoteFetcher for ChainBacked {
        fn fetch(&self, key: &EpochKey, _budget: Duration, chain: usize) -> Option<Vec<u8>> {
            if chain > 1 {
                self.0.export_segment(key, chain)
            } else {
                self.0.export(key)
            }
        }
    }

    #[test]
    fn remote_tier_serves_peer_entries_bit_identically() {
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(8);
        let cfg = TransmuterConfig::baseline();
        let peer = Arc::new(EpochCache::new());
        let warm = run_hooked(&peer, spec, &wl, cfg);
        let local = EpochCache::new();
        local.set_remote(Some(Arc::new(CacheBacked(Arc::clone(&peer)))));
        let fetched = run_hooked(&local, spec, &wl, cfg);
        assert_eq!(fetched, warm, "remote epochs must replay bit-identically");
        let s = local.stats();
        assert_eq!(s.remote_hits as usize, warm.epochs.len());
        assert_eq!(s.hits + s.disk_hits, 0);
        assert_eq!(s.inserts, 0, "every epoch came from the peer");
        assert!(s.remote_bytes > 0);
        // A fully fast-forwarded run probes one boundary past the last
        // epoch (the probe that discovers the run is over), so exactly
        // one remote miss is expected.
        assert_eq!(s.remote_misses, 1);
        assert!(s.remote_hit_rate() > 0.5);
    }

    #[test]
    fn chained_prefetch_collapses_fetches_to_one_per_run() {
        // Short epochs make a long chain: the point is many boundaries
        // served by one fetch.
        let spec = MachineSpec::default().with_epoch_ops(30);
        let wl = tiny_workload(8);
        let cfg = TransmuterConfig::baseline();
        let peer = Arc::new(EpochCache::new());
        let warm = run_hooked(&peer, spec, &wl, cfg);
        assert!(warm.epochs.len() > 2, "need a chain worth prefetching");
        let local = EpochCache::new();
        local.set_remote(Some(Arc::new(ChainBacked(Arc::clone(&peer)))));
        let fetched = run_hooked(&local, spec, &wl, cfg);
        assert_eq!(fetched, warm, "chained epochs must replay bit-identically");
        let s = local.stats();
        // One segment fetch fast-forwards the whole run; no later
        // boundary is ever looked up because the machine consumes the
        // segment in one step.
        assert_eq!(s.remote_hits, 1);
        assert_eq!(s.remote_chain_entries as usize, warm.epochs.len() - 1);
        assert_eq!(s.inserts, 0, "every epoch came from the peer");
        // The final probe past the last epoch is the only other fetch,
        // and it misses.
        assert_eq!(s.remote_misses, 1);
        // Only the segment's last epoch arrived with a full state, and
        // it is the one admitted locally.
        assert_eq!(s.remote_entries, 1);
        // A rerun re-fetches the segment (interior epochs were never
        // admitted locally — by design) and still replays identically;
        // its final probe is suppressed by the negative cache.
        let again = run_hooked(&local, spec, &wl, cfg);
        assert_eq!(again, warm);
        let s = local.stats();
        assert_eq!(s.remote_hits, 2);
        assert_eq!(s.remote_misses, 1, "second end-probe was suppressed");
        assert_eq!(s.remote_negative_suppressed, 1);
    }

    #[test]
    fn export_segment_round_trips_and_caps() {
        let spec = MachineSpec::default().with_epoch_ops(30);
        let wl = tiny_workload(11);
        let cfg = TransmuterConfig::baseline();
        let peer = EpochCache::new();
        let run = run_hooked(&peer, spec, &wl, cfg);
        let first = EpochKey {
            spec: spec.fingerprint(),
            workload: wl.fingerprint(),
            config: cfg.fingerprint(),
            index: 0,
            entry_digest: Machine::new(spec, cfg).snapshot().digest(),
        };
        let full = peer.export_segment(&first, CHAIN_CAP).expect("segment");
        let (segment, digests) = decode_segment(&full, &first).expect("decodes");
        assert_eq!(segment.records.len(), run.epochs.len(), "covers the run");
        assert_eq!(digests.len(), segment.records.len());
        assert_eq!(segment.exit.digest(), *digests.last().expect("digests"));
        // A cap of 2 stops the walk early.
        let capped = peer.export_segment(&first, 2).expect("capped segment");
        assert_eq!(
            decode_segment(&capped, &first)
                .expect("decodes")
                .0
                .records
                .len(),
            2
        );
        // Segments are atomic: any torn or twiddled byte fails the
        // checksum and reads as a miss.
        let torn = &full[..full.len() - 3];
        assert!(decode_segment(torn, &first).is_err());
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(decode_segment(&flipped, &first).is_err());
        // An unknown key exports nothing.
        let missing = EpochKey {
            entry_digest: first.entry_digest ^ 1,
            ..first
        };
        assert!(peer.export_segment(&missing, CHAIN_CAP).is_none());
    }

    /// A peer that answers every key with one fixed, well-formed blob —
    /// the epoch of some *other* key.
    struct Misaddressed(Vec<u8>);

    impl RemoteFetcher for Misaddressed {
        fn fetch(&self, _key: &EpochKey, _budget: Duration, _chain: usize) -> Option<Vec<u8>> {
            Some(self.0.clone())
        }
    }

    #[test]
    fn blobs_for_another_key_are_rejected_by_fetch_and_import() {
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(10);
        let cfg = TransmuterConfig::baseline();
        let source = EpochCache::new();
        run_hooked(&source, spec, &wl, cfg);
        let keys = source.hottest(usize::MAX);
        assert!(keys.len() >= 2, "need two keys");
        let (a, b) = (keys[0], keys[1]);
        let blob_a = source.export(&a).expect("resident entry exports");
        assert_eq!(decode_epoch(&blob_a, &b), Err(DecodeError::KeyMismatch));

        // Each fetch gets a fresh cache: a first miss would otherwise
        // suppress the next lookup of `b` before any bytes arrive.
        let asking = |blob: &[u8]| {
            let local = EpochCache::new();
            local.set_remote(Some(Arc::new(Misaddressed(blob.to_vec()))));
            local.set_remote_config(RemoteConfig {
                chain: 8,
                ..RemoteConfig::default()
            });
            local
        };
        let local = asking(&blob_a);
        assert!(local.lookup(&b).is_none(), "a misaddressed blob is a miss");
        let s = local.stats();
        assert_eq!((s.remote_hits, s.remote_misses, s.entries), (0, 1, 0));
        // The chained path rejects it too, as a bare epoch or a segment.
        let segment_a = source.export_segment(&a, 8).expect("segment exports");
        for blob in [&blob_a, &segment_a] {
            let local = asking(blob);
            assert!(local.remote_segment(&b).is_none());
            let s = local.stats();
            assert_eq!((s.remote_hits, s.remote_misses, s.entries), (0, 1, 0));
        }

        assert_eq!(local.import(&b, &blob_a), Err(DecodeError::KeyMismatch));
        assert_eq!(local.stats().entries, 0, "nothing admitted");
        assert_eq!(local.import(&a, &blob_a), Ok(()));
    }

    #[test]
    fn disk_file_under_another_keys_name_is_quarantined() {
        let dir = std::env::temp_dir().join(format!("sa-epoch-misnamed-{}", std::process::id()));
        let cache = EpochCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(4);
        let cfg = TransmuterConfig::baseline();
        let first = run_hooked(&cache, spec, &wl, cfg);
        let keys = cache.hottest(usize::MAX);
        assert!(keys.len() >= 2, "need two keys");
        let (a, b) = (keys[0], keys[1]);
        std::fs::copy(dir.join(a.file_name()), dir.join(b.file_name())).expect("copy");
        cache.clear();
        assert!(cache.lookup(&b).is_none(), "the misnamed file is a miss");
        assert_eq!(cache.stats().disk_quarantined, 1);
        assert!(
            cache.lookup(&a).is_some(),
            "the correctly named file still hits"
        );
        // The run recomputes the quarantined epoch and republishes it.
        cache.clear();
        assert_eq!(run_hooked(&cache, spec, &wl, cfg), first);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A fetcher that always misses and counts how often it was asked.
    struct CountingMiss(AtomicU64);

    impl RemoteFetcher for CountingMiss {
        fn fetch(&self, _key: &EpochKey, _budget: Duration, _chain: usize) -> Option<Vec<u8>> {
            self.0.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    #[test]
    fn negative_lookups_are_suppressed() {
        let cache = EpochCache::new();
        let fetcher = Arc::new(CountingMiss(AtomicU64::new(0)));
        cache.set_remote(Some(fetcher.clone()));
        let key = EpochKey {
            spec: 1,
            workload: 2,
            config: 3,
            index: 0,
            entry_digest: 4,
        };
        assert!(cache.lookup(&key).is_none());
        assert!(cache.lookup(&key).is_none());
        assert_eq!(
            fetcher.0.load(Ordering::Relaxed),
            1,
            "second ask suppressed"
        );
        let s = cache.stats();
        assert_eq!(s.remote_misses, 1);
        assert_eq!(s.remote_negative_suppressed, 1);
    }

    /// A fetcher that records the budget it was handed.
    struct BudgetProbe(Mutex<Option<Duration>>);

    impl RemoteFetcher for BudgetProbe {
        fn fetch(&self, _key: &EpochKey, budget: Duration, _chain: usize) -> Option<Vec<u8>> {
            *self.0.lock().expect("probe lock") = Some(budget);
            None
        }
    }

    #[test]
    fn configured_budget_reaches_the_fetcher() {
        let cache = EpochCache::new();
        let probe = Arc::new(BudgetProbe(Mutex::new(None)));
        cache.set_remote(Some(probe.clone()));
        cache.set_remote_config(RemoteConfig {
            budget: Duration::from_millis(7),
            ..RemoteConfig::default()
        });
        let key = EpochKey {
            spec: 9,
            workload: 9,
            config: 9,
            index: 9,
            entry_digest: 9,
        };
        assert!(cache.lookup(&key).is_none());
        assert_eq!(
            *probe.0.lock().expect("probe lock"),
            Some(Duration::from_millis(7))
        );
    }

    #[test]
    fn export_import_round_trips_and_quota_evicts_remote_entries() {
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(9);
        let cfg = TransmuterConfig::baseline();
        let source = EpochCache::new();
        let run = run_hooked(&source, spec, &wl, cfg);
        let keys = source.hottest(usize::MAX);
        assert_eq!(keys.len(), run.epochs.len());
        let sink = EpochCache::new();
        // Quota of about one epoch: pushes land but older remote
        // entries are evicted to stay under it.
        let one = source.stats().resident_bytes / run.epochs.len();
        sink.set_remote_config(RemoteConfig {
            quota_bytes: one + one / 2,
            ..RemoteConfig::default()
        });
        for key in &keys {
            let bytes = source.export(key).expect("resident entry exports");
            assert!(decode_epoch(&bytes, key).is_ok());
            sink.import(key, &bytes).expect("import valid bytes");
        }
        let s = sink.stats();
        assert_eq!(s.push_received as usize, keys.len());
        assert!(s.push_bytes_received > 0);
        assert!(s.remote_evictions > 0, "quota should have evicted");
        assert!(s.remote_resident_bytes <= one + one / 2);
        assert_eq!(s.remote_entries, s.entries, "all entries remote-sourced");
        // Importing garbage is a typed error and admits nothing.
        assert_eq!(sink.import(&keys[0], b"SA"), Err(DecodeError::Truncated));
        assert!(matches!(
            sink.import(&keys[0], b"SAEPgarbage"),
            Err(DecodeError::VersionSkew { .. })
        ));
        // A replayed run over the surviving entries is still identical.
        let replay = run_hooked(&sink, spec, &wl, cfg);
        assert_eq!(replay, run);
    }
}
