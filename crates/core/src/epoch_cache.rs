//! Epoch-granular simulation memoization: a process-wide cache of
//! `(workload, machine, config, epoch, entry-state)` →
//! `(epoch record, exit machine state)`, held in process memory, with
//! the rest of the cluster as an optional second tier.
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
//! key pins every input of the epoch, and every segment a peer sends
//! carries the key it starts at, which decoding checks against the key
//! that was asked for. So remote bytes either decode to the one correct
//! answer or are rejected as a miss — a well-formed segment for a
//! *different* key included.
//!
//! The memory tier mirrors the trace cache: a mutex-guarded map with an
//! LRU byte budget. It is the only local tier. Persistence across
//! processes belongs to the trace cache's disk tier, which stores whole
//! runs.
//!
//! The cluster tier is pluggable and fetches whole runs: a
//! [`RemoteFetcher`] installed via [`EpochCache::set_remote`] is asked,
//! at a static run's boundary that memory cannot answer, for one
//! [`encode_segment`] blob — the records of every consecutive epoch a
//! peer holds from that key on, plus one exit state. The fetcher owns
//! its latency budget; the hot simulation path falls back to computing
//! the epoch whenever the budget expires, so it can never stall on the
//! network. Concurrent fetches are bounded, a run asks its peers at
//! most until the first miss, and a segment is replayed, never stored:
//! the run that consumes it records nothing it did not simulate.
//!
//! The cache is *disabled* by default — sweeps and live runs consult it
//! only after [`EpochCache::set_enabled`]`(true)` (the `--epoch-cache`
//! CLI flag). The frozen reference simulation path never consults it,
//! keeping an independent witness for differential tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use fxhash::FxHashMap;
use transmuter::cache::Page;
use transmuter::config::{MachineSpec, TransmuterConfig};
use transmuter::machine::{
    CachedEpoch, CachedSegment, EpochBoundary, EpochHook, EpochRecord, Machine, MachineState,
};
use transmuter::workload::Workload;

use crate::trace_bin;

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
    /// Bytes the entry owns outright: everything but the exit
    /// snapshot's shared pages.
    fixed: usize,
}

impl Entry {
    /// A not yet used entry, sized before the caller takes the cache
    /// lock.
    fn new(epoch: Arc<CachedEpoch>) -> Entry {
        let fixed = std::mem::size_of::<CachedEpoch>() + epoch.exit.approx_fixed_bytes();
        Entry {
            epoch,
            last_use: 0,
            fixed,
        }
    }
}

/// Source of the caches' page-claim tokens ([`Page::hold`]): one per
/// cache, never reused.
static NEXT_TOKEN: AtomicU32 = AtomicU32::new(1);

/// The memory tier. `resident` counts every entry's fixed bytes plus
/// each shared page once, however many resident snapshots hold it:
/// consecutive exit snapshots of one run share most of their pages.
/// A page's references are counted on the page itself under this
/// cache's claim token, or in `side` when another cache claimed it
/// first.
struct Inner {
    map: FxHashMap<EpochKey, Entry>,
    token: u32,
    /// References to resident pages that another cache has claimed,
    /// keyed by page address (a resident entry keeps its pages alive,
    /// so an address names one page while it is here). Almost always
    /// empty: pages are shared across caches only when one machine
    /// records into two.
    side: FxHashMap<usize, u32>,
    clock: u64,
    resident: usize,
    cap: Option<usize>,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            map: FxHashMap::default(),
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            side: FxHashMap::default(),
            clock: 0,
            resident: 0,
            cap: None,
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Pages can outlive the cache; leave none claimed by it.
        self.clear();
    }
}

impl Inner {
    /// Counts one more resident reference to `page`; `true` for the
    /// first.
    fn hold(&mut self, page: &Arc<Page>) -> bool {
        let addr = Arc::as_ptr(page) as usize;
        if let Some(n) = self.side.get_mut(&addr) {
            *n += 1;
            return false;
        }
        page.hold(self.token).unwrap_or_else(|| {
            self.side.insert(addr, 1);
            true
        })
    }

    /// Drops one resident reference to `page`; `true` for the last.
    fn release(&mut self, page: &Arc<Page>) -> bool {
        let addr = Arc::as_ptr(page) as usize;
        match self.side.get_mut(&addr) {
            Some(1) => {
                self.side.remove(&addr);
                true
            }
            Some(n) => {
                *n -= 1;
                false
            }
            None => page.release(self.token),
        }
    }

    fn insert(&mut self, key: EpochKey, entry: Entry) {
        self.resident += entry.fixed;
        for page in entry.epoch.exit.pages() {
            if self.hold(page) {
                self.resident += Page::HEAP_BYTES;
            }
        }
        self.map.insert(key, entry);
    }

    fn remove(&mut self, key: &EpochKey) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.resident -= entry.fixed;
        for page in entry.epoch.exit.pages() {
            if self.release(page) {
                self.resident -= Page::HEAP_BYTES;
            }
        }
        Some(entry)
    }

    fn clear(&mut self) {
        for entry in self.map.values() {
            for page in entry.epoch.exit.pages() {
                page.release_all(self.token);
            }
        }
        self.map.clear();
        self.side.clear();
        self.resident = 0;
        self.clock = 0;
    }
}

/// How many recent remote-fetch latency samples back the percentile
/// estimates in [`EpochCacheStats`]; older samples are overwritten
/// ring-buffer style.
const FETCH_SAMPLE_CAP: usize = 4096;

/// Bytes a segment's per-epoch part may take: each epoch costs its
/// [`trace_bin::RECORD_BYTES`] record plus an 8-byte exit digest.
const SEGMENT_RECORD_BUDGET: usize = 256 * 1024;

/// Most epochs one segment may carry: what [`EpochCache::export_segment`]
/// walks at most and what [`decode_segment`] accepts. Set from
/// [`SEGMENT_RECORD_BUDGET`], it bounds a single response however large
/// the peer's cache is, and at 1,186 epochs it carries the longest run
/// of the serving mix (341 epochs of `symgs` on R09) in one fetch.
pub const SEGMENT_CAP: usize = SEGMENT_RECORD_BUDGET / (trace_bin::RECORD_BYTES + 8);

/// Most remote fetches in flight at once; a boundary that finds the
/// tier this busy simulates instead of queueing.
const MAX_INFLIGHT_FETCHES: u64 = 8;

/// A pluggable cluster tier: given a key, return the peer's
/// [`encode_segment`] blob starting at it — records for up to
/// [`SEGMENT_CAP`] consecutive epochs plus the last one's exit state,
/// found by following the content-addressed digest chain — or `None`.
///
/// Implementations must bound `fetch` by a hard deadline of their own —
/// the caller sits on the hot simulation path and falls back to
/// computing the epoch as soon as `fetch` returns. Returning corrupt
/// bytes is safe (they fail decoding and read as a miss) but wasteful.
pub trait RemoteFetcher: Send + Sync {
    /// Fetches the encoded segment starting at `key`.
    fn fetch(&self, key: &EpochKey) -> Option<Vec<u8>>;
}

/// Counter snapshot from [`EpochCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochCacheStats {
    /// Boundary lookups observed: every boundary asked of memory, plus
    /// every boundary a fetched segment answered.
    pub lookups: u64,
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups answered by a segment fetched from a peer.
    pub remote_hits: u64,
    /// Fresh epochs recorded (cache misses that simulated).
    pub inserts: u64,
    /// Epochs dropped to stay under the memory cap.
    pub evictions: u64,
    /// Remote fetches that returned nothing (or undecodable bytes).
    pub remote_misses: u64,
    /// Epochs fetched segments fast-forwarded beyond the boundary each
    /// was asked at; they cost no lookup and no round trip of their own.
    pub remote_chain_entries: u64,
    /// Bytes received from peers by remote fetches.
    pub remote_bytes: u64,
    /// Total wall time spent in remote fetches, microseconds.
    pub remote_fetch_us: u64,
    /// Remote fetches skipped because the in-flight fetch cap was hit.
    pub remote_inflight_skipped: u64,
    /// Distinct epochs currently held in memory.
    pub entries: usize,
    /// Accounted bytes of in-memory epochs.
    pub resident_bytes: usize,
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
            (self.hits + self.remote_hits) as f64 / self.lookups as f64
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
    remote: Mutex<Option<Arc<dyn RemoteFetcher>>>,
    fetch_samples: Mutex<Vec<u64>>,
    inflight: AtomicU64,
    enabled: AtomicBool,
    lookups: AtomicU64,
    hits: AtomicU64,
    remote_hits: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    remote_misses: AtomicU64,
    remote_chain_entries: AtomicU64,
    remote_bytes: AtomicU64,
    remote_fetch_us: AtomicU64,
    remote_inflight_skipped: AtomicU64,
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

    /// Does nothing: the epoch cache keeps no disk tier. It remains
    /// because `perfbench` resets process-wide state with
    /// `set_disk_dir(None)`, and goes when that call does.
    pub fn set_disk_dir(&self, _dir: Option<PathBuf>) {}

    /// Installs (or removes, with `None`) the cluster tier. With a
    /// fetcher installed, a static run's boundary that memory cannot
    /// answer asks the peers for a segment before simulating.
    pub fn set_remote(&self, fetcher: Option<Arc<dyn RemoteFetcher>>) {
        *self.remote.lock().expect("epoch remote lock") = fetcher;
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> EpochCacheStats {
        let (entries, resident) = {
            let inner = self.inner.lock().expect("epoch cache lock");
            (inner.map.len(), inner.resident)
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
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            remote_misses: self.remote_misses.load(Ordering::Relaxed),
            remote_chain_entries: self.remote_chain_entries.load(Ordering::Relaxed),
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
            remote_fetch_us: self.remote_fetch_us.load(Ordering::Relaxed),
            remote_inflight_skipped: self.remote_inflight_skipped.load(Ordering::Relaxed),
            entries,
            resident_bytes: resident,
            remote_fetch_p50_ms: p50,
            remote_fetch_p95_ms: p95,
        }
    }

    /// Drops every epoch and zeroes the counters. The enabled flag, cap,
    /// and remote tier installation are kept.
    pub fn clear(&self) {
        self.inner.lock().expect("epoch cache lock").clear();
        self.fetch_samples
            .lock()
            .expect("epoch samples lock")
            .clear();
        for counter in [
            &self.lookups,
            &self.hits,
            &self.remote_hits,
            &self.inserts,
            &self.evictions,
            &self.remote_misses,
            &self.remote_chain_entries,
            &self.remote_bytes,
            &self.remote_fetch_us,
            &self.remote_inflight_skipped,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Looks up one epoch in memory.
    pub fn lookup(&self, key: &EpochKey) -> Option<Arc<CachedEpoch>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("epoch cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.map.get_mut(key)?;
        entry.last_use = clock;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.epoch.clone())
    }

    /// The cluster tier, backing [`EpochCacheHook::lookup_segment`]:
    /// one fetch asks a peer to follow the digest chain from `key` and
    /// answer with records for every consecutive epoch it holds plus the
    /// final exit state ([`encode_segment`]). The segment answers this
    /// boundary — one lookup, one remote hit — and fast-forwards the
    /// run through the rest; nothing of it is stored. Every failure
    /// mode — no fetcher, over the in-flight cap, budget expired,
    /// undecodable or misaddressed bytes — is `None`, and the caller
    /// simulates.
    fn fetch_segment(&self, key: &EpochKey) -> Option<CachedSegment> {
        let fetcher = self.remote.lock().expect("epoch remote lock").clone()?;
        if self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < MAX_INFLIGHT_FETCHES).then_some(n + 1)
            })
            .is_err()
        {
            self.remote_inflight_skipped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let started = Instant::now();
        let fetched = fetcher.fetch(key);
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
        let Some(segment) = fetched.and_then(|bytes| decode_segment(&bytes, key).ok()) else {
            self.remote_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.remote_hits.fetch_add(1, Ordering::Relaxed);
        self.remote_chain_entries
            .fetch_add(segment.records.len() as u64 - 1, Ordering::Relaxed);
        Some(segment)
    }

    /// Records a freshly simulated epoch.
    pub fn insert(&self, key: EpochKey, epoch: CachedEpoch) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.admit(key, Arc::new(epoch));
    }

    /// Serialises `key` and up to [`SEGMENT_CAP`]` - 1` of its
    /// successors as one compact segment ([`encode_segment`]): every
    /// epoch's record and exit digest, but only the *last* epoch's full
    /// exit state. Each successor key is derived from the previous
    /// epoch's exit state — the same digest chain the simulator walks —
    /// so one response fast-forwards the requester through the whole
    /// stretch this shard holds, at a fraction of the bytes of one full
    /// [`MachineState`] per epoch. The walk stops at the first key this
    /// shard doesn't hold (for adaptive runs, also where the requester's
    /// configuration trajectory diverges); `None` when even `key` itself
    /// is absent.
    pub fn export_segment(&self, key: &EpochKey) -> Option<Vec<u8>> {
        let mut records = Vec::new();
        let mut digests = Vec::new();
        let mut last: Option<Arc<CachedEpoch>> = None;
        let mut k = *key;
        while records.len() < SEGMENT_CAP {
            let Some(epoch) = self.peek(&k) else { break };
            records.push(epoch.record.clone());
            digests.push(epoch.exit.digest());
            k = successor_key(&k, &epoch.exit);
            last = Some(epoch);
        }
        let exit = &last?.exit;
        Some(encode_segment(key, &records, &digests, exit))
    }

    /// Whether `key` is resident, without touching counters or the LRU
    /// clock. Used to decide if a segment fetch is worth a round trip.
    fn has_local(&self, key: &EpochKey) -> bool {
        let inner = self.inner.lock().expect("epoch cache lock");
        inner.map.contains_key(key)
    }

    /// One resident entry, without touching the hit counters or LRU
    /// clock (peer exports are not local cache traffic).
    fn peek(&self, key: &EpochKey) -> Option<Arc<CachedEpoch>> {
        let inner = self.inner.lock().expect("epoch cache lock");
        inner.map.get(key).map(|entry| entry.epoch.clone())
    }

    /// Puts an epoch into memory and trims to the cap. Re-admitting a
    /// resident key only refreshes its LRU slot.
    fn admit(&self, key: EpochKey, epoch: Arc<CachedEpoch>) {
        let mut entry = Entry::new(epoch);
        let mut inner = self.inner.lock().expect("epoch cache lock");
        inner.clock += 1;
        entry.last_use = inner.clock;
        if let Some(resident) = inner.map.get_mut(&key) {
            resident.last_use = entry.last_use;
            return;
        }
        inner.insert(key, entry);
        self.enforce_cap(&mut inner);
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
            if inner.remove(&key).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
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
}

/// Why a `SAEG` byte string failed to decode. Every variant reads as a
/// cache miss; the typed split exists so tests can tell version skew
/// from corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes do not start with [`SEGMENT_MAGIC`].
    BadMagic,
    /// The codec version is not [`SEGMENT_VERSION`] (older or newer
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
            DecodeError::BadMagic => write!(f, "not a SAEG segment (bad magic)"),
            DecodeError::VersionSkew { found } => {
                write!(
                    f,
                    "segment codec version {found} (this build speaks {SEGMENT_VERSION})"
                )
            }
            DecodeError::BadFlags { found } => {
                write!(f, "reserved segment flags set ({found:#06x})")
            }
            DecodeError::Truncated => write!(f, "truncated segment bytes"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after segment"),
            DecodeError::ChecksumMismatch => write!(f, "segment payload checksum mismatch"),
            DecodeError::BadRecord => write!(f, "malformed epoch records"),
            DecodeError::BadSnapshot => write!(f, "malformed exit snapshot"),
            DecodeError::KeyMismatch => write!(f, "segment starts at another key"),
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
/// Version 2 added the first epoch's key, version 3 carries page-folded
/// state digests.
pub const SEGMENT_VERSION: u16 = 3;

/// Serialises a run of consecutive cached epochs, the first stored
/// under `first`, for the shard-to-shard wire: a 16-byte header (the
/// `SAEG` magic, version, zero flags, FNV-1a 64 payload checksum), then
/// `first` and — each length-prefixed — every record in the
/// [`trace_bin`] framing, every epoch's exit digest (LE `u64`s), and
/// the *last* epoch's full exit state. Interior states are represented
/// only by their digests, which is what makes a long segment ~20x
/// smaller than one full state per epoch: the requester fast-forwards
/// through the records and needs a full state only where it resumes
/// simulating.
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
/// `first`. Of the per-epoch exit digests, the last is verified
/// against the decoded state.
///
/// # Errors
///
/// A typed [`DecodeError`] on any malformed, truncated, version-skewed,
/// checksum-failing, or internally inconsistent input, and
/// [`DecodeError::KeyMismatch`] for a segment that starts at another
/// key — the cache treats every error as a miss and simulates; it never
/// fast-forwards through suspect bytes.
pub fn decode_segment(bytes: &[u8], first: &EpochKey) -> Result<CachedSegment, DecodeError> {
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
    if records.is_empty() || records.len() > SEGMENT_CAP || digest_bytes.len() != records.len() * 8
    {
        return Err(DecodeError::BadRecord);
    }
    let exit = MachineState::from_bytes(state_bytes).ok_or(DecodeError::BadSnapshot)?;
    let (_, last) = digest_bytes
        .split_last_chunk::<8>()
        .ok_or(DecodeError::BadRecord)?;
    if exit.digest() != u64::from_le_bytes(*last) {
        return Err(DecodeError::BadSnapshot);
    }
    Ok(CachedSegment { records, exit })
}

/// FNV-1a 64 over `bytes` — the payload checksum of the `SAEG` format.
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
    /// run asks the cluster once, not once per boundary.
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
        self.cache.lookup(&self.key(boundary))
    }

    fn lookup_segment(&mut self, boundary: &EpochBoundary) -> Option<CachedSegment> {
        if !self.remote_ok {
            return None;
        }
        let key = self.key(boundary);
        // A locally held epoch is served by `lookup` for free; the
        // fetch is only worth a round trip when this boundary would
        // otherwise simulate.
        if self.cache.has_local(&key) {
            return None;
        }
        // A hit fast-forwards through every epoch the peers hold, so
        // the first miss means they have nothing more for this run.
        let segment = self.cache.fetch_segment(&key);
        self.remote_ok = segment.is_some();
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
    use fxhash::FxHashSet;
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

    /// The keys of a fixed-config run recorded in `cache`, in epoch
    /// order: the chain from the machine's initial state, each key
    /// entered in the state the epoch before it exited in.
    fn recorded_keys(
        cache: &EpochCache,
        spec: MachineSpec,
        wl: &Workload,
        cfg: TransmuterConfig,
    ) -> Vec<EpochKey> {
        let mut key = EpochKey {
            spec: spec.fingerprint(),
            workload: wl.fingerprint(),
            config: cfg.fingerprint(),
            index: 0,
            entry_digest: Machine::new(spec, cfg).snapshot().digest(),
        };
        let mut keys = Vec::new();
        while let Some(epoch) = cache.peek(&key) {
            keys.push(key);
            key = successor_key(&key, &epoch.exit);
        }
        keys
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
        // One lookup per boundary of each run: the warm run stops at the
        // hit that finishes it.
        assert_eq!(s.lookups as usize, 2 * plain.epochs.len());
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

    /// Fixed bytes plus each distinct page once, recounted from the
    /// resident entries.
    fn recount_resident(cache: &EpochCache) -> usize {
        let inner = cache.inner.lock().expect("epoch cache lock");
        let mut pages = FxHashSet::default();
        let mut fixed = 0;
        for entry in inner.map.values() {
            fixed += std::mem::size_of::<CachedEpoch>() + entry.epoch.exit.approx_fixed_bytes();
            pages.extend(entry.epoch.exit.pages().map(|p| Arc::as_ptr(p) as usize));
        }
        fixed + pages.len() * Page::HEAP_BYTES
    }

    #[test]
    fn resident_bytes_count_each_shared_page_once() {
        // A pool of epochs from three runs: consecutive exit snapshots
        // of one run share pages.
        let spec = MachineSpec::default().with_epoch_ops(20);
        let source = EpochCache::new();
        for tag in [13, 14, 15] {
            run_hooked(
                &source,
                spec,
                &tiny_workload(tag),
                TransmuterConfig::baseline(),
            );
        }
        let pool: Vec<(EpochKey, Arc<CachedEpoch>)> = {
            let inner = source.inner.lock().expect("epoch cache lock");
            inner
                .map
                .iter()
                .map(|(k, e)| (*k, Arc::clone(&e.epoch)))
                .collect()
        };
        let page_refs: usize = pool.iter().map(|(_, e)| e.exit.pages().count()).sum();
        let reachable: usize = pool.iter().map(|(_, e)| e.exit.approx_heap_bytes()).sum();
        assert!(pool.len() > 8, "need a pool of epochs");
        assert!(
            source.stats().resident_bytes + page_refs / 4 * Page::HEAP_BYTES < reachable,
            "the pool's snapshots should share pages"
        );

        // Random inserts, evictions under random caps
        // and clears, on two caches holding the same pages: each counts
        // every page once, whichever of them claimed it.
        let caches = [EpochCache::new(), EpochCache::new()];
        let mut caps = [None, None];
        let mut shared_claims = 0;
        let mut x = 5u64;
        for step in 0..1200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = (x >> 40) as usize & 1;
            match x >> 59 {
                0 => caches[c].clear(),
                1..=3 => {
                    caps[c] = (x & 3 != 0).then(|| (x >> 8) as usize % (reachable / 4));
                    caches[c].set_memory_cap(caps[c]);
                }
                _ => {
                    let (key, epoch) = &pool[(x >> 20) as usize % pool.len()];
                    caches[c].admit(*key, Arc::clone(epoch));
                }
            }
            for (cache, cap) in caches.iter().zip(caps) {
                let resident = cache.stats().resident_bytes;
                assert_eq!(resident, recount_resident(cache), "step {step}");
                assert!(cap.is_none_or(|cap| resident <= cap), "step {step}");
                shared_claims += cache.inner.lock().expect("epoch cache lock").side.len();
            }
        }
        assert!(shared_claims > 0, "pages claimed by the other cache");
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
    /// shard is, minus the HTTP.
    struct Peer(Arc<EpochCache>);

    impl RemoteFetcher for Peer {
        fn fetch(&self, key: &EpochKey) -> Option<Vec<u8>> {
            self.0.export_segment(key)
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
        local.set_remote(Some(Arc::new(Peer(Arc::clone(&peer)))));
        let fetched = run_hooked(&local, spec, &wl, cfg);
        assert_eq!(fetched, warm, "remote epochs must replay bit-identically");
        let s = local.stats();
        assert_eq!(s.remote_hits, 1);
        assert_eq!(s.remote_chain_entries as usize, warm.epochs.len() - 1);
        assert_eq!(s.hits, 0);
        assert_eq!(s.inserts, 0, "every epoch came from the peer");
        assert!(s.remote_bytes > 0);
        // The segment carried the run to its end, so the run stops there
        // without probing a boundary past its last epoch.
        assert_eq!(s.remote_misses, 0);
        assert_eq!(s.remote_hit_rate(), 1.0);
        // The segment answered the one boundary the run looked up.
        assert_eq!(s.lookups, s.remote_hits);
        assert_eq!(s.hit_rate(), 1.0);
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
        local.set_remote(Some(Arc::new(Peer(Arc::clone(&peer)))));
        let fetched = run_hooked(&local, spec, &wl, cfg);
        assert_eq!(fetched, warm, "chained epochs must replay bit-identically");
        let s = local.stats();
        // One segment fetch fast-forwards the whole run; no later
        // boundary is ever looked up because the machine consumes the
        // segment in one step.
        assert_eq!(s.remote_hits, 1);
        assert_eq!(s.remote_chain_entries as usize, warm.epochs.len() - 1);
        assert_eq!(s.inserts, 0, "every epoch came from the peer");
        assert_eq!(s.remote_misses, 0);
        // A segment is replayed, never stored.
        assert_eq!(s.entries, 0);
        // So a rerun fetches the segment again and still replays
        // identically.
        let again = run_hooked(&local, spec, &wl, cfg);
        assert_eq!(again, warm);
        let s = local.stats();
        assert_eq!(s.remote_hits, 2);
        assert_eq!(s.remote_misses, 0);
    }

    #[test]
    fn export_segment_round_trips_and_caps() {
        let spec = MachineSpec::default().with_epoch_ops(30);
        let wl = tiny_workload(11);
        let cfg = TransmuterConfig::baseline();
        let peer = EpochCache::new();
        let run = run_hooked(&peer, spec, &wl, cfg);
        let keys = recorded_keys(&peer, spec, &wl, cfg);
        let first = keys[0];
        let full = peer.export_segment(&first).expect("segment");
        let segment = decode_segment(&full, &first).expect("decodes");
        assert_eq!(segment.records.len(), run.epochs.len(), "covers the run");
        let last = peer.peek(keys.last().expect("keys")).expect("last epoch");
        assert_eq!(segment.exit, last.exit, "ends in the run's exit state");
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
        assert!(peer.export_segment(&missing).is_none());

        // A run longer than the cap exports its first `SEGMENT_CAP`
        // epochs (the codec property suite checks that one more does
        // not decode).
        let streams = vec![vec![Op::Flops(1); SEGMENT_CAP + 20]; 16];
        let long = Workload::new("long", vec![Phase::new("p", streams)]);
        let spec = MachineSpec::default().with_epoch_ops(1);
        let run = run_hooked(&peer, spec, &long, cfg);
        assert!(run.epochs.len() > SEGMENT_CAP, "need a run past the cap");
        let first = recorded_keys(&peer, spec, &long, cfg)[0];
        let capped = peer.export_segment(&first).expect("segment");
        let segment = decode_segment(&capped, &first).expect("decodes");
        assert_eq!(segment.records.len(), SEGMENT_CAP);
    }

    /// A peer that answers every key with one fixed blob.
    struct Fixed(Vec<u8>);

    impl RemoteFetcher for Fixed {
        fn fetch(&self, _key: &EpochKey) -> Option<Vec<u8>> {
            Some(self.0.clone())
        }
    }

    #[test]
    fn blobs_for_another_key_are_rejected_by_fetch() {
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(10);
        let cfg = TransmuterConfig::baseline();
        let source = EpochCache::new();
        run_hooked(&source, spec, &wl, cfg);
        let keys = recorded_keys(&source, spec, &wl, cfg);
        assert!(keys.len() >= 2, "need two keys");
        let (a, b) = (keys[0], keys[1]);
        // Asked for `b`, a peer answering with `a`'s segment gives a
        // miss that admits nothing.
        let segment_a = source.export_segment(&a).expect("segment exports");
        assert_eq!(
            decode_segment(&segment_a, &b),
            Err(DecodeError::KeyMismatch)
        );
        let local = EpochCache::new();
        local.set_remote(Some(Arc::new(Fixed(segment_a))));
        assert!(local.fetch_segment(&b).is_none());
        let s = local.stats();
        assert_eq!((s.remote_hits, s.remote_misses, s.entries), (0, 1, 0));
    }

    /// A fetcher that always misses and counts how often it was asked.
    struct CountingMiss(AtomicU64);

    impl RemoteFetcher for CountingMiss {
        fn fetch(&self, _key: &EpochKey) -> Option<Vec<u8>> {
            self.0.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    #[test]
    fn a_cold_run_asks_its_peers_once() {
        let spec = MachineSpec::default().with_epoch_ops(30);
        let cfg = TransmuterConfig::baseline();
        let cache = EpochCache::new();
        let fetcher = Arc::new(CountingMiss(AtomicU64::new(0)));
        cache.set_remote(Some(fetcher.clone()));
        let asked = || fetcher.0.load(Ordering::Relaxed);
        for (tag, fetches) in [(16, 1), (17, 2)] {
            let wl = tiny_workload(tag);
            let plain = Machine::new(spec, cfg).run(&wl);
            assert!(plain.epochs.len() > 2, "need a multi-epoch run");
            assert_eq!(run_hooked(&cache, spec, &wl, cfg), plain);
            assert_eq!(asked(), fetches, "one fetch per cold run");
        }
        assert_eq!(cache.stats().remote_misses, 2);
        // A run this cache already holds never asks.
        run_hooked(&cache, spec, &tiny_workload(16), cfg);
        assert_eq!(asked(), 2);
    }

    #[test]
    fn fetched_segments_round_trip_and_garbage_is_a_miss() {
        let spec = MachineSpec::default().with_epoch_ops(120);
        let wl = tiny_workload(9);
        let cfg = TransmuterConfig::baseline();
        let peer = Arc::new(EpochCache::new());
        let run = run_hooked(&peer, spec, &wl, cfg);
        let keys = recorded_keys(&peer, spec, &wl, cfg);
        assert_eq!(keys.len(), run.epochs.len());
        let local = EpochCache::new();
        local.set_remote(Some(Arc::new(Peer(Arc::clone(&peer)))));
        let segment = local
            .fetch_segment(&keys[0])
            .expect("the peer holds the run");
        assert_eq!(segment.records, run.epochs);
        let last = peer.peek(keys.last().expect("keys")).expect("last epoch");
        assert_eq!(segment.exit, last.exit);
        let s = local.stats();
        assert_eq!((s.remote_hits, s.remote_misses, s.entries), (1, 0, 0));
        assert_eq!(s.remote_chain_entries as usize, keys.len() - 1);
        // Garbage from a peer is a miss and admits nothing.
        for garbage in [&b"SA"[..], b"SAEGgarbage", b"SAEPgarbage"] {
            let asking = EpochCache::new();
            asking.set_remote(Some(Arc::new(Fixed(garbage.to_vec()))));
            assert!(asking.fetch_segment(&keys[0]).is_none());
            let s = asking.stats();
            assert_eq!((s.remote_misses, s.entries), (1, 0));
        }
    }
}
