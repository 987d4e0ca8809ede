//! Cross-experiment trace cache.
//!
//! Several experiments sweep the *same* workload on the *same* machine
//! under overlapping configuration sets (e.g. the energy-efficient and
//! performance-objective figures, or a sweep reused by both the schemes
//! comparison and the analysis section). Simulating one
//! `(spec, workload, config)` triple is expensive and perfectly
//! deterministic, so the process-wide cache here makes every repeated
//! triple simulate exactly once.
//!
//! Keys are content fingerprints ([`MachineSpec::fingerprint`],
//! [`Workload::fingerprint`](transmuter::workload::Workload::fingerprint),
//! [`TransmuterConfig::fingerprint`]), so equality is by value, not by
//! identity. Values are `Arc<Vec<EpochRecord>>` — sharing a trace across
//! sweeps costs one pointer clone.
//!
//! Concurrency: each key maps to an `Arc<OnceLock<...>>` slot. A second
//! thread asking for an in-flight key blocks on `get_or_init` instead of
//! duplicating the simulation, and the per-key slot keeps the outer map
//! lock uncontended while simulations run. [`TraceCache::peek`] is the
//! lookup for a thread that must not wait (the serve daemon's event
//! loop): it answers completed in-memory traces only, and gives up
//! rather than block on the map lock.
//!
//! Memory: the resident set is bounded. [`TraceCache::set_memory_cap`]
//! sets a byte budget; once completed traces exceed it, the
//! least-recently-used ones are evicted (in-flight simulations are never
//! evicted — that would break the dedup guarantee). An evicted triple
//! simply re-simulates — or reloads from disk — on its next use, and
//! determinism makes the replacement bit-identical.
//!
//! An optional disk layer ([`TraceCache::set_disk_dir`]) persists traces
//! in the compact [`crate::trace_bin`] binary format so repeated
//! *processes* (e.g. successive `paper` invocations while iterating on
//! report code) skip simulation too.
//!
//! The disk layer is safe to *share between live processes* (e.g. the
//! shards of a `sparseadapt-serve` cluster mounting one `--cache-dir`):
//! every publish writes a temporary of the writer's own and renames it
//! into place, so readers only ever see complete files. Keys are
//! content fingerprints, so racing writers — threads or processes —
//! publish identical bytes and the last rename simply wins. Each file
//! carries its key and a checksum, so a file under another key's name
//! or with damaged records reads as a miss and is republished.
//!
//! An optional cluster tier ([`TraceCache::set_remote`]) is asked when
//! memory and disk both miss, before simulating: a [`RemoteFetcher`]
//! returns a peer's [`TraceCache::export`] of the key, the trace's
//! [`crate::trace_bin`] bytes, and the lookup decodes them against the
//! key it asked for. Whatever the fetcher returns, a lookup never
//! serves a trace that fails that decode; it simulates instead.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fxhash::FxHashMap;

use transmuter::config::{MachineSpec, TransmuterConfig};
use transmuter::machine::EpochRecord;
use transmuter::workload::Workload;

use crate::trace_bin;

/// Identity of one simulated trace: machine × workload × configuration,
/// all by content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// [`MachineSpec::fingerprint`] of the machine.
    pub spec: u64,
    /// [`Workload::fingerprint`](transmuter::workload::Workload::fingerprint)
    /// of the workload.
    pub workload: u64,
    /// [`TransmuterConfig::fingerprint`] of the configuration.
    pub config: u64,
}

impl TraceKey {
    /// Builds the key for a triple.
    pub fn new(spec: &MachineSpec, workload: &Workload, config: &TransmuterConfig) -> Self {
        TraceKey {
            spec: spec.fingerprint(),
            workload: workload.fingerprint(),
            config: config.fingerprint(),
        }
    }

    /// The key's text form: three fixed-width hex fingerprints joined
    /// by `-`, as in `GET /v2/cache/trace/{spec}-{workload}-{config}`
    /// and in the disk tier's file names.
    pub fn token(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}",
            self.spec, self.workload, self.config
        )
    }

    /// Inverse of [`TraceKey::token`]; `None` on anything that is not
    /// exactly three `-`-separated hex fields.
    pub fn parse_token(s: &str) -> Option<TraceKey> {
        let mut parts = s.split('-');
        let mut next = || u64::from_str_radix(parts.next()?, 16).ok();
        let key = TraceKey {
            spec: next()?,
            workload: next()?,
            config: next()?,
        };
        parts.next().is_none().then_some(key)
    }

    fn file_name(&self) -> String {
        format!("trace-{}.bin", self.token())
    }
}

/// A pluggable cluster tier: given a key, return a peer's
/// [`TraceCache::export`] bytes for it, or `None`.
///
/// Implementations bound `fetch` by a deadline of their own: the caller
/// is a lookup that simulates as soon as `fetch` returns nothing.
/// Returning wrong or corrupt bytes is safe (they fail decoding against
/// the key and read as a miss) but wasteful.
pub trait RemoteFetcher: Send + Sync {
    /// Fetches the encoded trace of `key`.
    fn fetch(&self, key: &TraceKey) -> Option<Vec<u8>>;
}

type Slot = Arc<OnceLock<Arc<Vec<EpochRecord>>>>;

struct Entry {
    slot: Slot,
    /// Logical timestamp of the most recent lookup (LRU order).
    last_use: u64,
    /// Accounted size once the slot is filled; 0 while in flight.
    bytes: usize,
}

#[derive(Default)]
struct Inner {
    /// Keyed map of traces. `FxHashMap` because the keys are already
    /// uniformly distributed fingerprints — SipHash buys nothing here,
    /// and lookups sit on every sweep's hot path.
    map: FxHashMap<TraceKey, Entry>,
    /// Monotonic lookup counter driving LRU order.
    clock: u64,
    /// Total accounted bytes of completed traces.
    resident: usize,
    /// Byte budget; `None` = unbounded.
    cap: Option<usize>,
}

/// Approximate heap footprint of a resident trace, used for the memory
/// cap. Epoch records are flat (no nested allocations), so the vector
/// storage is the whole cost.
fn trace_bytes(trace: &[EpochRecord]) -> usize {
    std::mem::size_of_val(trace)
}

/// Counter snapshot from [`TraceCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory without simulating.
    pub hits: u64,
    /// Lookups that ran the simulation.
    pub misses: u64,
    /// Lookups answered by loading a trace from the disk layer.
    pub disk_hits: u64,
    /// Lookups answered by a trace fetched from a cluster peer.
    pub remote_hits: u64,
    /// Peer fetches that returned nothing usable; each such lookup then
    /// simulated (and counts as a miss too).
    pub remote_misses: u64,
    /// Traces dropped to stay under the memory cap.
    pub evictions: u64,
    /// Traces published to the disk layer by this process.
    pub disk_writes: u64,
    /// Distinct traces currently held in memory.
    pub entries: usize,
    /// Accounted bytes of completed in-memory traces.
    pub resident_bytes: usize,
}

/// A content-addressed cache of simulation traces. Use
/// [`TraceCache::global`] to share across every sweep in the process.
#[derive(Default)]
pub struct TraceCache {
    inner: Mutex<Inner>,
    disk_dir: Mutex<Option<PathBuf>>,
    remote: Mutex<Option<Arc<dyn RemoteFetcher>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    remote_hits: AtomicU64,
    remote_misses: AtomicU64,
    evictions: AtomicU64,
    disk_writes: AtomicU64,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl TraceCache {
    /// An empty cache (tests; production code wants [`TraceCache::global`]).
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The process-wide cache instance.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
    }

    /// Enables (or disables, with `None`) the on-disk layer. The
    /// directory is created if missing. Per-trace disk I/O errors are
    /// treated as cache misses — the cache is best-effort by design —
    /// but an unusable directory is reported once, since it silently
    /// costs every future invocation a full re-simulation.
    pub fn set_disk_dir(&self, dir: Option<PathBuf>) {
        if let Some(d) = &dir {
            if let Err(e) = std::fs::create_dir_all(d) {
                eprintln!(
                    "warning: trace cache dir {} is unusable ({e}); running without disk cache",
                    d.display()
                );
            }
        }
        *self.disk_dir.lock().expect("disk_dir lock") = dir;
    }

    /// Installs (or removes, with `None`) the cluster tier: with a
    /// fetcher installed, a lookup that memory and disk cannot answer
    /// asks it before simulating.
    pub fn set_remote(&self, fetcher: Option<Arc<dyn RemoteFetcher>>) {
        *self.remote.lock().expect("remote lock") = fetcher;
    }

    /// Bounds the resident set to `cap` bytes (`None` = unbounded, the
    /// default). Takes effect immediately: if the cache is already over
    /// the new budget, least-recently-used traces are evicted now.
    pub fn set_memory_cap(&self, cap: Option<usize>) {
        let mut inner = self.inner.lock().expect("trace cache lock");
        inner.cap = cap;
        self.enforce_cap(&mut inner);
    }

    /// Accounted bytes of completed in-memory traces.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().expect("trace cache lock").resident
    }

    /// Returns the trace for `key`, simulating with `simulate` only if
    /// no other lookup (past or concurrently in flight) has produced it
    /// and neither the disk layer nor a cluster peer holds it.
    pub fn get_or_simulate(
        &self,
        key: TraceKey,
        simulate: impl FnOnce() -> Vec<EpochRecord>,
    ) -> Arc<Vec<EpochRecord>> {
        let slot: Slot = {
            let mut inner = self.inner.lock().expect("trace cache lock");
            inner.clock += 1;
            let clock = inner.clock;
            let entry = inner.map.entry(key).or_insert_with(|| Entry {
                slot: Slot::default(),
                last_use: clock,
                bytes: 0,
            });
            entry.last_use = clock;
            entry.slot.clone()
        };
        let mut computed = false;
        let trace = slot
            .get_or_init(|| {
                computed = true;
                if let Some(t) = self.disk_load(&key) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::new(t);
                }
                let t = self.remote_load(&key).unwrap_or_else(|| {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    simulate()
                });
                let t = Arc::new(t);
                self.disk_store(&key, &t);
                t
            })
            .clone();
        if computed {
            // Account the new trace and trim to the cap. The entry may
            // have been replaced if an eviction raced us; the Arc::ptr_eq
            // check makes sure we only bill the slot we actually filled.
            let bytes = trace_bytes(&trace);
            let mut inner = self.inner.lock().expect("trace cache lock");
            let ours = match inner.map.get_mut(&key) {
                Some(entry) if Arc::ptr_eq(&entry.slot, &slot) && entry.bytes == 0 => {
                    entry.bytes = bytes;
                    true
                }
                _ => false,
            };
            if ours {
                inner.resident += bytes;
                self.enforce_cap(&mut inner);
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        trace
    }

    /// The trace for `key` if it is already complete in memory: a
    /// lookup that never simulates, never reads disk and never waits.
    /// `None` when the trace is absent, still in flight, or the map's
    /// lock is held (an eviction scan may hold it for a while). A hit
    /// counts as a hit and refreshes the entry's LRU position, exactly
    /// as a [`TraceCache::get_or_simulate`] hit does; a `None` counts
    /// nothing, since the caller falls back to `get_or_simulate`, which
    /// counts that lookup itself.
    pub fn peek(&self, key: &TraceKey) -> Option<Arc<Vec<EpochRecord>>> {
        let mut guard = self.inner.try_lock().ok()?;
        let inner = &mut *guard;
        let entry = inner.map.get_mut(key)?;
        let trace = Arc::clone(entry.slot.get()?);
        inner.clock += 1;
        entry.last_use = inner.clock;
        drop(guard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(trace)
    }

    /// The [`crate::trace_bin`] bytes of `key`'s trace if it is complete
    /// in memory: what a peer's [`RemoteFetcher`] asks this cache for.
    /// An export is not local cache traffic, so it counts no hit and
    /// leaves the entry's LRU position alone. `None` when the trace is
    /// absent or still in flight; it never simulates or reads disk.
    pub fn export(&self, key: &TraceKey) -> Option<Vec<u8>> {
        let trace = {
            let inner = self.inner.lock().expect("trace cache lock");
            Arc::clone(inner.map.get(key)?.slot.get()?)
        };
        Some(trace_bin::encode_trace(key, &trace))
    }

    /// Evicts least-recently-used *completed* traces until the resident
    /// set fits the cap. In-flight entries (empty slots) are exempt:
    /// evicting one would let a concurrent lookup start a duplicate
    /// simulation.
    fn enforce_cap(&self, inner: &mut Inner) {
        let Some(cap) = inner.cap else { return };
        while inner.resident > cap {
            let victim = inner
                .map
                .iter()
                .filter(|(_, e)| e.bytes > 0 && e.slot.get().is_some())
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            if let Some(entry) = inner.map.remove(&key) {
                inner.resident -= entry.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("trace cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            remote_hits: self.remote_hits.load(Ordering::Relaxed),
            remote_misses: self.remote_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            entries: inner.map.len(),
            resident_bytes: inner.resident,
        }
    }

    /// Drops every in-memory trace and zeroes the counters (the disk
    /// layer and the cluster tier, if any, are left installed).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace cache lock");
        inner.map.clear();
        inner.resident = 0;
        inner.clock = 0;
        drop(inner);
        for counter in [
            &self.hits,
            &self.misses,
            &self.disk_hits,
            &self.remote_hits,
            &self.remote_misses,
            &self.evictions,
            &self.disk_writes,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    fn disk_path(&self, key: &TraceKey) -> Option<PathBuf> {
        self.disk_dir
            .lock()
            .expect("disk_dir lock")
            .as_ref()
            .map(|d| d.join(key.file_name()))
    }

    /// Reads the trace for `key` from the disk layer. A missing, corrupt,
    /// stale-version or misnamed file reads as a miss, and the caller
    /// re-derives.
    fn disk_load(&self, key: &TraceKey) -> Option<Vec<EpochRecord>> {
        let bytes = std::fs::read(self.disk_path(key)?).ok()?;
        trace_bin::decode_trace(&bytes, key).ok()
    }

    /// Asks the cluster tier for `key`, counting a hit or a miss; `None`
    /// without counting when no tier is installed.
    fn remote_load(&self, key: &TraceKey) -> Option<Vec<EpochRecord>> {
        let fetcher = self.remote.lock().expect("remote lock").clone()?;
        let trace = fetcher
            .fetch(key)
            .and_then(|bytes| trace_bin::decode_trace(&bytes, key).ok());
        let counter = match trace {
            Some(_) => &self.remote_hits,
            None => &self.remote_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        trace
    }

    fn disk_store(&self, key: &TraceKey, trace: &[EpochRecord]) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        if write_then_rename(&path, &trace_bin::encode_trace(key, trace)).is_ok() {
            self.disk_writes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Publishes `bytes` at `path` so that a concurrent reader (another
/// process or thread sharing the directory) sees either the old file or
/// the complete new one, never a torn write: the bytes go to a
/// temporary beside `path`, which is then renamed into place. The
/// temporary is named by the process and a per-process counter, so no
/// two writers share one — neither two processes publishing one key
/// into a shared directory nor two threads of one process — and it is
/// removed again if the write or the rename fails, so a failed publish
/// leaves nothing behind.
fn write_then_rename(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".tmp.{}.{n}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Simulates one configuration of a workload on a fresh machine —
/// the unit of work the cache memoises.
pub fn simulate_trace(
    spec: MachineSpec,
    workload: &Workload,
    config: TransmuterConfig,
) -> Vec<EpochRecord> {
    transmuter::machine::Machine::new(spec, config)
        .run(workload)
        .epochs
}

/// [`simulate_trace`] through the frozen pre-SoA reference path
/// ([`transmuter::machine::Machine::run_reference`]). Bit-identical to
/// [`simulate_trace`] by contract; exists for differential testing and
/// as the honest legacy baseline in `sweep_bench`'s A/B mode.
pub fn simulate_trace_reference(
    spec: MachineSpec,
    workload: &Workload,
    config: TransmuterConfig,
) -> Vec<EpochRecord> {
    transmuter::machine::Machine::new(spec, config)
        .run_reference(workload)
        .epochs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use transmuter::workload::{Op, OpStream, Phase};

    fn tiny_workload(tag: u64) -> Workload {
        let streams: Vec<OpStream> = (0..16)
            .map(|g| {
                (0..50u64)
                    .flat_map(|i| {
                        [
                            Op::Load {
                                addr: tag * (1 << 20) + g as u64 * 4096 + i * 32,
                                pc: 1,
                            },
                            Op::Flops(1),
                        ]
                    })
                    .collect()
            })
            .collect();
        Workload::new("tiny", vec![Phase::new("p", streams)])
    }

    #[test]
    fn second_lookup_skips_simulation() {
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(1);
        let cfg = TransmuterConfig::baseline();
        let sims = AtomicUsize::new(0);
        let run = || {
            cache.get_or_simulate(TraceKey::new(&spec, &wl, &cfg), || {
                sims.fetch_add(1, Ordering::Relaxed);
                simulate_trace(spec, &wl, cfg)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(sims.load(Ordering::Relaxed), 1, "second lookup must hit");
        assert!(Arc::ptr_eq(&a, &b), "hits share the same trace");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.resident_bytes, trace_bytes(&a));
    }

    #[test]
    fn distinct_triples_do_not_collide() {
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl1 = tiny_workload(1);
        let wl2 = tiny_workload(2);
        let cfg = TransmuterConfig::baseline();
        let t1 = cache.get_or_simulate(TraceKey::new(&spec, &wl1, &cfg), || {
            simulate_trace(spec, &wl1, cfg)
        });
        let t2 = cache.get_or_simulate(TraceKey::new(&spec, &wl2, &cfg), || {
            simulate_trace(spec, &wl2, cfg)
        });
        assert!(!Arc::ptr_eq(&t1, &t2));
        assert_eq!(cache.stats().misses, 2);
        // Same triple again -> same Arc.
        let t1b =
            cache.get_or_simulate(TraceKey::new(&spec, &wl1, &cfg), || unreachable!("cached"));
        assert!(Arc::ptr_eq(&t1, &t1b));
    }

    #[test]
    fn concurrent_misses_simulate_once() {
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(3);
        let cfg = TransmuterConfig::baseline();
        let sims = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.get_or_simulate(TraceKey::new(&spec, &wl, &cfg), || {
                        sims.fetch_add(1, Ordering::Relaxed);
                        simulate_trace(spec, &wl, cfg)
                    });
                });
            }
        });
        assert_eq!(sims.load(Ordering::Relaxed), 1, "in-flight dedup failed");
    }

    #[test]
    fn disk_layer_survives_a_clear() {
        let dir = std::env::temp_dir().join(format!("sa-trace-cache-test-{}", std::process::id()));
        let cache = TraceCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(4);
        let cfg = TransmuterConfig::baseline();
        let first = cache.get_or_simulate(TraceKey::new(&spec, &wl, &cfg), || {
            simulate_trace(spec, &wl, cfg)
        });
        // Forget the in-memory copy; the trace must come back from disk.
        cache.clear();
        let second = cache.get_or_simulate(TraceKey::new(&spec, &wl, &cfg), || {
            unreachable!("disk layer should satisfy this lookup")
        });
        assert_eq!(*first, *second, "disk round-trip changed the trace");
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn second_cache_instance_hits_the_firsts_disk_entry() {
        // Two `TraceCache` instances sharing one directory model two
        // daemon processes mounting the same `--cache-dir`: the second
        // must be served from the first's published bytes.
        let dir =
            std::env::temp_dir().join(format!("sa-trace-cache-shared-{}", std::process::id()));
        let writer = TraceCache::new();
        writer.set_disk_dir(Some(dir.clone()));
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(7);
        let cfg = TransmuterConfig::baseline();
        let first = writer.get_or_simulate(TraceKey::new(&spec, &wl, &cfg), || {
            simulate_trace(spec, &wl, cfg)
        });
        assert_eq!(writer.stats().disk_writes, 1);

        let reader = TraceCache::new();
        reader.set_disk_dir(Some(dir.clone()));
        let second = reader.get_or_simulate(TraceKey::new(&spec, &wl, &cfg), || {
            unreachable!("the other instance's disk entry should satisfy this lookup")
        });
        assert_eq!(*first, *second);
        assert_eq!(reader.stats().disk_hits, 1);
        assert_eq!(reader.stats().misses, 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_binary_trace_falls_back_to_resimulation() {
        let dir =
            std::env::temp_dir().join(format!("sa-trace-cache-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(6);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        std::fs::write(dir.join(key.file_name()), b"not a trace").expect("write");
        let cache = TraceCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let sims = AtomicUsize::new(0);
        let got = cache.get_or_simulate(TraceKey::new(&spec, &wl, &cfg), || {
            sims.fetch_add(1, Ordering::Relaxed);
            simulate_trace(spec, &wl, cfg)
        });
        assert_eq!(sims.load(Ordering::Relaxed), 1, "corrupt file must miss");
        assert_eq!(*got, simulate_trace(spec, &wl, cfg));
        // The recompute published a whole file over the corrupt one.
        let bytes = std::fs::read(dir.join(key.file_name())).expect("republished");
        assert_eq!(
            trace_bin::decode_trace(&bytes, &key).expect("decodes"),
            *got
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_misnamed_file_reads_as_a_miss_and_is_republished() {
        let dir =
            std::env::temp_dir().join(format!("sa-trace-cache-misnamed-{}", std::process::id()));
        let spec = MachineSpec::default().with_epoch_ops(100);
        let cfg = TransmuterConfig::baseline();
        let (wl_a, wl_b) = (tiny_workload(8), tiny_workload(9));
        let (key_a, key_b) = (
            TraceKey::new(&spec, &wl_a, &cfg),
            TraceKey::new(&spec, &wl_b, &cfg),
        );
        let cache = TraceCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        cache.get_or_simulate(key_a, || simulate_trace(spec, &wl_a, cfg));
        // A well-formed file copied under another key's name.
        std::fs::copy(dir.join(key_a.file_name()), dir.join(key_b.file_name())).expect("copy");
        cache.clear();
        let sims = AtomicUsize::new(0);
        let got = cache.get_or_simulate(key_b, || {
            sims.fetch_add(1, Ordering::Relaxed);
            simulate_trace(spec, &wl_b, cfg)
        });
        assert_eq!(
            sims.load(Ordering::Relaxed),
            1,
            "another key's file must miss"
        );
        assert_eq!(*got, simulate_trace(spec, &wl_b, cfg));
        let s = cache.stats();
        assert_eq!((s.disk_hits, s.misses, s.disk_writes), (0, 1, 1));
        // The recompute published the right trace over the copy.
        let bytes = std::fs::read(dir.join(key_b.file_name())).expect("republished");
        assert_eq!(
            trace_bin::decode_trace(&bytes, &key_b).expect("decodes"),
            *got
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_rename_removes_the_temporary() {
        let dir =
            std::env::temp_dir().join(format!("sa-trace-cache-rename-{}", std::process::id()));
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(15);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        // A directory at the target path makes the final rename fail.
        std::fs::create_dir_all(dir.join(key.file_name())).expect("plant dir");
        let cache = TraceCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let got = cache.get_or_simulate(TraceKey::new(&spec, &wl, &cfg), || {
            simulate_trace(spec, &wl, cfg)
        });
        assert_eq!(*got, simulate_trace(spec, &wl, cfg));
        assert_eq!(cache.stats().disk_writes, 0);
        // The temporary is not left behind.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![key.file_name()]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn racing_inserts_publish_whole_files() {
        let dir = std::env::temp_dir().join(format!("sa-trace-cache-race-{}", std::process::id()));
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(16);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        let trace = simulate_trace(spec, &wl, cfg);
        let path = dir.join(key.file_name());
        let whole = |bytes: &[u8]| trace_bin::decode_trace(bytes, &key).is_ok_and(|t| t == trace);
        for round in 0..50 {
            // Each writer is a cache of its own on the shared directory,
            // as each shard process of a cluster is; nothing serialises
            // their publishes.
            let caches: Vec<TraceCache> = (0..8)
                .map(|_| {
                    let cache = TraceCache::new();
                    cache.set_disk_dir(Some(dir.clone()));
                    cache
                })
                .collect();
            let _ = std::fs::remove_file(&path);
            std::thread::scope(|s| {
                let writers: Vec<_> = caches
                    .iter()
                    .map(|cache| s.spawn(|| cache.get_or_simulate(key, || trace.clone())))
                    .collect();
                // A reader sharing the directory must never see a file
                // that is still being written.
                while !writers.iter().all(|w| w.is_finished()) {
                    if let Ok(bytes) = std::fs::read(&path) {
                        assert!(whole(&bytes), "round {round}: a reader saw a torn file");
                    }
                }
            });
            let bytes = std::fs::read(&path).expect("published");
            assert!(whole(&bytes), "round {round}");
            let names: Vec<_> = std::fs::read_dir(&dir)
                .expect("dir")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .collect();
            assert!(
                names.iter().all(|n| !n.contains(".tmp.")),
                "round {round}: {names:?}"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn memory_cap_evicts_lru_and_rebuilds_identically() {
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let cfg = TransmuterConfig::baseline();
        let wls: Vec<Workload> = (10..14).map(tiny_workload).collect();
        let one = trace_bytes(&simulate_trace(spec, &wls[0], cfg));
        assert!(one > 0);
        // Room for two traces.
        cache.set_memory_cap(Some(2 * one));
        let originals: Vec<_> = wls
            .iter()
            .map(|wl| {
                cache.get_or_simulate(TraceKey::new(&spec, wl, &cfg), || {
                    simulate_trace(spec, wl, cfg)
                })
            })
            .collect();
        let s = cache.stats();
        assert!(
            s.resident_bytes <= 2 * one,
            "cap violated: {} > {}",
            s.resident_bytes,
            2 * one
        );
        assert_eq!(s.evictions, 2, "two of four traces must have been evicted");
        // The oldest workload was evicted; looking it up re-simulates and
        // the deterministic simulator reproduces the trace exactly.
        let sims = AtomicUsize::new(0);
        let again = cache.get_or_simulate(TraceKey::new(&spec, &wls[0], &cfg), || {
            sims.fetch_add(1, Ordering::Relaxed);
            simulate_trace(spec, &wls[0], cfg)
        });
        assert_eq!(sims.load(Ordering::Relaxed), 1, "evicted entry must miss");
        assert_eq!(*again, *originals[0], "re-simulation must be identical");
        // The most recent trace survived the whole time.
        let kept = cache.get_or_simulate(TraceKey::new(&spec, &wls[3], &cfg), || {
            unreachable!("most recent trace should still be resident")
        });
        assert!(Arc::ptr_eq(&kept, &originals[3]));
    }

    #[test]
    fn concurrent_lookups_with_cap_do_not_deadlock() {
        // Eight threads hammer six keys under a cap that holds only two
        // traces, forcing constant eviction and re-simulation while
        // in-flight dedup is active. The test passes by terminating with
        // correct traces and the cap intact.
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let cfg = TransmuterConfig::baseline();
        let wls: Vec<Workload> = (20..26).map(tiny_workload).collect();
        let expected: Vec<Vec<EpochRecord>> =
            wls.iter().map(|wl| simulate_trace(spec, wl, cfg)).collect();
        let one = trace_bytes(&expected[0]);
        cache.set_memory_cap(Some(2 * one));
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let cache = &cache;
                let wls = &wls;
                let expected = &expected;
                scope.spawn(move || {
                    for i in 0..12 {
                        let k = (t + i) % wls.len();
                        let got = cache
                            .get_or_simulate(TraceKey::new(&spec, &wls[k], &cfg), || {
                                simulate_trace(spec, &wls[k], cfg)
                            });
                        assert_eq!(*got, expected[k]);
                    }
                });
            }
        });
        assert!(cache.resident_bytes() <= 2 * one);
    }

    #[test]
    fn peek_hits_a_resident_trace_and_counts_one_hit() {
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(40);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        let stored = cache.get_or_simulate(key, || simulate_trace(spec, &wl, cfg));
        let peeked = cache.peek(&key).expect("resident trace");
        assert!(
            Arc::ptr_eq(&stored, &peeked),
            "a peek shares the resident trace"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.disk_hits), (1, 1, 0));
    }

    #[test]
    fn peeked_entry_outlives_an_older_unpeeked_one_under_a_cap() {
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let cfg = TransmuterConfig::baseline();
        let wls: Vec<Workload> = (41..44).map(tiny_workload).collect();
        let keys: Vec<TraceKey> = wls.iter().map(|w| TraceKey::new(&spec, w, &cfg)).collect();
        let one = trace_bytes(&simulate_trace(spec, &wls[0], cfg));
        // Room for two traces.
        cache.set_memory_cap(Some(2 * one));
        for (key, wl) in keys.iter().zip(&wls).take(2) {
            cache.get_or_simulate(*key, || simulate_trace(spec, wl, cfg));
        }
        // The oldest entry is refreshed by a peek, so the third insert
        // evicts the second one instead.
        assert!(cache.peek(&keys[0]).is_some());
        cache.get_or_simulate(keys[2], || simulate_trace(spec, &wls[2], cfg));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.peek(&keys[0]).is_some(), "the peeked entry stays");
        assert!(cache.peek(&keys[1]).is_none(), "the unpeeked entry went");
    }

    #[test]
    fn peek_gives_up_on_an_in_flight_trace_and_a_held_lock() {
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(44);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let (cache, wl) = (&cache, &wl);
            let leader = scope.spawn(move || {
                cache.get_or_simulate(key, || {
                    started_tx.send(()).expect("signal start");
                    release_rx.recv().expect("release");
                    simulate_trace(spec, wl, cfg)
                })
            });
            started_rx.recv().expect("simulation started");
            // The simulation is parked until released, so a peek that
            // waited for it would never return.
            assert!(
                cache.peek(&key).is_none(),
                "an in-flight trace is not a hit"
            );
            assert!(cache.export(&key).is_none(), "nor is it exported");
            release_tx.send(()).expect("release the simulation");
            leader.join().expect("leader thread");
        });
        let held = cache.inner.lock().expect("trace cache lock");
        assert!(cache.peek(&key).is_none(), "a held lock is not waited for");
        drop(held);
        assert!(cache.peek(&key).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1), "only the last peek counts");
    }

    #[test]
    fn peek_misses_absent_and_disk_only_traces_without_counting_or_simulating() {
        let dir = std::env::temp_dir().join(format!("sa-trace-cache-peek-{}", std::process::id()));
        let cache = TraceCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(45);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        assert!(cache.peek(&key).is_none(), "absent");
        cache.get_or_simulate(key, || simulate_trace(spec, &wl, cfg));
        assert_eq!(cache.stats().disk_writes, 1);
        // Forget the in-memory copy: the trace now lives on disk only.
        cache.clear();
        assert!(cache.peek(&key).is_none(), "disk-only");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.disk_hits, s.entries), (0, 0, 0, 0));
        // The disk copy is still there for the blocking lookup.
        cache.get_or_simulate(key, || unreachable!("served from disk"));
        assert_eq!(cache.stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn key_token_round_trips_and_rejects_garbage() {
        let key = TraceKey {
            spec: 0xdead_beef_0000_0001,
            workload: 2,
            config: u64::MAX,
        };
        assert_eq!(TraceKey::parse_token(&key.token()), Some(key));
        assert_eq!(key.file_name(), format!("trace-{}.bin", key.token()));
        for bad in [
            "",
            "zz",
            "1-2",
            "1-2-3-4",
            "1-2-not_hex",
            "0123456789abcdef01-2-3",
        ] {
            assert_eq!(TraceKey::parse_token(bad), None, "{bad:?}");
        }
    }

    /// A cluster tier backed by another in-process cache: what a peer
    /// shard is, minus the HTTP.
    struct Peer(Arc<TraceCache>);

    impl RemoteFetcher for Peer {
        fn fetch(&self, key: &TraceKey) -> Option<Vec<u8>> {
            self.0.export(key)
        }
    }

    /// A peer that answers every key with one fixed blob.
    struct Fixed(Vec<u8>);

    impl RemoteFetcher for Fixed {
        fn fetch(&self, _key: &TraceKey) -> Option<Vec<u8>> {
            Some(self.0.clone())
        }
    }

    /// A peer that never has anything and counts how often it was asked.
    struct CountingMiss(AtomicUsize);

    impl RemoteFetcher for CountingMiss {
        fn fetch(&self, _key: &TraceKey) -> Option<Vec<u8>> {
            self.0.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    #[test]
    fn remote_tier_serves_peer_traces_bit_identically() {
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(50);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        let peer = Arc::new(TraceCache::new());
        let warm = peer.get_or_simulate(key, || simulate_trace(spec, &wl, cfg));
        let local = TraceCache::new();
        local.set_remote(Some(Arc::new(Peer(Arc::clone(&peer)))));
        let fetched = local.get_or_simulate(key, || unreachable!("the peer holds the trace"));
        assert_eq!(*fetched, *warm, "a fetched trace is the peer's trace");
        let s = local.stats();
        assert_eq!((s.remote_hits, s.remote_misses, s.misses), (1, 0, 0));
        assert_eq!(s.entries, 1, "a fetched trace stays resident");
        // The rerun is a memory hit and asks nobody.
        local.get_or_simulate(key, || unreachable!("resident"));
        let s = local.stats();
        assert_eq!((s.hits, s.remote_hits), (1, 1));
        // The peer counted none of it as its own traffic.
        let p = peer.stats();
        assert_eq!((p.hits, p.misses), (0, 1));
    }

    #[test]
    fn blobs_for_another_key_are_rejected_by_fetch() {
        let spec = MachineSpec::default().with_epoch_ops(100);
        let cfg = TransmuterConfig::baseline();
        let (wl_a, wl_b) = (tiny_workload(51), tiny_workload(52));
        let (a, b) = (
            TraceKey::new(&spec, &wl_a, &cfg),
            TraceKey::new(&spec, &wl_b, &cfg),
        );
        let peer = TraceCache::new();
        peer.get_or_simulate(a, || simulate_trace(spec, &wl_a, cfg));
        let blob_a = peer.export(&a).expect("resident");
        assert_eq!(
            trace_bin::decode_trace(&blob_a, &b),
            Err(trace_bin::DecodeError::KeyMismatch)
        );
        // Asked for `b`, a peer answering with `a`'s trace gives a miss,
        // and the lookup simulates `b` itself.
        let local = TraceCache::new();
        local.set_remote(Some(Arc::new(Fixed(blob_a))));
        let got = local.get_or_simulate(b, || simulate_trace(spec, &wl_b, cfg));
        assert_eq!(*got, simulate_trace(spec, &wl_b, cfg));
        let s = local.stats();
        assert_eq!((s.remote_hits, s.remote_misses, s.misses), (0, 1, 1));
    }

    #[test]
    fn fetched_traces_round_trip_and_garbage_is_a_miss() {
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(53);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        let peer = TraceCache::new();
        let trace = peer.get_or_simulate(key, || simulate_trace(spec, &wl, cfg));
        let blob = peer.export(&key).expect("resident");
        assert_eq!(
            trace_bin::decode_trace(&blob, &key).expect("decodes"),
            *trace
        );
        // Garbage and damaged bytes from a peer are misses that simulate.
        let mut flipped = blob.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        for garbage in [b"SA".to_vec(), b"SATRgarbage".to_vec(), flipped] {
            let asking = TraceCache::new();
            asking.set_remote(Some(Arc::new(Fixed(garbage))));
            let got = asking.get_or_simulate(key, || simulate_trace(spec, &wl, cfg));
            assert_eq!(*got, *trace);
            let s = asking.stats();
            assert_eq!((s.remote_hits, s.remote_misses, s.misses), (0, 1, 1));
        }
    }

    #[test]
    fn a_miss_asks_its_peers_once() {
        let dir = std::env::temp_dir().join(format!("sa-trace-cache-asks-{}", std::process::id()));
        let spec = MachineSpec::default().with_epoch_ops(100);
        let wl = tiny_workload(54);
        let cfg = TransmuterConfig::baseline();
        let key = TraceKey::new(&spec, &wl, &cfg);
        let cache = TraceCache::new();
        cache.set_disk_dir(Some(dir.clone()));
        let fetcher = Arc::new(CountingMiss(AtomicUsize::new(0)));
        cache.set_remote(Some(fetcher.clone()));
        let asked = || fetcher.0.load(Ordering::Relaxed);
        cache.get_or_simulate(key, || simulate_trace(spec, &wl, cfg));
        assert_eq!(asked(), 1, "a cold lookup asks once, then simulates");
        // Neither a resident trace nor a disk copy asks again.
        cache.get_or_simulate(key, || unreachable!("resident"));
        cache.clear();
        cache.get_or_simulate(key, || unreachable!("on disk"));
        assert_eq!(asked(), 1);
        let s = cache.stats();
        assert_eq!(
            (s.disk_hits, s.remote_misses),
            (1, 0),
            "counters were cleared"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn export_counts_no_hit_and_keeps_lru_order() {
        let cache = TraceCache::new();
        let spec = MachineSpec::default().with_epoch_ops(100);
        let cfg = TransmuterConfig::baseline();
        let wls: Vec<Workload> = (55..58).map(tiny_workload).collect();
        let keys: Vec<TraceKey> = wls.iter().map(|w| TraceKey::new(&spec, w, &cfg)).collect();
        assert!(cache.export(&keys[0]).is_none(), "absent");
        let one = trace_bytes(&simulate_trace(spec, &wls[0], cfg));
        // Room for two traces.
        cache.set_memory_cap(Some(2 * one));
        for (key, wl) in keys.iter().zip(&wls).take(2) {
            cache.get_or_simulate(*key, || simulate_trace(spec, wl, cfg));
        }
        let exported = cache.export(&keys[0]).expect("resident");
        assert_eq!(
            trace_bin::decode_trace(&exported, &keys[0]).expect("decodes"),
            simulate_trace(spec, &wls[0], cfg)
        );
        assert_eq!(cache.stats().hits, 0, "an export is not a hit");
        // The export did not refresh the oldest entry, so the third
        // insert still evicts it.
        cache.get_or_simulate(keys[2], || simulate_trace(spec, &wls[2], cfg));
        assert!(cache.export(&keys[0]).is_none(), "the exported entry went");
        assert!(cache.export(&keys[1]).is_some());
    }

    // --- property tests -------------------------------------------------

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Under any interleaving of lookups across workloads and
        /// configurations, and any cap size: the byte budget holds after
        /// every single operation, and every returned trace — fresh,
        /// cached, or re-simulated after eviction — equals an uncached
        /// reference simulation.
        #[test]
        fn cap_holds_under_arbitrary_lookup_sequences(
            ops in proptest::collection::vec((0usize..5, 0usize..3), 1..=24),
            cap_traces in 1usize..4,
        ) {
            let cache = TraceCache::new();
            let spec = MachineSpec::default().with_epoch_ops(100);
            let wls: Vec<Workload> = (30..35).map(tiny_workload).collect();
            let mut cfgs = [TransmuterConfig::baseline(); 3];
            cfgs[1] = TransmuterConfig::best_avg_cache();
            cfgs[2].prefetch_degree = 0;
            let one = trace_bytes(&simulate_trace(spec, &wls[0], cfgs[0]));
            let cap = cap_traces * one;
            cache.set_memory_cap(Some(cap));
            for &(w, c) in &ops {
                let got = cache.get_or_simulate(TraceKey::new(&spec, &wls[w], &cfgs[c]), || {
                    simulate_trace(spec, &wls[w], cfgs[c])
                });
                prop_assert_eq!(&*got, &simulate_trace(spec, &wls[w], cfgs[c]));
                let resident = cache.resident_bytes();
                prop_assert!(resident <= cap, "cap {} exceeded: {}", cap, resident);
            }
            // Internal accounting agrees with a recount of what is held.
            let s = cache.stats();
            prop_assert_eq!(s.resident_bytes, cache.resident_bytes());
            prop_assert!(s.entries <= wls.len() * cfgs.len());
        }
    }
}
