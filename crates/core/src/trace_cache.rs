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
//! publish identical bytes and the last rename simply wins.

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

    fn file_name(&self) -> String {
        format!(
            "trace-{:016x}-{:016x}-{:016x}.bin",
            self.spec, self.workload, self.config
        )
    }
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
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
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
    /// no other lookup (past or concurrently in flight) has produced it.
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
                self.misses.fetch_add(1, Ordering::Relaxed);
                let t = Arc::new(simulate());
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

    /// Convenience wrapper building the [`TraceKey`] from the triple.
    pub fn get_or_simulate_for(
        &self,
        spec: &MachineSpec,
        workload: &Workload,
        config: &TransmuterConfig,
        simulate: impl FnOnce() -> Vec<EpochRecord>,
    ) -> Arc<Vec<EpochRecord>> {
        self.get_or_simulate(TraceKey::new(spec, workload, config), simulate)
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("trace cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            entries: inner.map.len(),
            resident_bytes: inner.resident,
        }
    }

    /// Drops every in-memory trace and zeroes the counters (the disk
    /// layer, if any, is left untouched).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("trace cache lock");
        inner.map.clear();
        inner.resident = 0;
        inner.clock = 0;
        drop(inner);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.disk_hits.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.disk_writes.store(0, Ordering::Relaxed);
    }

    fn disk_path(&self, key: &TraceKey) -> Option<PathBuf> {
        self.disk_dir
            .lock()
            .expect("disk_dir lock")
            .as_ref()
            .map(|d| d.join(key.file_name()))
    }

    /// Reads the trace for `key` from the disk layer. A missing, corrupt
    /// or stale-version file reads as a miss, and the caller re-derives.
    fn disk_load(&self, key: &TraceKey) -> Option<Vec<EpochRecord>> {
        let bytes = std::fs::read(self.disk_path(key)?).ok()?;
        trace_bin::decode_trace(&bytes).ok()
    }

    fn disk_store(&self, key: &TraceKey, trace: &[EpochRecord]) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        if write_then_rename(&path, &trace_bin::encode_trace(trace)).is_ok() {
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
    use transmuter::workload::{Op, Phase};

    fn tiny_workload(tag: u64) -> Workload {
        let streams: Vec<Vec<Op>> = (0..16)
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
            cache.get_or_simulate_for(&spec, &wl, &cfg, || {
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
        let t1 = cache.get_or_simulate_for(&spec, &wl1, &cfg, || simulate_trace(spec, &wl1, cfg));
        let t2 = cache.get_or_simulate_for(&spec, &wl2, &cfg, || simulate_trace(spec, &wl2, cfg));
        assert!(!Arc::ptr_eq(&t1, &t2));
        assert_eq!(cache.stats().misses, 2);
        // Same triple again -> same Arc.
        let t1b = cache.get_or_simulate_for(&spec, &wl1, &cfg, || unreachable!("cached"));
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
                    cache.get_or_simulate_for(&spec, &wl, &cfg, || {
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
        let first = cache.get_or_simulate_for(&spec, &wl, &cfg, || simulate_trace(spec, &wl, cfg));
        // Forget the in-memory copy; the trace must come back from disk.
        cache.clear();
        let second = cache.get_or_simulate_for(&spec, &wl, &cfg, || {
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
        let first = writer.get_or_simulate_for(&spec, &wl, &cfg, || simulate_trace(spec, &wl, cfg));
        assert_eq!(writer.stats().disk_writes, 1);

        let reader = TraceCache::new();
        reader.set_disk_dir(Some(dir.clone()));
        let second = reader.get_or_simulate_for(&spec, &wl, &cfg, || {
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
        let got = cache.get_or_simulate_for(&spec, &wl, &cfg, || {
            sims.fetch_add(1, Ordering::Relaxed);
            simulate_trace(spec, &wl, cfg)
        });
        assert_eq!(sims.load(Ordering::Relaxed), 1, "corrupt file must miss");
        assert_eq!(*got, simulate_trace(spec, &wl, cfg));
        // The recompute published a whole file over the corrupt one.
        let bytes = std::fs::read(dir.join(key.file_name())).expect("republished");
        assert_eq!(trace_bin::decode_trace(&bytes).expect("decodes"), *got);
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
        let got = cache.get_or_simulate_for(&spec, &wl, &cfg, || simulate_trace(spec, &wl, cfg));
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
        let whole = |bytes: &[u8]| trace_bin::decode_trace(bytes).is_ok_and(|t| t == trace);
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
            .map(|wl| cache.get_or_simulate_for(&spec, wl, &cfg, || simulate_trace(spec, wl, cfg)))
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
        let again = cache.get_or_simulate_for(&spec, &wls[0], &cfg, || {
            sims.fetch_add(1, Ordering::Relaxed);
            simulate_trace(spec, &wls[0], cfg)
        });
        assert_eq!(sims.load(Ordering::Relaxed), 1, "evicted entry must miss");
        assert_eq!(*again, *originals[0], "re-simulation must be identical");
        // The most recent trace survived the whole time.
        let kept = cache.get_or_simulate_for(&spec, &wls[3], &cfg, || {
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
                        let got = cache.get_or_simulate_for(&spec, &wls[k], &cfg, || {
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
                let got = cache.get_or_simulate_for(&spec, &wls[w], &cfgs[c], || {
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
