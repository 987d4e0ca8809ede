//! Epoch-granular simulation memoization: a process-wide cache of
//! `(workload, machine, config, epoch, entry-state)` →
//! `(epoch record, exit machine state)`, held in process memory.
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
//!
//! The cache is a memo local to one process: a mutex-guarded map with
//! an LRU byte budget, used by `paper --epoch-cache`, the benchmark's
//! `adapt_memo` workload and `sweep_bench`. Persistence across processes
//! and the cluster tier belong to the trace cache, which stores whole
//! runs: the serving tier runs only static configurations, and each of
//! those lands whole in the trace cache.
//!
//! The cache is *disabled* by default — sweeps and live runs consult it
//! only after [`EpochCache::set_enabled`]`(true)` (the `--epoch-cache`
//! CLI flag). The frozen reference simulation path never consults it,
//! keeping an independent witness for differential tests.
//!
//! [`MachineState::digest`]: transmuter::machine::MachineState::digest

use std::convert::Infallible;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fxhash::FxHashMap;
use transmuter::cache::Page;
use transmuter::config::{MachineSpec, TransmuterConfig};
use transmuter::machine::{CachedEpoch, EpochBoundary, EpochHook, Machine};
use transmuter::workload::Workload;

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
    /// [`MachineState::digest`](transmuter::machine::MachineState::digest)
    /// of the state entering the epoch.
    pub entry_digest: u64,
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

/// Counter snapshot from [`EpochCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochCacheStats {
    /// Boundary lookups observed.
    pub lookups: u64,
    /// Lookups answered from memory.
    pub hits: u64,
    /// Fresh epochs recorded (cache misses that simulated).
    pub inserts: u64,
    /// Epochs dropped to stay under the memory cap.
    pub evictions: u64,
    /// Distinct epochs currently held in memory.
    pub entries: usize,
    /// Accounted bytes of in-memory epochs.
    pub resident_bytes: usize,
}

impl EpochCacheStats {
    /// Fraction of lookups answered without simulating.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// The epoch cache. Use [`EpochCache::global`] to share across every
/// sweep and live run in the process.
#[derive(Default)]
pub struct EpochCache {
    inner: Mutex<Inner>,
    enabled: AtomicBool,
    lookups: AtomicU64,
    hits: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
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

    /// Does nothing: the epoch cache has no cluster tier (the trace
    /// cache's is [`crate::trace_cache::TraceCache::set_remote`]), so
    /// there is no fetcher to pass. It remains because `perfbench`
    /// resets process-wide state with `set_remote(None)`, and goes when
    /// that call does.
    pub fn set_remote(&self, _fetcher: Option<Infallible>) {}

    /// Snapshot of the counters.
    pub fn stats(&self) -> EpochCacheStats {
        let (entries, resident) = {
            let inner = self.inner.lock().expect("epoch cache lock");
            (inner.map.len(), inner.resident)
        };
        EpochCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            resident_bytes: resident,
        }
    }

    /// Drops every epoch and zeroes the counters. The enabled flag and
    /// cap are kept.
    pub fn clear(&self) {
        self.inner.lock().expect("epoch cache lock").clear();
        for counter in [&self.lookups, &self.hits, &self.inserts, &self.evictions] {
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

    /// Records a freshly simulated epoch.
    pub fn insert(&self, key: EpochKey, epoch: CachedEpoch) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.admit(key, Arc::new(epoch));
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
        }
    }
}

/// The [`EpochHook`] adapter produced by [`EpochCache::hook_for`].
#[derive(Debug)]
pub struct EpochCacheHook<'a> {
    cache: &'a EpochCache,
    spec: u64,
    workload: u64,
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
}
