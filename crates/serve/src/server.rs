//! The daemon: listener, serve engine, shared state, shutdown.
//!
//! One epoll loop multiplexes every socket (see [`crate::reactor`]) and
//! scales to tens of thousands of keep-alive connections. Its thread
//! only does I/O and answers from memory: routes that read in-process
//! state, and simulate and recommend requests whose trace or model is
//! already there. A bounded [`sparseadapt::exec::Pool`] runs every
//! other handler in place. The pool's worker count and queue capacity
//! bound CPU and memory under load, and a full queue turns into an HTTP
//! 429 at the edge (see [`crate::queue`]).
//!
//! Shutdown is cooperative: a shared flag the loop checks on every
//! turn, so tests can boot and tear down servers in-process. Graceful
//! drain ([`DrainControl`]) additionally stops accepting (the listener
//! is dropped, so new connects are refused), lets in-flight requests
//! finish, closes idle keep-alives, and then signals completion so the
//! daemon can exit 0.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sa_bench::Harness;
use sparseadapt::exec::Pool;
use sparseadapt::trace_cache::TraceCache;
use transmuter::workload::Workload;

use crate::answer_memo::AnswerMemo;
use crate::api::{ResolvedSim, TopologyDoc};
use crate::jobs::JobRegistry;
use crate::metrics::ServerMetrics;
use crate::reactor::{self, ReactorStats, RouteFn};
use crate::router;

/// Graceful-drain coordination shared between the admin endpoint, the
/// signal watcher, and the reactor.
///
/// `request()` flips a flag the reactor polls; once it has stopped
/// accepting, flushed in-flight requests, closed every connection and
/// seen the pool go idle, it calls `mark_completed()`, releasing anyone
/// parked in `wait_completed()` (the daemon's main thread, which then
/// exits 0).
#[derive(Debug, Default)]
pub struct DrainControl {
    requested: AtomicBool,
    done: Mutex<bool>,
    cv: Condvar,
}

impl DrainControl {
    /// Fresh, un-requested control.
    pub fn new() -> DrainControl {
        DrainControl::default()
    }

    /// Asks the reactor to drain. Idempotent.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Marks the drain finished, waking `wait_completed` callers.
    pub fn mark_completed(&self) {
        *self.done.lock().expect("drain lock") = true;
        self.cv.notify_all();
    }

    /// Whether the drain has finished.
    pub fn completed(&self) -> bool {
        *self.done.lock().expect("drain lock")
    }

    /// Blocks until the drain finishes or `timeout` elapses; returns
    /// whether it finished.
    pub fn wait_completed(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut done = self.done.lock().expect("drain lock");
        while !*done {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(done, deadline - now)
                .expect("drain lock");
            done = guard;
        }
        true
    }
}

/// Boot-time settings of the daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Pool worker threads (0 = one per available CPU).
    pub workers: usize,
    /// Admission queue capacity for requests that need a pool worker;
    /// beyond it, they get 429. Memory hits answered on the loop never
    /// queue.
    pub queue_cap: usize,
    /// Optional on-disk trace cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Optional in-memory trace cache cap, bytes.
    pub cache_mem_cap: Option<usize>,
    /// Optional path the daemon writes its bound address to once the
    /// listener is up. This is the rendezvous for spawned shards: the
    /// router starts children on port 0 and reads the concrete address
    /// from here (written via temp-file + rename so readers never see a
    /// partial write).
    pub addr_file: Option<PathBuf>,
    /// Hard cap on concurrently open connections; accepts beyond it are
    /// shed with a 503.
    pub max_conns: usize,
    /// Idle keep-alive timeout in milliseconds.
    pub idle_timeout_ms: u64,
    /// Install a SIGINT/SIGTERM watcher that triggers a graceful drain.
    /// Only the daemon binary sets this; in-process test servers must
    /// not mask the test runner's signals.
    pub handle_signals: bool,
    /// Ask cluster peers (from the pushed topology) for a trace that
    /// memory and disk do not hold, under the fetch budget, before
    /// simulating it.
    pub peer_fetch: bool,
    /// Hard wall-clock budget for one peer fetch, milliseconds; expiry
    /// falls back to local simulation.
    pub peer_fetch_budget_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            queue_cap: 64,
            cache_dir: None,
            cache_mem_cap: None,
            addr_file: None,
            max_conns: reactor::MAX_CONNS,
            idle_timeout_ms: reactor::IDLE_TIMEOUT_MS,
            handle_signals: false,
            peer_fetch: false,
            peer_fetch_budget_ms: 25,
        }
    }
}

/// Everything the handlers share.
#[derive(Debug)]
pub struct AppState {
    /// The bounded worker pool every handler that simulates, reads
    /// disk or talks to the network runs on.
    pub pool: Arc<Pool>,
    /// Request counters and latency histogram.
    pub metrics: Arc<ServerMetrics>,
    /// Answers the loop computed from memory, by route and exact
    /// request body.
    pub answers: AnswerMemo,
    /// Async sweep jobs.
    pub jobs: JobRegistry,
    /// Scale/threads/seed settings shared with the bench harness.
    pub harness: Harness,
    /// Graceful-drain coordination (admin endpoint + signal watcher).
    pub drain: Arc<DrainControl>,
    /// Connection-level reactor counters.
    pub reactor: Arc<ReactorStats>,
    /// The cluster topology as last pushed by a router
    /// (`POST /v2/admin/topology`), or `None` for a standalone daemon.
    /// Shards serve this back on `GET /v2/admin/topology` and stamp its
    /// epoch into `/metrics` so tests can cross-check every member's
    /// view against the router's. The trace cache's cluster tier
    /// ([`crate::peer_tier`]) also reads its peers from here.
    pub topology: Mutex<Option<TopologyDoc>>,
    /// The address this daemon is bound at — what the peer fetcher
    /// excludes from the topology's shard list to avoid asking itself.
    pub self_addr: SocketAddr,
    /// Memoized workloads with their content fingerprints, by
    /// [`ResolvedSim::workload_key`]. Construction (op-stream
    /// generation) and fingerprinting both walk every op, so each costs
    /// more than a cached simulation lookup — warm requests must repeat
    /// neither, and concurrent first requests build once. Bounded by
    /// the suite size plus the set of uploaded matrices (tens of
    /// entries), so no eviction. Sound for uploads because `mtx:` ids
    /// embed the canonical content hash.
    workloads: OnceMemo<(Arc<Workload>, u64)>,
}

/// A memo that fills each key once, outside the map's lock: the first
/// caller for a key builds its value in the key's slot while later
/// callers for that key wait on the slot, and callers for other keys
/// wait on nothing. `sa_bench::models::shared_ensemble` keeps its
/// ensembles the same way.
#[derive(Debug)]
struct OnceMemo<V>(Mutex<HashMap<String, Arc<OnceLock<V>>>>);

impl<V: Clone> OnceMemo<V> {
    fn new() -> Self {
        OnceMemo(Mutex::new(HashMap::new()))
    }

    /// The value for `key`, built by `build` if no caller has built it.
    fn get_or_build(&self, key: String, build: impl FnOnce() -> V) -> V {
        let slot = Arc::clone(self.0.lock().expect("memo lock").entry(key).or_default());
        slot.get_or_init(build).clone()
    }

    /// The value for `key` if its slot is filled. Never builds, and
    /// gives up (`None`) rather than wait for the map's lock or a slot.
    fn get(&self, key: &str) -> Option<V> {
        self.0.try_lock().ok()?.get(key)?.get().cloned()
    }
}

impl AppState {
    /// The topology epoch this member reports in `/metrics`: the epoch
    /// of the last pushed topology, or 0 when no router has spoken.
    pub fn topology_epoch(&self) -> u64 {
        self.topology
            .lock()
            .expect("topology lock")
            .as_ref()
            .map_or(0, |t| t.epoch)
    }

    /// The workload for a resolved request plus its
    /// [`Workload::fingerprint`], built and hashed exactly once per
    /// `(kernel, matrix, l1_kind)` for the server's lifetime: concurrent
    /// first requests for one workload wait for the one build and share
    /// its instance (one trace-cache fingerprint).
    pub fn suite_workload(&self, r: &ResolvedSim) -> (Arc<Workload>, u64) {
        self.workloads.get_or_build(r.workload_key(), || {
            let built = sa_bench::experiments::source_workload(
                &self.harness,
                &r.matrix,
                r.kernel,
                r.l1_kind,
            );
            let fingerprint = built.fingerprint();
            (Arc::new(built), fingerprint)
        })
    }

    /// The fingerprint [`AppState::suite_workload`] memoized for a
    /// resolved request, if it has: never builds or hashes a workload,
    /// and gives up (`None`) rather than wait for the memo's lock or a
    /// build in flight.
    pub(crate) fn memoized_fingerprint(&self, r: &ResolvedSim) -> Option<u64> {
        self.workloads
            .get(&r.workload_key())
            .map(|(_, fingerprint)| fingerprint)
    }
}

/// A running server; dropping it (or calling [`ServerHandle::shutdown`])
/// stops the reactor and closes its connections.
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound address (with the concrete port when 0 was asked).
    pub addr: SocketAddr,
    /// Shared state, exposed so tests can read counters directly.
    pub state: Arc<AppState>,
    reactor: reactor::Running,
}

impl ServerHandle {
    /// Signals shutdown and joins the reactor thread.
    pub fn shutdown(self) {
        drop(self.reactor);
    }
}

/// Binds, spawns the reactor, and returns immediately.
///
/// # Errors
///
/// Propagates bind failures.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    // Block SIGINT/SIGTERM before ANY thread spawns: a process-directed
    // signal is delivered to whichever thread leaves it unblocked, so
    // blocking after the pool exists would leave workers that die to
    // the default handler instead of routing through the watcher.
    let signal_fd = if config.handle_signals {
        sysio::signalfd_blocked(&[sysio::SIGINT, sysio::SIGTERM]).ok()
    } else {
        None
    };
    if let Some(dir) = &config.cache_dir {
        TraceCache::global().set_disk_dir(Some(dir.clone()));
        // Uploaded matrices spill next to the trace tier, so every
        // shard mounting the shared cache dir resolves the same
        // `mtx:<hash>` ids regardless of which shard took the upload.
        sa_bench::mtx::set_spill_dir(Some(dir.join("matrices")));
    }
    if config.cache_mem_cap.is_some() {
        TraceCache::global().set_memory_cap(config.cache_mem_cap);
    }
    let workers = if config.workers == 0 {
        sparseadapt::exec::default_threads()
    } else {
        config.workers
    };
    let listener = reactor::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    if let Some(path) = &config.addr_file {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, addr.to_string())?;
        std::fs::rename(&tmp, path)?;
    }

    let drain = Arc::new(DrainControl::new());
    let state = Arc::new(AppState {
        pool: Arc::new(Pool::new(workers, config.queue_cap)),
        metrics: Arc::new(ServerMetrics::new()),
        answers: AnswerMemo::default(),
        jobs: JobRegistry::new(),
        harness: Harness::default(),
        drain: Arc::clone(&drain),
        reactor: Arc::new(ReactorStats::new()),
        topology: Mutex::new(None),
        self_addr: addr,
        workloads: OnceMemo::new(),
    });
    if config.peer_fetch {
        TraceCache::global().set_remote(Some(Arc::new(crate::peer_tier::PeerFetcher::new(
            addr,
            Arc::clone(&state),
            Duration::from_millis(config.peer_fetch_budget_ms.max(1)),
        ))));
    }

    let route: RouteFn = {
        let state = Arc::clone(&state);
        Arc::new(move |req, reply| router::route(&state, req, reply))
    };
    if let Some(fd) = signal_fd {
        spawn_signal_watcher(fd, Arc::clone(&drain));
    }
    let reactor = reactor::spawn(
        listener,
        reactor::Shared {
            route,
            pool: Arc::clone(&state.pool),
            drain,
            stats: Arc::clone(&state.reactor),
            metrics: Arc::clone(&state.metrics),
        },
        reactor::ReactorConfig {
            max_conns: config.max_conns.max(1),
            idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
        },
    )?;

    Ok(ServerHandle {
        addr,
        state,
        reactor,
    })
}

/// Watches SIGINT/SIGTERM on a signalfd and turns the first one into a
/// graceful drain request. The signals were already blocked at the top
/// of [`start`] (before any thread existed) so the default handlers
/// (immediate termination) never fire; the watcher thread parks in a
/// blocking read and dies with the process.
fn spawn_signal_watcher(fd: i32, drain: Arc<DrainControl>) {
    std::thread::Builder::new()
        .name("serve-signals".into())
        .spawn(move || {
            if sysio::signalfd_read(fd).is_ok() {
                drain.request();
            }
            sysio::close_fd(fd);
        })
        .expect("spawn signal watcher");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SimulateRequest;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// Runs `call` on `n` threads released at once; returns every result.
    fn at_once<T: Send>(n: usize, call: impl Fn() -> T + Sync) -> Vec<T> {
        let barrier = Barrier::new(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        call()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller"))
                .collect()
        })
    }

    #[test]
    fn concurrent_first_calls_build_once_in_the_slot() {
        let memo = OnceMemo::new();
        let builds = AtomicUsize::new(0);
        assert_eq!(memo.get("k"), None, "an empty memo holds nothing");
        let values = at_once(8, || {
            memo.get_or_build("k".to_string(), || {
                builds.fetch_add(1, Ordering::SeqCst);
                // Widens the window in which the other callers find
                // the build in flight; one build holds either way.
                std::thread::sleep(Duration::from_millis(50));
                Arc::new(7u64)
            })
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build per key");
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        assert!(memo.get("k").is_some_and(|v| Arc::ptr_eq(&v, &values[0])));
        assert_eq!(memo.get("other"), None);
    }

    #[test]
    fn concurrent_first_suite_workload_calls_share_one_workload() {
        let server = start(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server boots");
        let resolved = SimulateRequest {
            kernel: "spmspv".to_string(),
            matrix: "R12".to_string(),
            l1_kind: None,
            config: None,
            config_name: None,
        }
        .resolve()
        .expect("resolves");
        let state = &server.state;
        assert_eq!(state.memoized_fingerprint(&resolved), None);
        let built = at_once(8, || state.suite_workload(&resolved));
        let (workload, fingerprint) = &built[0];
        assert!(built
            .iter()
            .all(|(w, fp)| Arc::ptr_eq(w, workload) && fp == fingerprint));
        assert_eq!(*fingerprint, workload.fingerprint());
        assert_eq!(state.memoized_fingerprint(&resolved), Some(*fingerprint));
    }
}
