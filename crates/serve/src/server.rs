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
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sa_bench::Harness;
use sparseadapt::exec::Pool;
use sparseadapt::trace_cache::TraceCache;
use transmuter::workload::Workload;

use crate::answer_memo::AnswerMemo;
use crate::api::{kernel_name, ResolvedSim, TopologyDoc};
use crate::coalesce::Coalescer;
use crate::jobs::JobRegistry;
use crate::metrics::ServerMetrics;
use crate::reactor::{self, ReactorStats, Reply, RouteFn};
use crate::router;

/// Listen backlog requested on every bound listener (see `start`).
const LISTEN_BACKLOG: i32 = 4096;

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
            max_conns: 12288,
            idle_timeout_ms: 30_000,
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
    pub pool: Pool,
    /// Request counters and latency histogram.
    pub metrics: Arc<ServerMetrics>,
    /// Answers the loop computed from memory, by route and exact
    /// request body.
    pub answers: AnswerMemo,
    /// In-flight coalescer for identical simulate requests: followers
    /// park their replies on the leader, which answers each with the
    /// one document it computed.
    pub coalescer: Coalescer<String, Reply>,
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
    /// Memoized workloads with their content fingerprints.
    /// Construction (op-stream generation) and fingerprinting both walk
    /// every op, so each costs more than a cached simulation lookup —
    /// warm requests must repeat neither. Bounded by the suite size
    /// plus the set of uploaded matrices (tens of entries), so no
    /// eviction. Sound for uploads because `mtx:` ids embed the
    /// canonical content hash.
    workloads: Mutex<HashMap<String, (Arc<Workload>, u64)>>,
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
    /// [`Workload::fingerprint`], built and hashed at most once per
    /// `(kernel, matrix, l1_kind)` for the server's lifetime.
    ///
    /// Two threads may race to construct the same workload; the result
    /// is deterministic, and the first insert wins, so callers always
    /// converge on one shared instance (one trace-cache fingerprint).
    pub fn suite_workload(&self, r: &ResolvedSim) -> (Arc<Workload>, u64) {
        let key = workload_key(r);
        if let Some(entry) = self.workloads.lock().expect("workload memo lock").get(&key) {
            return entry.clone();
        }
        let built = Arc::new(sa_bench::experiments::source_workload(
            &self.harness,
            &r.matrix,
            r.kernel,
            r.l1_kind,
        ));
        let fingerprint = built.fingerprint();
        self.workloads
            .lock()
            .expect("workload memo lock")
            .entry(key)
            .or_insert((built, fingerprint))
            .clone()
    }

    /// The fingerprint [`AppState::suite_workload`] memoized for a
    /// resolved request, if it has: never builds or hashes a workload,
    /// and gives up (`None`) rather than wait for the memo's lock.
    pub(crate) fn memoized_fingerprint(&self, r: &ResolvedSim) -> Option<u64> {
        let memo = self.workloads.try_lock().ok()?;
        memo.get(&workload_key(r))
            .map(|(_, fingerprint)| *fingerprint)
    }
}

/// The workload memo's key: everything that determines the workload.
fn workload_key(r: &ResolvedSim) -> String {
    format!(
        "{}/{}/{:?}",
        kernel_name(r.kernel),
        r.matrix.id(),
        r.l1_kind
    )
}

/// A running server; dropping it (or calling [`ServerHandle::shutdown`])
/// stops the reactor and closes its connections.
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound address (with the concrete port when 0 was asked).
    pub addr: SocketAddr,
    /// Shared state, exposed so tests can read counters directly.
    pub state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Signals shutdown and joins the reactor thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
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
    let listener = TcpListener::bind(&config.addr)?;
    // std hardwires a listen backlog of 128; a high-fanout loadgen
    // opening thousands of sockets at once overflows that and stalls
    // each dropped SYN in 1s retransmit cycles. Best-effort resize.
    {
        use std::os::fd::AsRawFd;
        let _ = sysio::listen_backlog(listener.as_raw_fd(), LISTEN_BACKLOG);
    }
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    if let Some(path) = &config.addr_file {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, addr.to_string())?;
        std::fs::rename(&tmp, path)?;
    }

    let drain = Arc::new(DrainControl::new());
    let state = Arc::new(AppState {
        pool: Pool::new(workers, config.queue_cap),
        metrics: Arc::new(ServerMetrics::new()),
        answers: AnswerMemo::default(),
        coalescer: Coalescer::new(),
        jobs: JobRegistry::new(),
        harness: Harness::default(),
        drain: Arc::clone(&drain),
        reactor: Arc::new(ReactorStats::new()),
        topology: Mutex::new(None),
        self_addr: addr,
        workloads: Mutex::new(HashMap::new()),
    });
    let stop = Arc::new(AtomicBool::new(false));
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
    let drain_idle: Arc<dyn Fn() -> bool + Send + Sync> = {
        let state = Arc::clone(&state);
        Arc::new(move || state.pool.queue_depth() == 0 && state.pool.in_flight() == 0)
    };
    if let Some(fd) = signal_fd {
        spawn_signal_watcher(fd, Arc::clone(&drain));
    }
    let accept = reactor::spawn(
        listener,
        reactor::Shared {
            route,
            stop: Arc::clone(&stop),
            drain,
            drain_idle,
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
        stop,
        accept: Some(accept),
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
