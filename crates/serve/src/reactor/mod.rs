//! Readiness-driven serve core: one epoll loop multiplexing thousands
//! of keep-alive sockets, with request handlers on the app's pool.
//!
//! A single reactor thread runs `epoll_wait` (via the vendored
//! [`sysio`] shim — no external crates) and owns all socket I/O: every
//! socket is nonblocking, and every connection is an explicit state
//! machine (`Reading → Dispatched → Writing → keep-alive/close`). The
//! loop parses each request and calls the route with a [`Reply`].
//! Routes that only read in-process state answer on the loop, and so do
//! simulate and recommend requests whose trace or model is already in
//! memory (see [`crate::handlers`]). Every other request goes to the
//! bounded pool, whose worker renders the response and hands the bytes
//! back through a completion queue + eventfd wakeup (see `dispatch`).
//! Nothing that simulates, reads disk, loads a model or talks to the
//! network runs on the loop thread, and the loop decodes no request
//! body larger than [`crate::handlers::LOOP_BODY_MAX`]. A simulate or
//! recommend body it answered before is not decoded at all: the
//! [answer memo](crate::answer_memo) answers it from its bytes.
//!
//! Backpressure and robustness rules:
//! - **Connection cap**: accepts beyond `max_conns` get an immediate
//!   `503 overloaded` (with `retry_after_ms`) and are closed.
//! - **Admission**: the pool's queue is the only request buffer; a full
//!   queue answers 429 `queue_full` (see [`crate::queue`]). Requests
//!   answered on the loop never enter it.
//! - **Slow clients**: partial writes park the response in the
//!   connection and arm `EPOLLOUT`; nothing ever blocks in `write`.
//! - **Slowloris**: the idle deadline is set when a connection enters
//!   `Reading` and *not* refreshed by partial header bytes, so a client
//!   trickling one byte per second still expires on time.
//! - **Read hygiene**: sockets stay readable while a request is in
//!   flight (pipelined bytes buffer in the parser), but interest drops
//!   once a peer has buffered more than a full request's worth.

mod conn;
mod dispatch;
mod timer;

use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sparseadapt::exec::Pool;
use sysio::{EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

use crate::api::{code, ApiError, ApiVersion};
use crate::http::{response_bytes, Parsed, Request, RequestParser, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use crate::metrics::{ReactorSnapshot, ServerMetrics};
use crate::server::DrainControl;

use conn::{token, untoken, Conn, ConnState, Slab};
use dispatch::CompletionQueue;
pub use dispatch::Reply;
use timer::TimerWheel;

/// A request handler driving one listener: it answers through the
/// [`Reply`], on the loop thread or after handing both to a pool, so
/// the same reactor serves the daemon ([`crate::server::start`]) and
/// the cluster router ([`crate::shard::start_router`]).
pub(crate) type RouteFn = Arc<dyn Fn(Request, Reply) + Send + Sync>;

/// Epoll data word for the listener.
const TOK_LISTENER: u64 = u64::MAX;
/// Epoll data word for the completion-queue eventfd.
const TOK_WAKE: u64 = u64::MAX - 1;
/// `epoll_wait` timeout: bounds drain/stop latency when no events fire.
const WAIT_MS: i32 = 50;
/// Per-read scratch buffer size.
const READ_CHUNK: usize = 16 * 1024;
/// Backoff hint attached to shed 503s.
const SHED_RETRY_MS: u64 = 1000;
/// Listen backlog requested on every listener [`bind`] opens.
const LISTEN_BACKLOG: i32 = 4096;
/// Connection cap of the router, and the daemon's default
/// ([`crate::server::ServeConfig::max_conns`]).
pub(crate) const MAX_CONNS: usize = 12_288;
/// Idle keep-alive timeout of the router, and the daemon's default
/// ([`crate::server::ServeConfig::idle_timeout_ms`]), milliseconds.
pub(crate) const IDLE_TIMEOUT_MS: u64 = 30_000;

/// Reactor tuning knobs: the daemon's from its
/// [`crate::server::ServeConfig`], the router's [`MAX_CONNS`] and
/// [`IDLE_TIMEOUT_MS`].
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    /// Hard cap on concurrently open connections.
    pub max_conns: usize,
    /// Idle keep-alive timeout.
    pub idle_timeout: Duration,
}

/// Live reactor counters, exported through `/metrics`.
#[derive(Debug, Default)]
pub struct ReactorStats {
    conns_open: AtomicU64,
    conns_active: AtomicU64,
    accepted_total: AtomicU64,
    epoll_wakeups_total: AtomicU64,
    partial_reads_total: AtomicU64,
    partial_writes_total: AtomicU64,
    accept_overflows_total: AtomicU64,
    shed_503_total: AtomicU64,
    idle_closed_total: AtomicU64,
}

impl ReactorStats {
    /// Fresh zeroed counters.
    pub fn new() -> ReactorStats {
        ReactorStats::default()
    }

    /// Point-in-time snapshot for the metrics endpoint.
    pub fn snapshot(&self) -> ReactorSnapshot {
        let open = self.conns_open.load(Ordering::Relaxed);
        let active = self.conns_active.load(Ordering::Relaxed);
        ReactorSnapshot {
            conns_open: open,
            conns_active: active,
            conns_idle: open.saturating_sub(active),
            accepted_total: self.accepted_total.load(Ordering::Relaxed),
            epoll_wakeups_total: self.epoll_wakeups_total.load(Ordering::Relaxed),
            partial_reads_total: self.partial_reads_total.load(Ordering::Relaxed),
            partial_writes_total: self.partial_writes_total.load(Ordering::Relaxed),
            accept_overflows_total: self.accept_overflows_total.load(Ordering::Relaxed),
            shed_503_total: self.shed_503_total.load(Ordering::Relaxed),
            idle_closed_total: self.idle_closed_total.load(Ordering::Relaxed),
        }
    }
}

/// Everything the reactor thread shares with the server that spawns
/// it: the route, its pool, the drain signal, and the counters.
pub(crate) struct Shared {
    /// Answers every parsed request.
    pub route: RouteFn,
    /// The server's pool. Once it has nothing queued or running and
    /// the connection slab is empty, a drain is complete.
    pub pool: Arc<Pool>,
    /// Graceful-drain coordination.
    pub drain: Arc<DrainControl>,
    /// Connection-level I/O counters.
    pub stats: Arc<ReactorStats>,
    /// Per-route request counters, recorded by each [`Reply`].
    pub metrics: Arc<ServerMetrics>,
}

/// Binds `addr` for [`spawn`]: nonblocking, with the listen backlog
/// raised. std hardwires a backlog of 128, which a high-fanout loadgen
/// opening thousands of sockets at once overflows, stalling each
/// dropped SYN in 1 s retransmit cycles; the resize is best-effort.
pub(crate) fn bind(addr: &str) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    let _ = sysio::listen_backlog(listener_fd(&listener), LISTEN_BACKLOG);
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// A running reactor thread, plus any thread of the server that stops
/// with it. Dropping it sets the stop flag the loop checks every turn
/// and joins them all, the reactor first.
#[derive(Debug)]
pub(crate) struct Running {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Running {
    /// The stop flag, for a thread that should stop with the reactor.
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Joins `thread` once the reactor has stopped.
    pub(crate) fn join_on_stop(&mut self, thread: JoinHandle<()>) {
        self.threads.push(thread);
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Spawns the reactor thread on a listener from [`bind`].
pub(crate) fn spawn(
    listener: TcpListener,
    shared: Shared,
    cfg: ReactorConfig,
) -> io::Result<Running> {
    let epfd = sysio::epoll_create()?;
    let completions = Arc::new(CompletionQueue::new()?);
    sysio::epoll_add(epfd, completions.wake_fd(), EPOLLIN, TOK_WAKE)?;
    sysio::epoll_add(epfd, listener_fd(&listener), EPOLLIN, TOK_LISTENER)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut reactor = Reactor {
        epfd,
        listener: Some(listener),
        slab: Slab::default(),
        wheel: TimerWheel::new(Instant::now()),
        shared,
        stop: Arc::clone(&stop),
        completions,
        cfg,
        active: 0,
        draining: false,
    };
    let thread = std::thread::Builder::new()
        .name("serve-reactor".into())
        .spawn(move || reactor.run())?;
    Ok(Running {
        stop,
        threads: vec![thread],
    })
}

/// Raw fd of a listener without `unsafe` in this crate: `TcpListener`
/// implements `AsRawFd`, which is safe to call.
fn listener_fd(listener: &TcpListener) -> i32 {
    use std::os::fd::AsRawFd;
    listener.as_raw_fd()
}

/// Raw fd of a stream (safe `AsRawFd` call, same as [`listener_fd`]).
fn stream_fd(stream: &std::net::TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

/// The rendered 503 sent when the connection cap is reached.
fn shed_bytes(context: &str) -> Vec<u8> {
    let err = ApiError::new(code::OVERLOADED, format!("server overloaded: {context}"))
        .with_retry_after_ms(SHED_RETRY_MS);
    response_bytes(&ApiVersion::V2.error_response(503, &err), false)
}

struct Reactor {
    epfd: i32,
    listener: Option<TcpListener>,
    slab: Slab,
    wheel: TimerWheel,
    shared: Shared,
    stop: Arc<AtomicBool>,
    completions: Arc<CompletionQueue>,
    cfg: ReactorConfig,
    /// Connections in `Dispatched` or `Writing` state.
    active: usize,
    draining: bool,
}

impl Reactor {
    fn run(&mut self) {
        let mut events = vec![sysio::EpollEvent::default(); 1024];
        while !self.stop.load(Ordering::SeqCst) {
            if self.shared.drain.requested() && !self.draining {
                self.begin_drain();
            }
            let n = match sysio::epoll_wait(self.epfd, &mut events, WAIT_MS) {
                Ok(n) => n,
                Err(_) => break,
            };
            if n > 0 {
                self.shared
                    .stats
                    .epoll_wakeups_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            for ev in &events[..n] {
                match ev.data {
                    TOK_LISTENER => self.accept_burst(),
                    TOK_WAKE => self.drain_completions(),
                    data => {
                        let (slot, gen) = untoken(data);
                        self.conn_event(slot, gen, ev.events);
                    }
                }
            }
            self.tick_timers();
            self.publish_gauges();
            if self.draining && self.drain_complete() {
                self.shared.drain.mark_completed();
                break;
            }
        }
        self.teardown();
    }

    fn publish_gauges(&self) {
        self.shared
            .stats
            .conns_open
            .store(self.slab.len() as u64, Ordering::Relaxed);
        self.shared
            .stats
            .conns_active
            .store(self.active as u64, Ordering::Relaxed);
    }

    // -- accept path ----------------------------------------------------

    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.slab.len() >= self.cfg.max_conns {
                        self.shared
                            .stats
                            .accept_overflows_total
                            .fetch_add(1, Ordering::Relaxed);
                        self.shared
                            .stats
                            .shed_503_total
                            .fetch_add(1, Ordering::Relaxed);
                        // Best effort: the socket buffer of a fresh
                        // connection always has room for a small 503.
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write(&shed_bytes("connection capacity exhausted"));
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.shared
                        .stats
                        .accepted_total
                        .fetch_add(1, Ordering::Relaxed);
                    let now = Instant::now();
                    let deadline = now + self.cfg.idle_timeout;
                    let fd = stream_fd(&stream);
                    let (slot, gen) = self.slab.insert(Conn {
                        stream,
                        parser: RequestParser::new(),
                        state: ConnState::Reading,
                        out: Vec::new(),
                        out_pos: 0,
                        close_after_write: false,
                        idle_deadline: deadline,
                        interest: EPOLLIN | EPOLLRDHUP,
                    });
                    if sysio::epoll_add(self.epfd, fd, EPOLLIN | EPOLLRDHUP, token(slot, gen))
                        .is_err()
                    {
                        self.slab.remove(slot);
                        continue;
                    }
                    self.wheel.schedule(slot, now, deadline);
                    // The peer may already have written a request.
                    self.conn_event(slot, gen, EPOLLIN);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    // -- per-connection events ------------------------------------------

    fn conn_event(&mut self, slot: u32, gen: u32, events: u32) {
        if self.slab.get_mut(slot, gen).is_none() {
            return; // stale token: slot was recycled
        }
        if events & (EPOLLHUP | EPOLLERR) != 0 {
            self.close_conn(slot);
            return;
        }
        if events & EPOLLOUT != 0 && !self.continue_write(slot) {
            return;
        }
        if events & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.do_read(slot);
        }
    }

    /// Reads everything available into the connection's parser. Returns
    /// through [`Reactor::close_conn`] on EOF/error.
    fn do_read(&mut self, slot: u32) {
        let mut buf = [0u8; READ_CHUNK];
        let mut saw_eof = false;
        loop {
            let Some(conn) = self.slab.get_mut_unchecked(slot) else {
                return;
            };
            // Past a full request's worth of buffered bytes, stop
            // reading: interest drops below and epoll stays quiet until
            // the in-flight response frees the buffer.
            if conn.parser.buffered() > MAX_HEAD_BYTES + MAX_BODY_BYTES {
                break;
            }
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => conn.parser.feed(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        if saw_eof {
            // Peer closed its write side. A response still in flight
            // (Dispatched/Writing) could in principle be flushed, but a
            // closed reader rarely wants it; mid-body disconnects fold
            // into the same path.
            self.close_conn(slot);
            return;
        }
        self.advance_parse(slot);
    }

    /// Peels the next request if the connection is idle in `Reading`.
    fn advance_parse(&mut self, slot: u32) {
        let Some(conn) = self.slab.get_mut_unchecked(slot) else {
            return;
        };
        if conn.state != ConnState::Reading {
            // A request is already in flight; new bytes stay buffered
            // (pipelining) until its response flushes.
            self.update_interest(slot);
            return;
        }
        if conn.parser.buffered() > 0 {
            match conn.parser.next_request() {
                Parsed::Incomplete => {
                    self.shared
                        .stats
                        .partial_reads_total
                        .fetch_add(1, Ordering::Relaxed);
                }
                Parsed::Request(req) => {
                    self.dispatch(slot, *req);
                }
                Parsed::Malformed(resp) => {
                    let bytes = response_bytes(&resp, false);
                    self.queue_write(slot, bytes, true);
                }
            }
        }
        self.update_interest(slot);
    }

    /// Hands a parsed request to the route. Its answer arrives through
    /// the completion queue, even when the route answers on this thread:
    /// the next loop turn writes it, so a peer pipelining thousands of
    /// inline requests cannot recurse the loop or starve other sockets.
    fn dispatch(&mut self, slot: u32, req: Request) {
        let keep_alive = req.keep_alive() && !self.shared.drain.requested();
        let gen = current_gen(&self.slab, slot);
        let Some(conn) = self.slab.get_mut_unchecked(slot) else {
            return;
        };
        conn.state = ConnState::Dispatched;
        self.active += 1;
        let reply = Reply::new(
            slot,
            gen,
            keep_alive,
            Arc::clone(&self.shared.metrics),
            Arc::clone(&self.completions),
        );
        // A route that panics here drops its reply, which answers 500;
        // the loop thread itself must survive.
        let route = &self.shared.route;
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| route(req, reply)));
    }

    // -- write path -----------------------------------------------------

    /// Installs response bytes on a connection and attempts an
    /// immediate flush (the fast path: most responses fit the socket
    /// buffer and never arm `EPOLLOUT`).
    fn queue_write(&mut self, slot: u32, bytes: Vec<u8>, close_after: bool) {
        let Some(conn) = self.slab.get_mut_unchecked(slot) else {
            return;
        };
        conn.out = bytes;
        conn.out_pos = 0;
        conn.close_after_write = close_after;
        conn.state = ConnState::Writing;
        self.continue_write(slot);
    }

    /// Flushes as much pending output as the socket accepts. Returns
    /// `false` if the connection was closed.
    fn continue_write(&mut self, slot: u32) -> bool {
        loop {
            let Some(conn) = self.slab.get_mut_unchecked(slot) else {
                return false;
            };
            if conn.state != ConnState::Writing {
                return true;
            }
            if conn.out_pos >= conn.out.len() {
                return self.finish_write(slot);
            }
            let pos = conn.out_pos;
            match (&conn.stream).write(&conn.out[pos..]) {
                Ok(0) => {
                    self.close_conn(slot);
                    return false;
                }
                Ok(n) => {
                    let conn = self.slab.get_mut_unchecked(slot).expect("conn live");
                    conn.out_pos += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.shared
                        .stats
                        .partial_writes_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.update_interest(slot);
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return false;
                }
            }
        }
    }

    /// A response fully flushed: close, or return to keep-alive and
    /// immediately try any pipelined request already buffered.
    fn finish_write(&mut self, slot: u32) -> bool {
        let draining = self.shared.drain.requested();
        let idle_timeout = self.cfg.idle_timeout;
        let Some(conn) = self.slab.get_mut_unchecked(slot) else {
            return false;
        };
        if conn.close_after_write || draining {
            self.close_conn(slot);
            return false;
        }
        conn.out = Vec::new();
        conn.out_pos = 0;
        conn.state = ConnState::Reading;
        let now = Instant::now();
        conn.idle_deadline = now + idle_timeout;
        self.wheel.schedule(slot, now, conn.idle_deadline);
        self.advance_parse(slot);
        true
    }

    // -- completions ----------------------------------------------------

    fn drain_completions(&mut self) {
        for completion in self.completions.drain() {
            let Some(conn) = self.slab.get_mut(completion.slot, completion.gen) else {
                continue; // connection died while the handler ran
            };
            debug_assert_eq!(conn.state, ConnState::Dispatched);
            self.active = self.active.saturating_sub(1);
            self.queue_write(completion.slot, completion.bytes, completion.close_after);
        }
    }

    // -- interest management --------------------------------------------

    /// Reconciles the epoll interest mask with the connection's state,
    /// issuing `EPOLL_CTL_MOD` only on change.
    fn update_interest(&mut self, slot: u32) {
        let epfd = self.epfd;
        let gen = current_gen(&self.slab, slot);
        let Some(conn) = self.slab.get_mut_unchecked(slot) else {
            return;
        };
        let mut want = EPOLLRDHUP;
        if conn.parser.buffered() <= MAX_HEAD_BYTES + MAX_BODY_BYTES {
            want |= EPOLLIN;
        }
        if conn.state == ConnState::Writing && conn.out_pos < conn.out.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let fd = stream_fd(&conn.stream);
            let _ = sysio::epoll_mod(epfd, fd, want, token(slot, gen));
        }
    }

    // -- timers ----------------------------------------------------------

    fn tick_timers(&mut self) {
        let now = Instant::now();
        for slot in self.wheel.expired(now) {
            let Some(conn) = self.slab.get_mut_unchecked(slot) else {
                continue; // closed since scheduling; wheel entry is stale
            };
            if conn.state == ConnState::Reading && now >= conn.idle_deadline {
                self.shared
                    .stats
                    .idle_closed_total
                    .fetch_add(1, Ordering::Relaxed);
                self.close_conn(slot);
            } else {
                // Early fire (clamped horizon) or mid-request: keep
                // watching against the authoritative deadline.
                let deadline = conn.idle_deadline.max(now + Duration::from_millis(100));
                self.wheel.schedule(slot, now, deadline);
            }
        }
    }

    // -- lifecycle -------------------------------------------------------

    fn close_conn(&mut self, slot: u32) {
        if let Some(conn) = self.slab.remove(slot) {
            if conn.state != ConnState::Reading {
                self.active = self.active.saturating_sub(1);
            }
            let _ = sysio::epoll_del(self.epfd, stream_fd(&conn.stream));
            // Dropping the stream closes the fd.
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = sysio::epoll_del(self.epfd, listener_fd(&listener));
            // Dropping the listener closes the socket, so new connects
            // are refused rather than parked in the backlog.
        }
        // Close idle keep-alive connections; anything mid-request rides
        // to completion (its response closes it — see `dispatch`).
        for slot in self.slab.live_slots() {
            let Some(conn) = self.slab.get_mut_unchecked(slot) else {
                continue;
            };
            if conn.state == ConnState::Reading && conn.parser.buffered() == 0 {
                self.close_conn(slot);
            }
        }
    }

    fn drain_complete(&self) -> bool {
        let pool = &self.shared.pool;
        self.slab.len() == 0 && pool.queue_depth() == 0 && pool.in_flight() == 0
    }

    fn teardown(&mut self) {
        for slot in self.slab.live_slots() {
            self.close_conn(slot);
        }
        sysio::close_fd(self.epfd);
        self.publish_gauges();
    }
}

/// Current generation of a live slot (used when re-deriving a token).
fn current_gen(slab: &Slab, slot: u32) -> u32 {
    slab.gen_of(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, Response};
    use std::net::TcpStream;

    #[test]
    fn panicking_handler_answers_500_and_the_connection_serves_on() {
        let listener = bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // `/pool-panic` dies on a pool worker, `/loop-panic` on the loop
        // thread itself; anything else answers 200 from the pool.
        let pool = Arc::new(Pool::new(1, 4));
        let route: RouteFn = {
            let pool = Arc::clone(&pool);
            Arc::new(move |req: Request, reply: Reply| {
                assert_ne!(req.path, "/loop-panic", "route dies on the loop");
                crate::queue::admit(&pool, reply, move |reply| {
                    assert_ne!(req.path, "/pool-panic", "handler dies on the pool");
                    reply.send(Response::json(200, "{}"));
                });
            })
        };
        let shared = Shared {
            route,
            pool,
            drain: Arc::new(DrainControl::new()),
            stats: Arc::new(ReactorStats::new()),
            metrics: Arc::new(ServerMetrics::new()),
        };
        let cfg = ReactorConfig {
            max_conns: 8,
            idle_timeout: Duration::from_secs(30),
        };
        let mut reactor = spawn(listener, shared, cfg).expect("reactor starts");
        let mut stream = TcpStream::connect(addr).expect("connect");
        let limit = Some(Duration::from_secs(30));
        stream.set_read_timeout(limit).expect("read timeout");
        for (path, status) in [
            ("/pool-panic", 500),
            ("/ok", 200),
            ("/loop-panic", 500),
            ("/ok", 200),
        ] {
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .expect("write");
            let resp = read_response(&stream).expect("one answer per request");
            assert_eq!(resp.status, status, "{path}");
            assert_eq!(resp.header("connection"), Some("keep-alive"), "{path}");
            let body = String::from_utf8_lossy(&resp.body);
            let crashed = r#"{"v": 2, "data": null, "error": {"code":"worker_crashed","#;
            assert_eq!(body.starts_with(crashed), status == 500, "{path}: {body}");
        }
        reactor.stop.store(true, Ordering::SeqCst);
        for thread in reactor.threads.drain(..) {
            thread.join().expect("reactor thread exits cleanly");
        }
    }
}
