//! The trace cache's cluster tier: shard-to-shard fetch-on-miss.
//!
//! Peers are discovered from the versioned topology the router pushes
//! (`POST /v2/admin/topology`) — a shard with no pushed topology simply
//! has no peers and the tier is inert. [`PeerFetcher`] is the
//! [`RemoteFetcher`] the daemon installs into the global trace cache
//! when `--peer-fetch` is on: when a simulation's trace is in neither
//! the shard's memory nor its disk tier, it asks healthy, active peers
//! for it over `GET /v2/cache/trace/{spec}-{workload}-{config}` under a
//! hard latency budget, and gives up — letting the lookup simulate —
//! the moment the budget runs out. A peer answers from memory with the
//! trace's `SATR` bytes ([`sparseadapt::trace_bin`]), so one round trip
//! replaces one whole simulation.
//!
//! Budget semantics: the budget (`--peer-fetch-budget-ms`) belongs to
//! the fetcher and is a wall-clock deadline for the whole fetch attempt.
//! Each socket operation (connect, write, read) gets the time
//! *remaining* until the deadline as its timeout, and the
//! peer-iteration loop stops the moment the deadline passes, so one
//! hung peer costs at most the remaining budget, never a TCP-default
//! timeout. Because timeouts apply per operation, a byzantine peer
//! trickling bytes can stretch one attempt past the deadline by a small
//! factor — acceptable for a trusted-cluster tier whose worst case is
//! still bounded and whose fallback (simulate locally) is always
//! correct. Every attempt that asked a peer is timed into the server's
//! `peer_fetch` histogram in `/metrics`.
//!
//! Soundness: keys are content fingerprints over machine × workload ×
//! config, so a key names exactly one trace. The bytes carry the key
//! and a checksum of the records, and the trace cache decodes them
//! against the key it asked for, so corrupt, version-skewed or
//! misaddressed answers read as misses.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparseadapt::trace_cache::{RemoteFetcher, TraceKey};

use crate::http::{read_response, write_request};
use crate::server::AppState;

/// Path prefix of the shard-to-shard trace protocol.
pub const TRACE_PATH: &str = "/v2/cache/trace/";

/// The [`RemoteFetcher`] a shard installs when `--peer-fetch` is on:
/// budgeted `GET`s against the peers named by the pushed topology.
pub struct PeerFetcher {
    self_addr: SocketAddr,
    state: Arc<AppState>,
    budget: Duration,
}

impl std::fmt::Debug for PeerFetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerFetcher")
            .field("self_addr", &self.self_addr)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl PeerFetcher {
    /// A fetcher for the shard bound at `self_addr`, reading peers from
    /// `state`'s pushed topology, giving each fetch `budget` and timing
    /// it into `state`'s metrics.
    pub fn new(self_addr: SocketAddr, state: Arc<AppState>, budget: Duration) -> PeerFetcher {
        PeerFetcher {
            self_addr,
            state,
            budget,
        }
    }
}

/// Healthy, active peers from the pushed topology, excluding `me`.
fn peers_of(state: &AppState, me: SocketAddr) -> Vec<SocketAddr> {
    let held = state.topology.lock().expect("topology lock");
    let Some(doc) = held.as_ref() else {
        return Vec::new();
    };
    doc.shards
        .iter()
        .filter(|s| s.healthy && s.state == "active")
        .filter_map(|s| s.addr.parse::<SocketAddr>().ok())
        .filter(|a| *a != me)
        .collect()
}

impl RemoteFetcher for PeerFetcher {
    fn fetch(&self, key: &TraceKey) -> Option<Vec<u8>> {
        let started = Instant::now();
        let deadline = started + self.budget;
        let peers = peers_of(&self.state, self.self_addr);
        if peers.is_empty() {
            return None;
        }
        // Start at a key-determined peer so a cluster warmed by one
        // shard spreads fetch load instead of hammering peer 0.
        let start = (key.config as usize) % peers.len();
        let target = format!("{TRACE_PATH}{}", key.token());
        let fetched = (0..peers.len()).find_map(|i| {
            let remaining = deadline.checked_duration_since(Instant::now())?;
            fetch_one(
                peers[(start + i) % peers.len()],
                &target,
                remaining,
                deadline,
            )
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.state.metrics.record_peer_fetch(ms);
        fetched
    }
}

/// One budgeted `GET` against one peer; `None` on any miss, error, or
/// timeout.
fn fetch_one(
    addr: SocketAddr,
    target: &str,
    remaining: Duration,
    deadline: Instant,
) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect_timeout(&addr, remaining).ok()?;
    let left = deadline.checked_duration_since(Instant::now())?;
    stream.set_read_timeout(Some(left)).ok()?;
    stream.set_write_timeout(Some(left)).ok()?;
    let _ = stream.set_nodelay(true);
    write_request(&mut stream, "GET", target, None).ok()?;
    let resp = read_response(&stream).ok()?;
    (resp.status == 200).then_some(resp.body)
}
