//! The cluster tier of the epoch cache: shard-to-shard fetch-on-miss
//! and post-sweep warm pushes.
//!
//! Peers are discovered from the versioned topology the router pushes
//! (`POST /v2/admin/topology`, PR 9) — a shard with no pushed topology
//! simply has no peers and the tier is inert. [`PeerFetcher`] is the
//! [`RemoteFetcher`] the daemon installs into the global
//! [`EpochCache`] when `--epoch-peer-fetch` is on: on a local
//! (memory + `SAEP` disk) miss it asks healthy, active peers for the
//! key over `GET /v2/cache/epoch/{token}` under a hard latency budget,
//! and gives up — letting the hot path simulate — the moment the
//! budget runs out. A `?chain=N` query asks the peer to follow the
//! content-addressed digest chain and return up to `N` consecutive
//! epochs in one response, collapsing a round trip per epoch into one
//! per run.
//!
//! Budget semantics: the budget is a wall-clock deadline for the whole
//! fetch attempt. Each socket operation (connect, write, read) gets the
//! time *remaining* until the deadline as its timeout, and the
//! peer-iteration loop stops the moment the deadline passes, so one
//! hung peer costs at most the remaining budget, never a TCP-default
//! timeout. Because timeouts apply per operation, a byzantine peer
//! trickling bytes can stretch one attempt past the deadline by a small
//! factor — acceptable for a trusted-cluster tier whose worst case is
//! still bounded and whose fallback (simulate locally) is always
//! correct.
//!
//! Soundness: keys are content fingerprints over machine × workload ×
//! config × epoch index × entry-state digest, so a key names exactly one
//! epoch. The payload carries the key it was stored under, is
//! checksummed, and is fully validated by
//! [`sparseadapt::epoch_cache::decode_epoch`] against the key asked for
//! before admission, so corrupt, version-skewed or misaddressed answers
//! read as misses.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparseadapt::epoch_cache::{EpochCache, EpochKey, RemoteFetcher};

use crate::http::{read_response, write_request, write_request_bytes};
use crate::server::AppState;

/// Path prefix of the shard-to-shard cache protocol.
pub const EPOCH_PATH: &str = "/v2/cache/epoch/";

/// The [`RemoteFetcher`] a shard installs when `--epoch-peer-fetch` is
/// on: budgeted `GET`s against the peers named by the pushed topology.
pub struct PeerFetcher {
    self_addr: SocketAddr,
    state: Arc<AppState>,
}

impl std::fmt::Debug for PeerFetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerFetcher")
            .field("self_addr", &self.self_addr)
            .finish_non_exhaustive()
    }
}

impl PeerFetcher {
    /// A fetcher for the shard bound at `self_addr`, reading peers from
    /// `state`'s pushed topology.
    pub fn new(self_addr: SocketAddr, state: Arc<AppState>) -> PeerFetcher {
        PeerFetcher { self_addr, state }
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
    fn fetch(&self, key: &EpochKey, budget: Duration, chain: usize) -> Option<Vec<u8>> {
        let deadline = Instant::now() + budget;
        let peers = peers_of(&self.state, self.self_addr);
        if peers.is_empty() {
            return None;
        }
        // Start at a key-determined peer so a cluster warmed by one
        // shard spreads fetch load instead of hammering peer 0.
        let start = (key.entry_digest as usize) % peers.len();
        // `?chain=N` asks the peer to follow the digest chain and ship
        // up to N consecutive epochs in one response — one round trip
        // warms the whole remaining run instead of one epoch.
        let target = if chain > 1 {
            format!("{EPOCH_PATH}{}?chain={chain}", key.token())
        } else {
            format!("{EPOCH_PATH}{}", key.token())
        };
        for i in 0..peers.len() {
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let addr = peers[(start + i) % peers.len()];
            if let Some(bytes) = fetch_one(addr, &target, remaining, deadline) {
                return Some(bytes);
            }
        }
        None
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

/// Post-sweep warm push: ships the `k` hottest resident epochs to up to
/// two ring neighbors (the peers adjacent to this shard in the pushed
/// topology's shard order), via `PUT /v2/cache/epoch/{token}`.
/// Best-effort and fully asynchronous to the sweep response — a dead
/// neighbor just drops its copies. Returns how many entries were
/// accepted by peers.
pub fn warm_push(state: &AppState, self_addr: SocketAddr, k: usize) -> usize {
    let cache = EpochCache::global();
    let peers = peers_of(state, self_addr);
    if peers.is_empty() || k == 0 {
        return 0;
    }
    // "Ring neighbors": the two peers that follow this shard's position
    // in the topology's shard order (peers_of preserves document order,
    // which is id order on the router side).
    let neighbors: Vec<SocketAddr> = peers.iter().copied().take(2).collect();
    let mut accepted = 0;
    for key in cache.hottest(k) {
        let Some(bytes) = cache.export(&key) else {
            continue;
        };
        let target = format!("{EPOCH_PATH}{}", key.token());
        for &addr in &neighbors {
            if push_one(addr, &target, &bytes) {
                cache.note_push_sent(bytes.len());
                accepted += 1;
            }
        }
    }
    accepted
}

/// Generous per-operation timeout for warm pushes: they run off the
/// hot path (post-sweep, on a detached thread), so reliability beats
/// latency here.
const PUSH_TIMEOUT: Duration = Duration::from_millis(2_000);

fn push_one(addr: SocketAddr, target: &str, bytes: &[u8]) -> bool {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, PUSH_TIMEOUT) else {
        return false;
    };
    if stream.set_read_timeout(Some(PUSH_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(PUSH_TIMEOUT)).is_err()
    {
        return false;
    }
    let _ = stream.set_nodelay(true);
    if write_request_bytes(&mut stream, "PUT", target, bytes).is_err() {
        return false;
    }
    matches!(read_response(&stream), Ok(resp) if resp.status == 200)
}
