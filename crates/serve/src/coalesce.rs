//! In-flight request coalescing.
//!
//! Identical simulation requests arriving while the first copy is still
//! computing should cost one simulation and produce byte-identical
//! responses. The trace cache already deduplicates the *simulation*;
//! coalescing one level up also deduplicates workload construction,
//! summarization, and serialization, and — more importantly — means the
//! duplicate request never holds a pool worker for the computation's
//! duration: it leaves its reply with the leader and frees its worker
//! at once.
//!
//! The map only holds keys while they are in flight: the leader
//! retires its key when its computation ends (or panics), so completed
//! requests go back through the normal (trace-cache-accelerated) path
//! and the map cannot grow with the request history.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Coalesces concurrent computations by key. `W` is whatever a waiting
/// caller leaves behind to be answered (in the daemon, a request's
/// [`crate::reactor::Reply`]); no caller ever blocks on another.
pub struct Coalescer<K, W> {
    /// Followers parked on each in-flight key.
    inflight: Mutex<HashMap<K, Vec<W>>>,
    coalesced: AtomicU64,
    led: AtomicU64,
}

impl<K, W> Default for Coalescer<K, W> {
    fn default() -> Self {
        Coalescer {
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            led: AtomicU64::new(0),
        }
    }
}

/// A leader's claim on its key: dropping it retires the key and hands
/// back (or, on a panic, drops) the followers that joined.
struct InFlight<'a, K: Hash + Eq, W> {
    map: &'a Mutex<HashMap<K, Vec<W>>>,
    key: Option<K>,
}

impl<K: Hash + Eq, W> InFlight<'_, K, W> {
    /// Retires the key, returning every follower parked on it. The lock
    /// is recovered if poisoned: each map update leaves it valid, and
    /// this also runs from `Drop` during a panic.
    fn retire(&mut self) -> Vec<W> {
        let Some(key) = self.key.take() else {
            return Vec::new();
        };
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&key)
            .unwrap_or_default()
    }
}

impl<K: Hash + Eq, W> Drop for InFlight<'_, K, W> {
    fn drop(&mut self) {
        drop(self.retire());
    }
}

impl<K: Hash + Eq + Clone, W> Coalescer<K, W> {
    /// An empty coalescer.
    pub fn new() -> Self {
        Coalescer::default()
    }

    /// Requests that piggybacked on another request's computation.
    pub fn coalesced_total(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Requests that actually ran their computation.
    pub fn led_total(&self) -> u64 {
        self.led.load(Ordering::Relaxed)
    }

    /// Keys currently in flight.
    pub fn inflight_len(&self) -> usize {
        self.inflight.lock().expect("coalescer lock").len()
    }

    /// Runs `compute` for `key` unless a computation for the same key is
    /// already in flight.
    ///
    /// The leader gets `Some((value, waiters))`: its own `waiter` first,
    /// then every waiter that joined while `compute` ran, each to be
    /// answered with `value`. A follower leaves `waiter` with the leader
    /// and gets `None` at once. If `compute` panics, the key is retired
    /// and every waiter is dropped as the panic unwinds.
    pub fn run<V>(&self, key: K, waiter: W, compute: impl FnOnce() -> V) -> Option<(V, Vec<W>)> {
        {
            let mut map = self.inflight.lock().expect("coalescer lock");
            if let Some(followers) = map.get_mut(&key) {
                followers.push(waiter);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            map.insert(key.clone(), Vec::new());
        }
        self.led.fetch_add(1, Ordering::Relaxed);
        let mut claim = InFlight {
            map: &self.inflight,
            key: Some(key),
        };
        let value = compute();
        let mut waiters = vec![waiter];
        waiters.extend(claim.retire());
        Some((value, waiters))
    }
}

impl<K, W> std::fmt::Debug for Coalescer<K, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("coalesced", &self.coalesced.load(Ordering::Relaxed))
            .field("led", &self.led.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Reply;
    use std::panic::AssertUnwindSafe;

    // Followers join from inside the leader's computation: the key is
    // in flight for certain, and since this is one thread, a follower
    // that waited for the leader would never return.

    #[test]
    fn concurrent_identical_keys_compute_once() {
        let c = Coalescer::<u32, u32>::new();
        let mut runs = 0;
        let (value, waiters) = c
            .run(7, 0, || {
                runs += 1;
                for follower in 1..8 {
                    assert!(c.run(7, follower, || unreachable!("in flight")).is_none());
                }
                42
            })
            .expect("first caller leads");
        assert_eq!(value, 42);
        assert_eq!(
            waiters,
            (0..8).collect::<Vec<_>>(),
            "leader first, then all"
        );
        assert_eq!(runs, 1, "one leader only");
        assert_eq!(c.coalesced_total(), 7);
        assert_eq!(c.led_total(), 1);
        assert_eq!(c.inflight_len(), 0, "key retired with the leader");
    }

    #[test]
    fn panicking_leader_answers_every_follower() {
        let c = Coalescer::<u32, Reply>::new();
        let (leader, leader_answers) = Reply::detached();
        let (followers, mut answers): (Vec<_>, Vec<_>) = (0..3).map(|_| Reply::detached()).unzip();
        answers.push(leader_answers);
        let died = std::panic::catch_unwind(AssertUnwindSafe(|| {
            c.run(7, leader, || {
                for follower in followers {
                    assert!(c.run(7, follower, || unreachable!("in flight")).is_none());
                }
                panic!("leader dies")
            })
        }));
        assert!(died.is_err());
        for answers in &answers {
            let answered = answers();
            assert_eq!(answered.len(), 1, "exactly one answer: {answered:?}");
            assert!(answered[0].starts_with("HTTP/1.1 500 "), "{answered:?}");
            assert!(answered[0].contains("\"worker_crashed\""), "{answered:?}");
        }
        assert_eq!(c.inflight_len(), 0, "a panicking leader retires its key");
    }

    #[test]
    fn distinct_keys_do_not_share() {
        let c = Coalescer::<u32, ()>::new();
        std::thread::scope(|scope| {
            for k in 0..4u32 {
                let c = &c;
                scope.spawn(move || {
                    let (value, waiters) = c.run(k, (), || k * 10).expect("leads");
                    assert_eq!((value, waiters.len()), (k * 10, 1));
                });
            }
        });
        assert_eq!(c.led_total(), 4);
        assert_eq!(c.coalesced_total(), 0);
    }

    #[test]
    fn sequential_repeats_each_lead() {
        // No concurrency -> no coalescing; the trace cache handles the
        // repeat, not the coalescer.
        let c = Coalescer::<&'static str, ()>::new();
        assert_eq!(c.run("k", (), || 1).map(|(v, _)| v), Some(1));
        assert_eq!(c.run("k", (), || 2).map(|(v, _)| v), Some(2));
        assert_eq!(c.led_total(), 2);
        assert_eq!(c.coalesced_total(), 0);
        assert_eq!(c.inflight_len(), 0);
    }
}
