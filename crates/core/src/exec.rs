//! Shared work-stealing execution primitives for sweep-style workloads.
//!
//! Sweeps simulate many independent jobs whose costs vary wildly — a
//! 250 MHz SPM configuration finishes long before a 1 GHz cache
//! configuration chasing misses. Static strided chunking (worker `t`
//! takes jobs `t, t+T, t+2T, …`) leaves cores idle at the tail, so the
//! engine here hands out job indices from a shared atomic counter:
//! whichever worker finishes early steals the next index. Results are
//! gathered *by index*, so the output order — and therefore everything
//! downstream — is identical to a serial run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The default worker count: one per available hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Splits a thread budget across `jobs` concurrent outer jobs, returning
/// `(outer, inner)`: run `outer` jobs at once, giving each `inner`
/// threads for its own nested parallelism. Guarantees `outer >= 1`,
/// `inner >= 1` and `outer * inner <= threads.max(1)`.
pub fn split_threads(jobs: usize, threads: usize) -> (usize, usize) {
    let threads = threads.max(1);
    let outer = jobs.clamp(1, threads);
    (outer, (threads / outer).max(1))
}

/// Splits a thread budget across jobs *proportionally to a static cost
/// weight* instead of evenly: job `i` receives a share of `budget`
/// proportional to `weights[i]`, apportioned by largest remainder so the
/// shares sum to `budget` exactly whenever `budget >= weights.len()`.
/// Every share is at least 1, and no share exceeds `budget` — a single
/// job can at most own the whole pool.
///
/// This is the sizing policy behind `paper all`: experiment suites whose
/// sweeps simulate many more epochs (the fig6/fig8 class) get
/// proportionally more of the pool than one-workload spot checks, so the
/// heavy experiments stop being the wall-clock tail.
pub fn weighted_shares(weights: &[u64], budget: usize) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let budget = budget.max(n);
    let total: u64 = weights.iter().map(|&w| w.max(1)).sum();
    // Integer floor share + remainder per job, largest remainder first.
    let mut shares: Vec<usize> = Vec::with_capacity(n);
    let mut rema: Vec<(u64, usize)> = Vec::with_capacity(n);
    let mut used = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let w = w.max(1);
        let exact = w as u128 * budget as u128;
        let floor = (exact / total as u128) as usize;
        let share = floor.max(1);
        rema.push(((exact % total as u128) as u64, i));
        shares.push(share);
        used += share;
    }
    // Hand out whatever of the budget is left, biggest remainder first.
    rema.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut left = budget.saturating_sub(used);
    for &(_, i) in &rema {
        if left == 0 {
            break;
        }
        shares[i] += 1;
        left -= 1;
    }
    // A tight budget can be overspent by the `max(1)` floors; claw back
    // from the smallest-remainder multi-thread shares until the sum is
    // exact again (always possible: an all-ones allocation costs `n`,
    // and `budget >= n` here).
    used = shares.iter().sum();
    while used > budget {
        let before = used;
        for &(_, i) in rema.iter().rev() {
            if used <= budget {
                break;
            }
            if shares[i] > 1 {
                shares[i] -= 1;
                used -= 1;
            }
        }
        if used == before {
            break; // every share is already 1
        }
    }
    shares
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
    queue_cap: usize,
    queued: AtomicUsize,
    in_flight: AtomicUsize,
}

/// The submitted job was rejected because the pool's admission queue is
/// full. The caller decides what rejection means — the serve daemon
/// turns it into an HTTP 429 with `Retry-After`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFull;

impl std::fmt::Display for PoolFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("worker pool admission queue is full")
    }
}

impl std::error::Error for PoolFull {}

/// A persistent worker pool with a *bounded* admission queue.
///
/// [`parallel_map`] is the right engine for a sweep that exists to be
/// finished; a long-running service instead needs workers that outlive
/// any one request plus explicit backpressure, so overload surfaces as a
/// fast rejection ([`PoolFull`]) rather than an unbounded latency tail.
/// Jobs are executed in FIFO admission order by whichever worker frees
/// up first — the same whoever-is-idle-steals-next policy as
/// [`parallel_map`], expressed over a queue instead of an index
/// counter.
///
/// Dropping the pool finishes already-admitted jobs, then joins the
/// workers. A job may drop the last owner of the pool: its own worker
/// is not joined, and exits once the job returns.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers.len())
            .field("queue_cap", &self.shared.queue_cap)
            .field("queued", &self.queue_depth())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl Pool {
    /// Starts `workers` worker threads (at least one) accepting up to
    /// `queue_cap` queued jobs beyond the ones currently executing.
    pub fn new(workers: usize, queue_cap: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            queue_cap: queue_cap.max(1),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut state = shared.state.lock().expect("pool lock");
                        loop {
                            if let Some(job) = state.queue.pop_front() {
                                break job;
                            }
                            if state.shutdown {
                                return;
                            }
                            state = shared.cv.wait(state).expect("pool lock");
                        }
                    };
                    shared.queued.fetch_sub(1, Ordering::Relaxed);
                    shared.in_flight.fetch_add(1, Ordering::Relaxed);
                    // A panicking job must not take its worker thread
                    // (and the pool's capacity) down with it; the job's
                    // owner observes the failure through whatever result
                    // channel it holds.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                })
            })
            .collect();
        Pool { shared, workers }
    }

    /// Admits `job` if the queue has room, or rejects it with
    /// [`PoolFull`] without blocking. A rejected closure is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`PoolFull`] when `queue_cap` jobs are already waiting.
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolFull> {
        self.try_submit_with((), |()| job()).map_err(|()| PoolFull)
    }

    /// [`Pool::try_submit`] for a job that consumes `input`: a rejected
    /// job is dropped, but its input comes back to the caller, which
    /// still owns whatever the job would have consumed (the serve
    /// daemon's reply handle, which then answers 429).
    ///
    /// # Errors
    ///
    /// Returns `input` when `queue_cap` jobs are already waiting.
    pub fn try_submit_with<T: Send + 'static>(
        &self,
        input: T,
        job: impl FnOnce(T) + Send + 'static,
    ) -> Result<(), T> {
        let mut state = self.shared.state.lock().expect("pool lock");
        if state.queue.len() >= self.shared.queue_cap {
            return Err(input);
        }
        state.queue.push_back(Box::new(move || job(input)));
        self.shared.queued.fetch_add(1, Ordering::Relaxed);
        drop(state);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Jobs admitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Jobs currently executing on a worker.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The admission-queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.shared.queue_cap
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool lock").shutdown = true;
        self.shared.cv.notify_all();
        // A thread cannot join itself.
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                let _ = w.join();
            }
        }
    }
}

/// Runs `f(0), f(1), …, f(n-1)` on up to `threads` workers with
/// work-stealing and returns the results in index order. Equivalent to
/// `(0..n).map(f).collect()` — bit-identical results, different
/// wall-clock.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut produced: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        produced.push((i, f(i)));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("parallel_map worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = parallel_map(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = parallel_map(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = parallel_map(100, 7, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn uneven_costs_still_produce_ordered_results() {
        // Job 0 is by far the slowest; stealing workers must not
        // scramble the output order.
        let out = parallel_map(16, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn split_threads_budget_is_sane() {
        assert_eq!(split_threads(1, 8), (1, 8));
        assert_eq!(split_threads(4, 8), (4, 2));
        assert_eq!(split_threads(16, 8), (8, 1));
        assert_eq!(split_threads(3, 8), (3, 2));
        assert_eq!(split_threads(0, 8), (1, 8));
        assert_eq!(split_threads(5, 0), (1, 1));
        for jobs in 0..20 {
            for threads in 0..20 {
                let (o, i) = split_threads(jobs, threads);
                assert!(o >= 1 && i >= 1);
                assert!(o * i <= threads.max(1));
            }
        }
    }

    #[test]
    fn weighted_shares_are_proportional_and_exact() {
        // 8 threads over weights 1:1:6 -> 1,1,6.
        assert_eq!(weighted_shares(&[1, 1, 6], 8), vec![1, 1, 6]);
        // Even weights degenerate to the old even split.
        assert_eq!(weighted_shares(&[3, 3, 3, 3], 8), vec![2, 2, 2, 2]);
        // Every job gets at least one thread even when the budget is
        // smaller than the job count.
        assert_eq!(weighted_shares(&[1, 100], 1), vec![1, 1]);
        assert_eq!(weighted_shares(&[], 8), Vec::<usize>::new());
        // Zero weights are treated as weight one, not divide-by-zero.
        assert_eq!(weighted_shares(&[0, 0], 4), vec![2, 2]);
        for budget in 1..40 {
            let weights = [7u64, 1, 1, 19, 4];
            let shares = weighted_shares(&weights, budget);
            assert!(shares.iter().all(|&s| s >= 1));
            if budget >= weights.len() {
                assert_eq!(shares.iter().sum::<usize>(), budget, "budget {budget}");
            }
            // Monotone in weight: the heaviest job never gets fewer
            // threads than the lightest.
            assert!(shares[3] >= shares[1], "budget {budget}: {shares:?}");
        }
    }

    #[test]
    fn pool_runs_every_admitted_job() {
        let pool = Pool::new(4, 64);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .expect("queue has room");
        }
        drop(pool); // joins workers after the queue drains
        assert_eq!(done.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_rejects_when_queue_is_full() {
        let pool = Pool::new(1, 2);
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        // Occupy the single worker...
        pool.try_submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap();
        // ...then fill the two queue slots.
        pool.try_submit(|| {}).unwrap();
        pool.try_submit(|| {}).unwrap();
        assert_eq!(pool.queue_depth(), 2);
        assert_eq!(pool.in_flight(), 1);
        // The next admission must bounce instead of blocking.
        assert_eq!(pool.try_submit(|| {}), Err(PoolFull));
        block_tx.send(()).unwrap();
        drop(pool);
    }

    #[test]
    fn rejected_input_comes_back_to_the_caller() {
        let pool = Pool::new(1, 1);
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        pool.try_submit(move || {
            started_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv().unwrap();
        pool.try_submit(|| {}).unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let input = String::from("reply");
        let back = pool.try_submit_with(input, move |s| tx.send(s).unwrap());
        assert_eq!(back, Err(String::from("reply")));
        block_tx.send(()).unwrap();
        drop(pool);
        // The rejected job never ran: its sender was dropped unused.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn pool_results_round_trip_over_channels() {
        let pool = Pool::new(3, 16);
        let mut rxs = Vec::new();
        for i in 0..12u64 {
            let (tx, rx) = std::sync::mpsc::sync_channel(1);
            pool.try_submit(move || tx.send(i * i).unwrap()).unwrap();
            rxs.push(rx);
        }
        for (i, rx) in rxs.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap(), (i * i) as u64);
        }
    }

    #[test]
    fn a_job_may_drop_the_last_owner_of_its_pool() {
        let pool = Arc::new(Pool::new(2, 4));
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let owner = Arc::clone(&pool);
        pool.try_submit(move || {
            release_rx.recv().expect("release");
            // The last clone: the pool drops on this very worker.
            drop(owner);
            done_tx.send(()).expect("done");
        })
        .expect("queue has room");
        drop(pool);
        release_tx.send(()).expect("release the job");
        assert_eq!(
            done_rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok(())
        );
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = Pool::new(1, 8);
        pool.try_submit(|| panic!("bad request")).unwrap();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        pool.try_submit(move || tx.send(7u32).unwrap()).unwrap();
        // The single worker outlived the panic and ran the next job.
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        parallel_map(8, 4, |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
