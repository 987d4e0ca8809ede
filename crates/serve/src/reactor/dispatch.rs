//! The path an answer takes back to the reactor thread.
//!
//! The loop thread hands each parsed request to the route together with
//! a [`Reply`]. Whoever ends up holding the reply — the loop itself for
//! a route that only reads in-process state or a memory hit, a pool
//! worker for anything that simulates, reads disk or talks to the
//! network — renders the response to bytes and
//! pushes a [`Completion`] onto the shared completion queue, signalling
//! the reactor through an eventfd so its `epoll_wait` call wakes
//! immediately.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::api::{code, ApiError, ApiVersion};
use crate::http::{response_bytes, Response};
use crate::metrics::ServerMetrics;

/// A finished response headed back to the reactor.
pub(crate) struct Completion {
    /// Slab slot of the originating connection.
    pub slot: u32,
    /// Slot generation at dispatch time (stale completions are dropped).
    pub gen: u32,
    /// Fully rendered response bytes.
    pub bytes: Vec<u8>,
    /// Close the connection once the bytes flush.
    pub close_after: bool,
}

/// Wrapper owning an eventfd file descriptor.
#[derive(Debug)]
pub(crate) struct EventFd {
    fd: i32,
}

impl EventFd {
    /// Creates a nonblocking eventfd.
    pub fn new() -> std::io::Result<EventFd> {
        Ok(EventFd {
            fd: sysio::eventfd()?,
        })
    }

    /// Raw descriptor for epoll registration.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Increments the counter, waking any epoll waiter.
    pub fn signal(&self) {
        let _ = sysio::eventfd_signal(self.fd);
    }

    /// Clears the counter so level-triggered epoll stops reporting it.
    pub fn drain(&self) {
        let _ = sysio::eventfd_drain(self.fd);
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        sysio::close_fd(self.fd);
    }
}

/// Completions accumulated for the reactor, paired with the eventfd
/// that wakes it.
pub(crate) struct CompletionQueue {
    inner: Mutex<Vec<Completion>>,
    wake: EventFd,
}

impl CompletionQueue {
    /// Empty queue around a fresh eventfd.
    pub fn new() -> std::io::Result<CompletionQueue> {
        Ok(CompletionQueue {
            inner: Mutex::new(Vec::new()),
            wake: EventFd::new()?,
        })
    }

    /// Eventfd descriptor the reactor registers with epoll.
    pub fn wake_fd(&self) -> i32 {
        self.wake.fd()
    }

    /// Queues a completion and wakes the reactor. A poisoned lock is
    /// recovered: every push leaves the vector valid, and this runs in
    /// [`Reply`]'s `Drop`, which must not panic.
    pub fn push(&self, completion: Completion) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(completion);
        self.wake.signal();
    }

    /// Takes every pending completion and clears the wake signal.
    pub fn drain(&self) -> Vec<Completion> {
        self.wake.drain();
        std::mem::take(&mut *self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The one answer a dispatched request gets.
///
/// [`Reply::send`] records the request under its route label in the
/// server's metrics (latency runs from route entry, admission wait
/// included), renders the response and queues the bytes for the loop
/// thread. A reply dropped unanswered — its handler panicked — answers
/// 500 `worker_crashed` instead, so no connection is left waiting.
pub struct Reply {
    slot: u32,
    gen: u32,
    keep_alive: bool,
    label: &'static str,
    started: Instant,
    metrics: Arc<ServerMetrics>,
    completions: Arc<CompletionQueue>,
    answered: bool,
}

impl Reply {
    /// A reply for the request on connection `(slot, gen)`, its latency
    /// clock started now.
    pub(crate) fn new(
        slot: u32,
        gen: u32,
        keep_alive: bool,
        metrics: Arc<ServerMetrics>,
        completions: Arc<CompletionQueue>,
    ) -> Reply {
        Reply {
            slot,
            gen,
            keep_alive,
            label: "unrouted",
            started: Instant::now(),
            metrics,
            completions,
            answered: false,
        }
    }

    /// Names the route the request matched: the label its answer is
    /// counted under in `/metrics`.
    pub fn set_route(&mut self, label: &'static str) {
        self.label = label;
    }

    /// The label of the route the request matched.
    pub(crate) fn route(&self) -> &'static str {
        self.label
    }

    /// Answers the request.
    pub fn send(mut self, response: Response) {
        self.answer(&response);
    }

    /// Answers with a structured error.
    pub fn error(self, status: u16, err: &ApiError) {
        self.send(ApiVersion::V2.error_response(status, err));
    }

    fn answer(&mut self, response: &Response) {
        self.answered = true;
        self.metrics.record(
            self.label,
            response.status,
            self.started.elapsed().as_secs_f64() * 1e3,
        );
        self.completions.push(Completion {
            slot: self.slot,
            gen: self.gen,
            bytes: response_bytes(response, self.keep_alive),
            close_after: !self.keep_alive,
        });
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.answered {
            let err = ApiError::new(
                code::WORKER_CRASHED,
                format!("worker crashed while serving {}", self.label),
            );
            self.answer(&ApiVersion::V2.error_response(500, &err));
        }
    }
}

#[cfg(test)]
impl Reply {
    /// A reply with no connection behind it, for handler tests that run
    /// without a reactor: the returned closure takes every answer
    /// queued so far, as text.
    pub(crate) fn detached() -> (Reply, impl Fn() -> Vec<String>) {
        let completions = Arc::new(CompletionQueue::new().expect("eventfd"));
        let reply = Reply::new(
            0,
            0,
            false,
            Arc::new(ServerMetrics::new()),
            Arc::clone(&completions),
        );
        let answers = move || {
            completions
                .drain()
                .into_iter()
                .map(|c| String::from_utf8(c.bytes).expect("UTF-8 response"))
                .collect()
        };
        (reply, answers)
    }
}
