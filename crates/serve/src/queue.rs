//! Admission control: every handler that simulates, reads disk or talks
//! to the network runs on the bounded [`sparseadapt::exec::Pool`], and a
//! full queue becomes an HTTP 429 with a `Retry-After` hint instead of
//! unbounded memory growth. Simulate and recommend requests answered
//! from memory on the loop thread never enter the queue, so its
//! capacity (`--queue-cap`) bounds only the work that needs a worker.
//!
//! Connections are cheap (one slab entry on the reactor loop); the
//! *handler* concurrency is what must be bounded, because each
//! simulate/sweep job can itself fan out over the sweep pool and pin
//! CPUs for seconds. The pool's queue is the only buffer between the
//! two, so its capacity is the daemon's entire overload policy.

use sparseadapt::exec::Pool;

use crate::api::{code, ApiError};
use crate::reactor::Reply;

/// Runs `handler` on the pool with the request's reply; the handler
/// answers through it. A full queue answers 429 `queue_full` with a
/// `Retry-After` hint at once, without blocking the caller. A handler
/// that panics drops the reply, which answers 500 `worker_crashed`.
pub fn admit(pool: &Pool, reply: Reply, handler: impl FnOnce(Reply) + Send + 'static) {
    if let Err(reply) = pool.try_submit_with(reply, handler) {
        let full = ApiError::new(code::QUEUE_FULL, "admission queue full; retry later")
            .with_retry_after_ms(retry_after_s(pool) * 1000);
        reply.error(429, &full);
    }
}

/// The `Retry-After` value (seconds) to attach to a 429: a coarse
/// queue-pressure hint, one second per queued job, floored at 1.
pub fn retry_after_s(pool: &Pool) -> u64 {
    (pool.queue_depth() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiVersion;
    use crate::http::Response;
    use std::sync::mpsc;

    /// Admits `handler` and waits (bounded) for the answer it produced.
    fn admitted_answer(pool: &Pool, handler: impl FnOnce(Reply) + Send + 'static) -> String {
        let (reply, answers) = Reply::detached(ApiVersion::V2);
        admit(pool, reply, handler);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let mut got = answers();
            if let Some(text) = got.pop() {
                assert!(got.is_empty(), "exactly one answer");
                return text;
            }
            assert!(std::time::Instant::now() < deadline, "no answer");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn admitted_work_returns_its_value() {
        let pool = Pool::new(2, 8);
        let text = admitted_answer(&pool, |reply| {
            reply.send(Response::json(200, format!("{}", 6 * 7)));
        });
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "got: {text}");
        assert!(text.ends_with("\r\n\r\n42"), "got: {text}");
    }

    #[test]
    fn crashed_work_is_distinguished_from_rejection() {
        let pool = Pool::new(1, 8);
        let crashed = admitted_answer(&pool, |_reply| panic!("job dies"));
        assert!(crashed.starts_with("HTTP/1.1 500 "), "got: {crashed}");
        assert!(crashed.contains("\"worker_crashed\""), "got: {crashed}");
        assert!(!crashed.contains("retry-after"), "got: {crashed}");
        // The pool survives a crashed job and keeps answering.
        let ok = admitted_answer(&pool, |reply| reply.send(Response::json(200, "1")));
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "got: {ok}");
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let pool = Pool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.try_submit(move || {
            started_tx.send(()).expect("signal start");
            let _ = block_rx.recv();
        })
        .expect("first job admitted");
        started_rx.recv().expect("worker busy");
        // ...fill the single queue slot...
        pool.try_submit(|| {}).expect("second job queued");
        // ...and the next admission must answer 429 on this thread.
        let (reply, answers) = Reply::detached(ApiVersion::V2);
        admit(&pool, reply, |_reply| {
            unreachable!("rejected job never runs")
        });
        let answered = answers();
        assert_eq!(answered.len(), 1, "answered before admit returned");
        assert!(
            answered[0].starts_with("HTTP/1.1 429 "),
            "got: {answered:?}"
        );
        assert!(answered[0].contains("retry-after: 1"), "got: {answered:?}");
        assert!(answered[0].contains("\"queue_full\""), "got: {answered:?}");
        assert!(retry_after_s(&pool) >= 1);
        block_tx.send(()).expect("unblock worker");
    }
}
