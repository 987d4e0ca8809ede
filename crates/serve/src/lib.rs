//! `sparseadapt-serve`: the simulator as a service.
//!
//! A std-only HTTP/1.1 daemon that exposes the SparseAdapt stack over
//! three POST endpoints — run a simulation, query the adaptive policy,
//! launch an asynchronous configuration sweep — plus `/metrics`,
//! `/healthz`, and job polling. Everything rides the workspace's
//! existing machinery: the bounded [`sparseadapt::exec::Pool`] is the
//! admission queue, the process-wide
//! [`sparseadapt::trace_cache::TraceCache`] deduplicates simulations
//! (repeats, and identical requests in flight at once, which wait on
//! the one simulation), and the bench harness builds workloads from
//! suite ids.
//!
//! Module map:
//! - [`http`] — hand-rolled HTTP/1.1 subset (server and client side)
//! - [`api`] — wire types naming kernels/matrices/config presets
//! - [`router`] / [`handlers`] — endpoint dispatch and execution
//! - [`answer_memo`] — warm answers remembered by their exact request
//!   bytes, so a repeated body skips JSON decode and encode
//! - [`queue`] — admission control over the bounded pool (429 + Retry-After)
//! - [`jobs`] — async sweep-job registry behind 202 + `GET /v2/jobs/<id>`
//! - [`metrics`] — counters, latency histogram, `/metrics` document
//! - [`server`] — listener, shared state, graceful drain, shutdown
//! - [`reactor`] — the epoll readiness loop: connection state machines,
//!   replies, eventfd wakeups, timer wheel
//! - [`shard`] — cluster mode: consistent-hash router, health checks,
//!   failover, merged metrics, shard process spawning
//! - [`peer_tier`] — the trace cache's cluster tier: budgeted peer
//!   fetch-on-miss of whole traces
//! - [`loadgen`] — the load-testing client: one epoll engine that times
//!   every request from its due time, driving the cold pass, closed
//!   loop, open loop, replay and peer-tier A/B schedules; exact
//!   percentiles, p99 regression guard
//!
//! See `DESIGN.md` §"Serving layer" for the API schema and the
//! backpressure model, and `README.md` for a curl quickstart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answer_memo;
pub mod api;
pub mod handlers;
pub mod http;
pub mod jobs;
pub mod loadgen;
pub mod metrics;
pub mod peer_tier;
pub mod queue;
pub mod reactor;
pub mod router;
pub mod server;
pub mod shard;

pub use server::{start, DrainControl, ServeConfig, ServerHandle};
pub use shard::{start_router, RouterConfig, RouterHandle};
