//! # catt-serve — overload-safe multi-tenant compile-and-simulate daemon
//!
//! The paper's pipeline is batch-shaped: compile a kernel, search the
//! throttling factors, simulate. `catt serve` wraps it in a long-lived
//! service so many tenants can share one simulator fleet — and makes the
//! *robustness* properties first-class:
//!
//! * **Bounded admission with backpressure** — a weighted-fair queue with
//!   a high-water mark; past it, submissions shed instantly with
//!   `overloaded` + retry-after instead of growing an unbounded backlog
//!   ([`server::ServeConfig::queue_high_water`]).
//! * **Per-tenant quotas** — token buckets denominated in simulation
//!   fuel, the simulator's own cost currency ([`quota::TokenBucket`]).
//! * **Weighted-fair dequeue** — deficit round-robin over tenants, so a
//!   chatty tenant cannot starve the rest ([`fair::FairQueue`]).
//! * **Deadline propagation** — a request past its wall-clock budget is
//!   *cancelled* (through the simulator's [`catt_sim::CancelToken`]),
//!   never completed late.
//! * **Circuit breakers** — repeated fatal simulation faults open a
//!   tenant's breaker; a cooldown later one probe half-opens it
//!   ([`breaker::Breaker`]).
//! * **Graceful drain** — SIGTERM/`shutdown` stops admission, finishes
//!   or cancels in-flight work, answers everything queued, and flushes
//!   the simcache atomically ([`server::Server::drain`]).
//! * **Single-flight dedupe** — identical submissions (tenant excluded)
//!   coalesce onto one simulation through the engine's content-addressed
//!   cache ([`catt_core::engine::Engine::sim_app_shared`]).
//!
//! The wire protocol is newline-delimited JSON over stdio or TCP
//! ([`proto`]); every request ends in exactly one typed response — the
//! contract `tests/serve_load.rs` holds under load and chaos over both the
//! in-process admission path and the TCP front end. Throughput and latency
//! are measured by `benchmark/` (`serve-cold`, `serve-hot`), from outside.

pub mod breaker;
pub mod fair;
pub mod front;
pub mod json;
pub mod proto;
pub mod quota;
pub mod server;

pub use breaker::{Breaker, BreakerState};
pub use fair::FairQueue;
pub use proto::{ErrorKind, Op, Request, Response, SubmitRequest};
pub use quota::TokenBucket;
pub use server::{ServeConfig, Server};
