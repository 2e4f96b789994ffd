#![warn(missing_docs)]
//! # wb-serve
//!
//! A dependency-free HTTP/1.1 briefing server — the serving shape the
//! paper's system is meant to run in: long-lived, ingesting arbitrary real
//! pages, under concurrent load. Exposed on the command line as
//! `wb serve --model FILE`.
//!
//! ## Request path
//!
//! ```text
//!             ┌────────────── event loop (one thread, poll(2)) ──────────────┐
//! accept ──►  │ nonblocking reads ─► incremental parser ─► inline cache hit? │
//!             │        (per-conn buffer, keep-alive, pipelining)   │ yes ─► reply
//!             └────────────────────────────┬─────────────────────────────────┘
//!                                          │ miss / control route
//!                                bounded work queue ──► worker pool
//!                                          │ full?          │
//!                                          └─► 503          ├─► replica ring (consistent hash)
//!                                                           │     ├─ LRU cache ─► micro-batcher
//!                                                           │     └─ circuit breaker
//!                                                           └─► Briefer::brief_batch
//! ```
//!
//! * **Event-loop I/O** — one thread multiplexes every connection with
//!   `poll(2)` ([`sys`]); reads and writes are nonblocking and
//!   readiness-driven, so concurrency is bounded by `--max-conns`, not by
//!   worker count. Parsed requests cross a fixed-capacity work queue to
//!   the worker pool; when the queue is full, new requests are shed
//!   immediately with `503` and a `Retry-After` header. An accepted
//!   request is never silently dropped.
//! * **Keep-alive + pipelining** — connections persist per HTTP/1.1
//!   semantics (`Connection:` headers honoured, `--max-requests-per-conn`
//!   and `--idle-timeout-ms` bound each connection's tenure); bytes
//!   beyond the current request stay in the connection buffer and are
//!   served in order. Framing errors always close the connection.
//! * **Replica sharding** — briefing fans out over `--replicas`
//!   independent lanes ([`replica`]): each owns an LRU cache, a
//!   micro-batcher with its own executors, and a circuit breaker, routed
//!   by a consistent-hash ring over the page-content hash so repeat pages
//!   hit the same hot cache and one lane's failures trip only its own
//!   breaker.
//! * **Micro-batching** — concurrent `/brief` requests on a replica drain
//!   into a single [`wb_core::Briefer::brief_batch`] call so they share
//!   one rayon fan-out; identical pages in a batch run the model once.
//! * **Response cache** — an LRU keyed by page-content hash serves repeat
//!   pages without re-running the model — hot hits answer inline on the
//!   event-loop thread without a worker handoff. Briefing is pure, so
//!   cached and recomputed responses are byte-identical.
//! * **Bounded everything** — oversized bodies get `413` (from the
//!   `Content-Length` header alone), slow clients `408`, and a request
//!   whose batch cannot finish inside the timeout `503`; a model panic
//!   returns `500` to that page's requests only and the server keeps
//!   serving.
//!
//! ## Routes
//!
//! | Route            | Behaviour                                          |
//! |------------------|----------------------------------------------------|
//! | `POST /brief`    | HTML body in → pretty-printed `Brief` JSON out (byte-identical to `wb brief --json`) |
//! | `GET /healthz`   | `{"status":"ok"}`                                  |
//! | `GET /metrics`   | the `wb-obs` metrics snapshot JSON; `?format=prometheus` for text exposition |
//! | `GET /varz`      | the windowed live view (RPS, error rate, windowed percentiles, stage breakdown) — what `wb top` polls |
//! | `POST /shutdown` | acknowledge, then shut down gracefully             |
//!
//! ## Request-scoped telemetry
//!
//! Every request carries an id (inbound `X-Request-Id` honoured,
//! otherwise minted; always echoed back) and a [`telemetry::StageTimings`]
//! breakdown — `queue_wait → parse → cache → batch_wait → model →
//! serialize → write` — recorded into the `serve.stage.*_us` histogram
//! family (cumulative and windowed), echoed as a `Server-Timing` response
//! header and emitted as a structured JSON access-log line (sampled via
//! `--access-log-sample`; requests slower than `--slow-request-ms`
//! always log at WARN). Control-plane routes (`/healthz`, `/metrics`,
//! `/varz`, `/shutdown`) record `serve.control.latency_us` so scrapes
//! and health probes never skew serving percentiles.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or `POST /shutdown`) stops accepting,
//! serves everything already accepted, drains the batch queue and joins
//! every thread; the `wb serve` command then flushes `--metrics-out` /
//! `--trace-out`. Every stage is instrumented under `serve.*` (see
//! `docs/OBSERVABILITY.md`).

pub mod batch;
pub mod breaker;
pub mod cache;
mod event;
pub mod http;
pub mod replica;
pub mod server;
pub mod signal;
pub mod sys;
pub mod telemetry;

pub use batch::{Batcher, BriefOutcome, Completion, Job};
pub use breaker::{Admission, BreakerConfig, CircuitBreaker};
pub use cache::{fnv1a, Fingerprint, LruCache};
pub use replica::{Replica, ReplicaSet};
pub use server::{start, ServeConfig, ServerHandle};
pub use signal::{install_handler, shutdown_signalled};
