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
//!             ┌─────────────────── event loop (one thread, poll(2)) ───────────────────┐
//! accept ──►  │ nonblocking reads ─► incremental parser ─► route                        │
//!             │   (per-conn buffer, keep-alive, pipelining)  │ control ─► reply inline  │
//!             │                                              │ POST /brief:             │
//!             │      X-Deadline-Ms ─► replica ring (consistent hash) ─► LRU cache       │
//!             │                       hit ─► reply    miss ─► breaker ─► submit         │
//!             └──────────────────────────────────────────────────────────┬──────▲───────┘
//!                                     replica queue (--queue-capacity)   │      │ completion
//!                                         full? ─► 503                   ▼      │ (self-pipe)
//!                                     executors: Briefer::brief_batch ─► serialise ─► cache fill
//! ```
//!
//! * **Event-loop I/O** — one thread multiplexes every connection with
//!   `poll(2)` ([`sys`]); reads and writes are nonblocking and
//!   readiness-driven, so concurrency is bounded by `--max-conns`, not by
//!   thread count. The loop answers cache hits and control routes itself
//!   and moves each miss's body into a job on its replica's bounded
//!   queue; when the queue is full, the request is shed immediately with
//!   `503` and a `Retry-After` header. An accepted request is never
//!   silently dropped.
//! * **Keep-alive + pipelining** — connections persist per HTTP/1.1
//!   semantics (`Connection:` headers honoured, `--max-requests-per-conn`
//!   and `--idle-timeout-ms` bound each connection's tenure); bytes
//!   beyond the current request stay in the connection buffer and are
//!   served in order. Framing errors always close the connection.
//! * **Replica sharding** — briefing fans out over `--replicas`
//!   independent lanes (`replica`): each owns a queue with its own
//!   executors, an LRU cache and a circuit breaker, routed by a
//!   consistent-hash ring over the page-content hash so repeat pages hit
//!   the same hot cache and one lane's failures trip only its own
//!   breaker.
//! * **Executors** — each replica runs `min(rayon threads, --workers)`
//!   executors as rayon pool workers. Each take is one page plus its
//!   queued duplicates, so identical pages run the model once; distinct
//!   pages run side by side. The executor serialises the brief, fills
//!   the cache and hands the result back to the loop, which writes it: a
//!   miss crosses threads exactly twice.
//! * **Response cache** — an LRU keyed by page-content hash serves repeat
//!   pages without re-running the model; the loop probes it once per
//!   request. Briefing is pure, so cached and recomputed responses are
//!   byte-identical.
//! * **Bounded everything** — oversized bodies get `413` (from the
//!   `Content-Length` header alone), slow clients `408`, and a request
//!   whose page is not briefed inside the timeout `503`; a model panic
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
//! breakdown — `parse → cache → queue_wait → model → serialize → write`
//! — recorded into the `serve.stage.*_us` histogram family (cumulative
//! and windowed), echoed as a `Server-Timing` response header and
//! emitted as a structured JSON access-log line (sampled via
//! `--access-log-sample`; requests slower than `--slow-request-ms`
//! always log at WARN). Control-plane routes (`/healthz`, `/metrics`,
//! `/varz`, `/shutdown`) record `serve.control.latency_us` so scrapes
//! and health probes never skew serving percentiles.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or `POST /shutdown`) stops accepting,
//! serves everything already accepted, drains the replica queues and
//! joins every thread; the `wb serve` command then flushes
//! `--metrics-out` / `--trace-out`. Every stage is instrumented under `serve.*` (see
//! `docs/OBSERVABILITY.md`).

mod batch;
pub mod breaker;
pub mod cache;
mod event;
pub mod http;
mod replica;
pub mod server;
pub mod signal;
pub mod sys;
pub mod telemetry;

pub use breaker::{Admission, BreakerConfig, CircuitBreaker};
pub use cache::{fnv1a, Fingerprint, LruCache};
pub use server::{start, ServeConfig, ServerHandle};
pub use signal::{install_handler, shutdown_signalled};
