//! # seqhide-serve
//!
//! A long-running sanitization **service**: a threaded TCP server that
//! answers newline-delimited JSON requests through the same hide
//! pipeline ([`exec`]) the CLI runs over the [`Sanitizer`]/
//! [`PatternDomain`] machinery — so a served release is byte-identical
//! to `seqhide hide`'s for the same (input, pattern class, algorithm, ψ,
//! seed).
//!
//! Std-only by constraint and by design: the build environment has no
//! registry access (no tokio, no serde), and the paper's workloads are
//! CPU-bound batch sanitizations for which a fixed worker pool over a
//! bounded queue is the honest architecture — the interesting parts are
//! **backpressure** (a full queue sheds load with an `overloaded`
//! response instead of buffering unboundedly) and **graceful drain** (a
//! `shutdown` request lets admitted work finish, then every thread is
//! joined before the process exits 0).
//!
//! Module map:
//!
//! * [`json`] — minimal JSON value/parser/renderer for the wire format;
//! * [`protocol`] — request decoding, response building ([`docs`]:
//!   `docs/SERVER.md` is the wire specification);
//! * [`queue`] — the bounded Mutex+Condvar job queue: per-tenant lanes
//!   drained by deficit-weighted round robin under one global bound;
//! * [`tenant`] — multi-tenant admission control: the `--tenants`
//!   config (tokens, weights, quotas, rate limits), per-tenant
//!   accounting, the pinned-bytes ledger;
//! * [`registry`] — named dataset snapshots (`load`/`unload`/
//!   `datasets`), interned once and referenced by `dataset: "name"`,
//!   persisted to `--data-dir` as compressed shard stores;
//! * [`exec`] — the hide pipeline `seqhide hide` runs too: one
//!   [`exec::HideSpec`], and its in-memory, streamed and delta routes;
//! * [`delta`] — the `delta` wire op: the per-dataset session table,
//!   in-place registry mutation under versioned snapshots, `.sqdi`
//!   index persistence beside the shard store;
//! * [`server`] — acceptor, connection threads, worker pool, drain;
//! * [`trace`] — per-request trace journal: request ids, event
//!   timelines, the `timings` breakdown, the slow-request ring;
//! * [`http`] — the plain-HTTP metrics listener (`GET /metrics`
//!   Prometheus scrapes, `--metrics-addr`);
//! * [`loadgen`] — the concurrent load generator behind
//!   `seqhide loadgen` (zipfian request mixes, client-side latency
//!   histograms, the `BENCH_serve.json` report).
//!
//! Telemetry rides the workspace's `obs` feature: serve phases, request
//! latency and queue-wait histograms, `queue_depth`/`inflight`
//! high-water gauges, a live `metrics` request that returns the
//! snapshot diff since server start (JSON or Prometheus text), and a
//! `debug` request that dumps the slowest-request journal.
//!
//! [`Sanitizer`]: seqhide_core::Sanitizer
//! [`PatternDomain`]: seqhide_core::PatternDomain
//! [`docs`]: crate::protocol

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod exec;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;
pub mod tenant;
pub mod trace;

pub use registry::{DatasetInfo, DatasetRegistry, DatasetSnapshot, RegistryLimits};
pub use server::{ServeOptions, ServeSummary, Server};
pub use tenant::{TenantConfig, TenantId, TenantRegistry};
