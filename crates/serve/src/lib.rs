//! # lockstep-serve — the campaign service
//!
//! Wraps the fault-injection campaign engine in a long-running network
//! service: clients submit campaign jobs (workloads × fault counts ×
//! seeds) over a **line-delimited JSON-over-TCP** protocol, the
//! scheduler cuts each job into **resumable shards** and fans them out
//! across worker threads, and a **prediction endpoint** diagnoses
//! divergence signatures (DSRs) against tables trained on every
//! completed job — returning the paper's ranked-unit checking order
//! and hard/soft type bit.
//!
//! The moving parts, one module each:
//!
//! * [`proto`] — request/response types and the line protocol
//!   (documented in full in `docs/CAMPAIGN_SERVICE.md`).
//! * [`registry`] — the on-disk job registry; the only durable state.
//!   A killed server resumes in-flight jobs on restart from the shard
//!   archives that made it to disk.
//! * [`scheduler`] — bounded work queue with backpressure, worker
//!   pool, per-shard lease timeouts with requeue, retry-then-fail.
//! * [`predict`] — merge-on-read job archives and cached prediction
//!   tables trained exactly like the offline `repro_all` path.
//! * [`server`] — the TCP front-end (blocking I/O, one handler thread
//!   per connection, self-connect shutdown) and the request handlers.
//!
//! Everything rests on the shard equivalence property pinned in
//! `lockstep-eval`: shards merge byte-identical to the single-shot
//! archive, and shard reruns are byte-identical to each other — which
//! is what makes timeouts, duplicate completions, and restarts safe.
//!
//! Binaries: `lockstep_serve` (the daemon) and `lockstep_client` (the
//! matching CLI). See the README quickstart or
//! `docs/CAMPAIGN_SERVICE.md` for a full transcript.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod predict;
pub mod proto;
pub mod registry;
pub mod scheduler;
pub mod server;

pub use predict::PredictService;
pub use proto::{JobSpec, Request};
pub use registry::{JobRecord, Registry};
pub use scheduler::{campaign_runner, Scheduler, SchedulerConfig, ShardRunner};
pub use server::{serve, ServerHandle, ServiceConfig};
