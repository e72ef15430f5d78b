//! # fts-server — a concurrent SQL server over the fused-scan engine
//!
//! The refactor this crate caps off turns the repo from "run one scan"
//! into "schedule many scans": a long-lived server process sharing one
//! [`fts_query::Engine`] across many client connections. Three layers
//! cooperate:
//!
//! * **admission** ([`fts_core::AdmissionController`]) — every statement
//!   declares an approximate scan cost in bytes; the server admits it,
//!   queues it (bounded FIFO), or sheds it with an explicit
//!   `Overloaded` error the client can retry on;
//! * **batching** ([`batch`]) — a statement admission can run now runs
//!   at once and alone; compatible statements (aggregates over the same
//!   table) that must wait for admission execute as *one* shared
//!   chunk-major table pass once their leader is admitted, with
//!   identical statements deduplicated outright. The fused scan is
//!   compute-bound on one core, so sharing pays only for work that
//!   would queue anyway, and no statement waits for company;
//! * **observability** ([`fts_metrics::SchedCounters`]) — the `STATS`
//!   command and the server lines appended to `EXPLAIN ANALYZE` report
//!   admitted/queued/rejected counts and the shared-pass hit rate;
//! * **layout advisor** ([`advisor`]) — an optional background thread
//!   that scores every column against the storage cost model
//!   ([`fts_storage::choose_layout`]) and re-encodes losing chunks via
//!   copy-on-write swaps, billed against the same admission byte budget
//!   as queries ([`fts_metrics::AdvisorCounters`] reports what it did).
//!
//! The wire protocol ([`protocol`]) is deliberately small: length-prefixed
//! UTF-8 frames, one statement per request, one status byte per response.

#![warn(missing_docs)]

pub mod advisor;
pub mod batch;
pub mod protocol;
pub mod server;

pub use advisor::{run_advisor_once, spawn_advisor, AdvisorConfig, AdvisorHandle, PassReport};
pub use protocol::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES};
pub use server::{render_result, QueryServer, ServerConfig};
