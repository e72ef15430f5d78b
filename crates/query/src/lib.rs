//! # fts-query — the SQL pipeline around the Fused Table Scan
//!
//! A self-contained mini column-store DBMS implementing the paper's
//! Figs. 8–9 pipeline: SQL string → [`parser`] → AST → [`lqp`] (logical
//! plan with bound predicates and selectivity estimates) → [`optimizer`]
//! (pushdown, selectivity reordering, fused-chain tagging) → [`executor`]
//! (per-chunk effective-predicate translation, dictionary value-id
//! rewriting, fused/JIT kernel dispatch, dynamic fallback).
//!
//! Entry point: [`Engine`], for one caller or many concurrent frontends
//! alike (`fts-sql`, `fts-server`, the tests and benches) — a
//! `Send + Sync` core with a copy-on-write catalog, shared kernel caches
//! and the one calibration loop, [`executor`]'s per-chunk kernel
//! selection. [`executor`] is also the only place boolean predicate
//! trees execute.

#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod engine;
pub mod executor;
pub mod lexer;
pub mod lqp;
pub mod optimizer;
pub mod parser;
pub mod stats;

pub use catalog::Catalog;
pub use engine::{Engine, Prepared, QueryError};
pub use executor::{AnalyzeReport, CalibrationRegistry, ExecContext, JitMode, QueryResult};
pub use lqp::{BoundPred, Lqp};
pub use stats::ColumnStats;
