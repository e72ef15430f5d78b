//! # fts-core — the Fused Table Scan
//!
//! Reproduction of the scan operator from *"Fused Table Scans: Combining
//! AVX-512 and JIT to Double the Performance of Multi-Predicate Scans"*
//! (Dreseler et al., HardBD/Active @ ICDE 2018).
//!
//! Implementations, all differential-tested against [`mod@reference`]:
//!
//! * [`sisd`] — tuple-at-a-time baselines (branching §II, branch-free /
//!   auto-vectorizing).
//! * [`blockwise`] — block-at-a-time baselines with materialized
//!   intermediates (bitmask AND, selection-vector refinement).
//! * [`fused`] — the paper's contribution: the scalar model engine
//!   ([`fused::scalar`]) and one static fused-scan skeleton stamped for
//!   four kernel families (AVX-512 at 128/256/512 bits over 32-bit lanes,
//!   AVX-512 over 64-bit lanes, the AVX2 backport, and bit-packed chains in
//!   [`fused::packed`]), plus the frame-of-reference and byte-sliced
//!   kernels.
//! * [`engine`] — runtime dispatch over ISA, element type, register width
//!   and output mode for typed chains ([`TypedPred`]); the API the query
//!   layer and benchmarks call.
//! * [`bool_expr`] — the boolean predicate tree IR (AND/OR/NOT) and its
//!   negation normal form; `fts-query`'s executor runs it as one driver
//!   plus a filter tree.
//! * [`adaptive`] — the host's kernels for an element type in one
//!   preference order and the calibration state machine that
//!   `fts-query`'s executor drives, one chunk per probe, for plain chains
//!   of every type with kernels.
//! * [`pred`], [`telemetry`] — predicate and output types; per-stage scan
//!   statistics and the bandwidth-vs-compute verdict.
//! * [`sched`] — the per-core scan pool, its one chunk loop
//!   ([`ScanPool::fan_out`]), and admission control.
//! * [`stride`] — the strided-scan bandwidth microbenchmark of Fig. 2.

#![warn(missing_docs)]

pub mod adaptive;
pub mod blockwise;
pub mod bool_expr;
pub mod engine;
pub mod fused;
pub mod pred;
pub mod reference;
pub mod sched;
pub mod sisd;
pub mod stride;
pub mod telemetry;

pub use adaptive::{
    candidate_scan_impls, CalibrationConfig, CalibrationReport, Calibrator, CandidateStats, Phase,
};
pub use bool_expr::{value_key_bits, BoolExpr};
pub use engine::{
    best_fused_impl, run_fused_auto, run_scan, run_scan_telemetered, EngineError, RegWidth,
    ScanElem, ScanImpl,
};
pub use fused::bytesliced::{scan_bytesliced, ByteSliceStats, ByteSlicedPred};
pub use fused::for_scan::{
    fused_scan_for, scan_for_reference, ForPred, ForScanError, ForScanStats,
};
pub use pred::{OutputMode, ScanOutput, TypedPred};
pub use sched::{AdmissionConfig, AdmissionController, Permit, ScanPool};
pub use telemetry::{BoundVerdict, ScanTelemetry, StageTelemetry};
