//! Morsel-parallel execution of the fused scan.
//!
//! Paper footnote 1: the column-major table "can, however, be horizontally
//! partitioned into chunks or morsels". This module cuts one chain's row
//! range into fixed-size morsels and runs them through the scan pool's
//! chunk loop ([`ScanPool::fan_out`], the loop the SQL executor's
//! aggregates run on): the calling thread and the pool workers it enlists
//! claim morsels from one cursor, each runs the single-threaded kernel on
//! its sub-slices, and the caller stitches the outputs back together in
//! row order.
//!
//! Failures never tear down the process: a morsel whose scan returns an
//! engine error — or panics — surfaces as an [`EngineError`], the lowest
//! failing morsel's.

use std::panic::{catch_unwind, AssertUnwindSafe};

use fts_storage::PosList;

use crate::engine::{EngineError, ScanElem, ScanImpl};
use crate::pred::{OutputMode, ScanOutput, TypedPred};
use crate::sched::ScanPool;
use crate::telemetry::{ScanTelemetry, TelemetryLevel};

/// Default morsel size: large enough to amortize dispatch, small enough to
/// balance (64 K rows ≈ 256 KiB of u32 per column, L2-resident).
pub const DEFAULT_MORSEL_ROWS: usize = 1 << 16;

/// Run `imp` over the chain on `morsel_rows`-row morsels with up to
/// `threads` threads (the caller plus pool workers, while cores are
/// idle). Produces exactly the single-threaded result (positions stay
/// ascending).
///
/// ```
/// use fts_core::{best_fused_impl, run_scan_parallel, OutputMode, TypedPred};
///
/// let a: Vec<u32> = (0..100_000).map(|i| i % 100).collect();
/// let preds = [TypedPred::eq(&a[..], 42)];
/// let out = run_scan_parallel(best_fused_impl::<u32>(), &preds, OutputMode::Count, 4, 1 << 14)
///     .unwrap();
/// assert_eq!(out.count(), 1000);
/// ```
pub fn run_scan_parallel<T: ScanElem>(
    imp: ScanImpl,
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
    threads: usize,
    morsel_rows: usize,
) -> Result<ScanOutput, EngineError> {
    run_scan_parallel_telemetered(imp, preds, mode, threads, morsel_rows, TelemetryLevel::Off)
        .map(|(out, _)| out)
}

/// [`run_scan_parallel`] with per-morsel telemetry aggregation.
///
/// At [`TelemetryLevel::Off`] no telemetry is collected (the returned
/// telemetry is empty) and the scan path is identical to
/// [`run_scan_parallel`]. Otherwise each morsel collects a
/// [`ScanTelemetry`]; the stitcher merges them (counter sums, `morsels`
/// incremented per merge) and stamps the overall wall-clock time of the
/// parallel region.
pub fn run_scan_parallel_telemetered<T: ScanElem>(
    imp: ScanImpl,
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
    threads: usize,
    morsel_rows: usize,
    level: TelemetryLevel,
) -> Result<(ScanOutput, ScanTelemetry), EngineError> {
    assert!(threads >= 1, "need at least one worker");
    assert!(morsel_rows >= 1, "morsels must be non-empty");
    let run_single =
        |preds: &[TypedPred<'_, T>]| crate::engine::run_scan_telemetered(imp, preds, mode, level);
    let Some(first) = preds.first() else {
        return run_single(preds);
    };
    let rows = first.data.len();
    let morsels = rows.div_ceil(morsel_rows).max(1);
    if threads == 1 || morsels == 1 {
        return run_single(preds);
    }

    let started = std::time::Instant::now();
    let pool = ScanPool::global();
    let _busy = pool.occupy();
    let mut total = 0u64;
    let mut positions = PosList::new();
    let mut telemetry: Option<ScanTelemetry> = None;
    pool.fan_out(
        morsels,
        threads - 1,
        &mut (),
        || Some(()),
        |_, m| {
            // A panicking morsel must not take down a pool worker: catch
            // it and report it as an engine error for this morsel.
            catch_unwind(AssertUnwindSafe(|| {
                let base = m * morsel_rows;
                let end = (base + morsel_rows).min(rows);
                let sub: Vec<TypedPred<'_, T>> = preds
                    .iter()
                    .map(|p| TypedPred::new(&p.data[base..end], p.op, p.needle))
                    .collect();
                run_single(&sub)
            }))
            .unwrap_or_else(|panic| {
                Err(EngineError::WorkerPanicked {
                    morsel: m,
                    message: panic_text(&panic),
                })
            })
        },
        // Stitch morsel outputs in order, rebasing positions.
        |_, m, (out, morsel_telemetry)| {
            match out {
                ScanOutput::Count(n) => total += n,
                ScanOutput::Positions(pl) => {
                    let base = (m * morsel_rows) as u32;
                    total += pl.len() as u64;
                    for p in &pl {
                        positions.push(base + p);
                    }
                }
            }
            match &mut telemetry {
                None => telemetry = Some(morsel_telemetry),
                Some(t) => t.merge(&morsel_telemetry),
            }
            Ok(())
        },
    )?;
    let mut telemetry = telemetry.unwrap_or_else(|| ScanTelemetry::disabled(imp.name()));
    if level != TelemetryLevel::Off {
        // The parallel region's wall clock, not the sum of worker times.
        telemetry.wall = started.elapsed();
        telemetry.threads = threads.min(morsels);
    }
    let out = match mode {
        OutputMode::Count => ScanOutput::Count(total),
        OutputMode::Positions => ScanOutput::Positions(positions),
    };
    Ok((out, telemetry))
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RegWidth;
    use crate::reference;
    use fts_storage::CmpOp;

    fn workload(rows: usize) -> (Vec<u32>, Vec<u32>) {
        (
            (0..rows as u32).map(|i| i % 10).collect(),
            (0..rows as u32).map(|i| i.wrapping_mul(7) % 4).collect(),
        )
    }

    #[test]
    fn parallel_equals_sequential() {
        let (a, b) = workload(300_000);
        let preds = [
            TypedPred::new(&a[..], CmpOp::Eq, 5u32),
            TypedPred::new(&b[..], CmpOp::Ne, 2u32),
        ];
        let expected = reference::scan_positions(&preds);
        let imp = crate::engine::best_fused_impl::<u32>();
        for threads in [1, 2, 4, 7] {
            for morsel in [1 << 10, 1 << 16, 999] {
                let got =
                    run_scan_parallel(imp, &preds, OutputMode::Positions, threads, morsel).unwrap();
                assert_eq!(
                    got.positions().unwrap(),
                    &expected,
                    "threads={threads} morsel={morsel}"
                );
                let got =
                    run_scan_parallel(imp, &preds, OutputMode::Count, threads, morsel).unwrap();
                assert_eq!(got.count(), expected.len() as u64);
            }
        }
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let (a, b) = workload(3);
        let preds = [
            TypedPred::new(&a[..], CmpOp::Lt, 9u32),
            TypedPred::new(&b[..], CmpOp::Le, 3u32),
        ];
        let expected = reference::scan_count(&preds);
        let got = run_scan_parallel(
            ScanImpl::FusedScalar(RegWidth::W128),
            &preds,
            OutputMode::Count,
            4,
            DEFAULT_MORSEL_ROWS,
        )
        .unwrap();
        assert_eq!(got.count(), expected);

        let empty: Vec<TypedPred<'_, u32>> = vec![];
        let got = run_scan_parallel(
            ScanImpl::SisdBranching,
            &empty,
            OutputMode::Count,
            4,
            DEFAULT_MORSEL_ROWS,
        )
        .unwrap();
        assert_eq!(got.count(), 0);
    }

    #[test]
    fn errors_propagate_from_workers() {
        let a = [1u16, 2, 3, 4];
        let preds = [TypedPred::eq(&a[..], 2u16)];
        if ScanImpl::FusedAvx2.available() {
            let err = run_scan_parallel(ScanImpl::FusedAvx2, &preds, OutputMode::Count, 2, 2)
                .unwrap_err();
            assert!(matches!(err, EngineError::TypeUnsupported { .. }));
        }
    }

    #[test]
    fn many_threads_on_few_morsels() {
        let (a, b) = workload(5000);
        let preds = [
            TypedPred::new(&a[..], CmpOp::Eq, 5u32),
            TypedPred::new(&b[..], CmpOp::Eq, 1u32),
        ];
        let expected = reference::scan_count(&preds);
        let got = run_scan_parallel(
            crate::engine::best_fused_impl::<u32>(),
            &preds,
            OutputMode::Count,
            64,
            500,
        )
        .unwrap();
        assert_eq!(got.count(), expected);
    }

    #[test]
    fn parallel_telemetry_invariants() {
        let rows = 100_000usize;
        let (a, b) = workload(rows);
        let preds = [
            TypedPred::new(&a[..], CmpOp::Eq, 5u32),
            TypedPred::new(&b[..], CmpOp::Ne, 2u32),
        ];
        let imp = crate::engine::best_fused_impl::<u32>();
        let morsel_rows = 1 << 14;
        let (out, t) = run_scan_parallel_telemetered(
            imp,
            &preds,
            OutputMode::Count,
            4,
            morsel_rows,
            TelemetryLevel::Full,
        )
        .unwrap();
        assert!(t.enabled);
        let morsels = rows.div_ceil(morsel_rows) as u64;
        assert_eq!(t.morsels, morsels);
        assert_eq!(t.rows, rows as u64, "per-morsel rows sum to the total");
        // Sum of per-morsel block counts equals the aggregate: each morsel
        // contributes ceil(morsel_rows / lanes) blocks.
        let lanes = t.lanes as u64;
        let full = (morsels - 1) * (morsel_rows as u64).div_ceil(lanes);
        let tail = (rows as u64 - (morsels - 1) * morsel_rows as u64).div_ceil(lanes);
        assert_eq!(t.blocks, full + tail, "block counts sum across morsels");
        assert_eq!(*t.pred_survivors.last().unwrap(), out.count());
        assert!(
            t.selectivities().iter().all(|s| (0.0..=1.0).contains(s)),
            "{t:?}"
        );
        assert!(t.threads >= 1 && t.threads <= 4);
        assert!(t.wall > std::time::Duration::ZERO);

        // Telemetry agrees with a sequential full-collection run.
        let (_, seq) = crate::engine::run_scan_telemetered(
            imp,
            &preds,
            OutputMode::Count,
            TelemetryLevel::Full,
        )
        .unwrap();
        assert_eq!(t.pred_survivors, seq.pred_survivors);

        // Disabled telemetry changes nothing about the scan result.
        let (off_out, off_t) = run_scan_parallel_telemetered(
            imp,
            &preds,
            OutputMode::Count,
            4,
            morsel_rows,
            TelemetryLevel::Off,
        )
        .unwrap();
        assert_eq!(off_out.count(), out.count());
        assert!(!off_t.enabled);
    }

    #[test]
    fn worker_panic_becomes_engine_error() {
        // Ragged chain: morsel slicing panics for predicates whose column
        // is shorter than the driver's. The old stitcher tore down the
        // process here; now it must surface an EngineError.
        let a: Vec<u32> = (0..10_000).map(|i| i % 5).collect();
        let b: Vec<u32> = (0..100).collect();
        let preds = [TypedPred::eq(&a[..], 1u32), TypedPred::eq(&b[..], 1u32)];
        let err = run_scan_parallel(
            crate::engine::best_fused_impl::<u32>(),
            &preds,
            OutputMode::Count,
            4,
            1000,
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::WorkerPanicked { .. }),
            "expected WorkerPanicked, got {err:?}"
        );
    }
}
