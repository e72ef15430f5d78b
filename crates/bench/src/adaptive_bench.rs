//! The adaptive-selector benchmark (`BENCH_adaptive.json`): the SQL
//! executor's calibration loop — the path every statement takes — against
//! every kernel it can choose from, swept across selectivity × chain
//! length × encoding. The acceptance bar for the selector is that its
//! end-to-end time (calibration probes and JIT compilation included) stays
//! within a few percent of the best kernel at every point while never
//! degrading to the worst one — i.e. it buys Fig. 5's per-configuration
//! winner without knowing the configuration up front.

use std::convert::Infallible;
use std::time::Instant;

use fts_core::fused::packed::{fused_scan_packed, packed_kernel_available, PackedPred};
use fts_core::{candidate_scan_impls, run_scan, OutputMode, ScanPool, TypedPred};
use fts_jit::{CompiledKernel, JitBackend, ScanSig};
use fts_metrics::timing;
use fts_query::executor::{execute, execute_analyzed};
use fts_query::{Engine, ExecContext, JitMode, Prepared};
use fts_storage::{CmpOp, Column, ColumnDef, DataType, PackedColumn, Table, DEFAULT_CHUNK_ROWS};

use crate::report::FigureResult;
use crate::workload::{equality_chain, Scale};

/// Selectivity axis of the adaptive sweep — a subset of Fig. 5's axis
/// spanning the bandwidth-bound low end, the mispredict-heavy middle, and
/// the gather-dominated high end.
pub const ADAPTIVE_SELECTIVITIES: [f64; 5] = [1e-5, 1e-3, 0.01, 0.1, 0.5];

/// Chain lengths of the sweep (the paper evaluates up to 5 predicates;
/// 1/2/4 covers the no-gather, one-gather and gather-heavy shapes).
pub const CHAIN_LENGTHS: [usize; 3] = [1, 2, 4];

/// Label of the compiled JIT kernel's series.
const JIT_LABEL: &str = "jit-avx512(w512)";

/// The winner recorded for a point whose scan ended before calibration
/// picked one.
const CALIBRATING: &str = "(calibrating)";

/// The winner recorded for a point whose every chunk min/max pruning
/// skipped (no row matches, so no kernel ran).
const PRUNED: &str = "(pruned)";

fn median_ms(reps: usize, f: impl FnMut()) -> f64 {
    timing::measure(reps, f).median_ms()
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Chunks of a bench table that would fit in one [`DEFAULT_CHUNK_ROWS`]
/// chunk (quick scale): enough for calibration's three probes and a
/// steady-state winner.
const SMALL_TABLE_CHUNKS: usize = 16;

/// Rows per chunk of a `rows`-row bench table: [`DEFAULT_CHUNK_ROWS`], the
/// layout SQL users get, unless the table fits in one such chunk; then
/// [`SMALL_TABLE_CHUNKS`] chunks.
fn chunk_rows(rows: usize) -> usize {
    if rows <= DEFAULT_CHUNK_ROWS {
        rows.div_ceil(SMALL_TABLE_CHUNKS).max(1)
    } else {
        DEFAULT_CHUNK_ROWS
    }
}

/// The chain's columns as table `t` (`c0`, `c1`, …) chunked at
/// [`chunk_rows`] and the planned
/// `SELECT COUNT(*) FROM t WHERE c0 = n0 AND c1 = n1 …` over it.
fn count_statement(columns: Vec<Vec<u32>>, needles: &[u32]) -> (Table, Prepared) {
    let rows = columns.first().map_or(0, Vec::len);
    let defs = (0..columns.len())
        .map(|i| ColumnDef::new(format!("c{i}"), DataType::U32))
        .collect();
    let columns = columns.into_iter().map(Column::from_vec).collect();
    let table = Table::from_chunked_columns(defs, columns, chunk_rows(rows)).expect("bench table");
    let engine = Engine::new();
    engine.register("t", table.clone());
    let chain: Vec<String> = needles
        .iter()
        .enumerate()
        .map(|(i, n)| format!("c{i} = {n}"))
        .collect();
    let sql = format!("SELECT COUNT(*) FROM t WHERE {}", chain.join(" AND "));
    let prepared = engine.prepare(&sql).expect("bench statement");
    (table, prepared)
}

/// One `COUNT(*)` through the executor on a fresh context, so the run
/// pays what a first statement pays: calibration probes and JIT
/// compilation.
fn run_adaptive(prepared: &Prepared) -> u64 {
    let ctx = ExecContext::default();
    execute(prepared.plan(), &ctx)
        .expect("adaptive scan")
        .count()
        .expect("count statement")
}

/// The total of `count(chunk)` over `chunks` chunks, run through the scan
/// pool's chunk loop that the executor runs an aggregate on (helpers join
/// while a core is idle), so a kernel's series gets the cores the
/// executor's statement gets.
fn count_chunks(chunks: usize, count: impl Fn(usize) -> u64 + Sync) -> u64 {
    let mut total = 0;
    let Ok(()) = ScanPool::global().fan_out(
        chunks,
        usize::MAX,
        &mut (),
        || Some(()),
        |_, c| Ok::<u64, Infallible>(count(c)),
        |_, _, n| {
            total += n;
            Ok(())
        },
    );
    total
}

/// The kernel calibration settles on for `prepared` on a fresh context.
fn adaptive_winner(prepared: &Prepared) -> &'static str {
    let (_, report) =
        execute_analyzed(prepared.plan(), &ExecContext::default()).expect("adaptive scan");
    if report.chunks_scanned == 0 {
        return PRUNED;
    }
    report
        .adaptive
        .and_then(|a| a.winner)
        .unwrap_or(CALIBRATING)
}

/// The adaptive sweep: for every chain length × selectivity, the median
/// runtime of each static candidate kernel, of the compiled JIT kernel
/// (compiled once, outside the timing) and of the SQL executor's adaptive
/// selector (a fresh context per repetition, so calibration and JIT
/// compilation are paid every time). Every kernel runs over the same
/// chunks the executor scans, through the same pool chunk loop. Adaptive
/// points carry `ratio_vs_best` / `ratio_vs_worst` against that field. A
/// second section sweeps the encoding axis: plain 32-bit values versus the
/// bit-packed compressed-domain kernel.
pub fn bench_adaptive(scale: &Scale) -> FigureResult {
    let mut fig = FigureResult::new(
        "BENCH_adaptive",
        "SQL executor's adaptive kernel selection vs every kernel it can choose (selectivity × chain length × encoding)",
        "selectivity",
    );
    fig.config("rows", scale.rows);
    fig.config("reps", scale.reps);
    fig.config("chunk_rows", chunk_rows(scale.rows));
    fig.config("isa", fts_simd::detect());

    let statics = candidate_scan_impls::<u32>();
    let jit_on = ExecContext::default().jit == JitMode::On;

    for (pi, &p) in CHAIN_LENGTHS.iter().enumerate() {
        for (si, &sel) in ADAPTIVE_SELECTIVITIES.iter().enumerate() {
            let point_started = Instant::now();
            let chain = equality_chain(scale.rows, p, sel, (1000 + pi * 100 + si) as u64);
            let expected = chain.matching_rows.len() as u64;
            let needles: Vec<u32> = (0..p).map(|i| 5 + i as u32).collect();
            let (table, prepared) = count_statement(chain.columns, &needles);

            // Per-chunk predicates over the executor's own chunks.
            let chunk_cols: Vec<Vec<&[u32]>> = table
                .chunks()
                .iter()
                .map(|c| {
                    (0..p)
                        .map(|i| {
                            c.segment(i)
                                .as_plain()
                                .and_then(|col| col.as_native::<u32>())
                                .expect("plain u32 segment")
                        })
                        .collect()
                })
                .collect();
            let chunk_preds: Vec<Vec<TypedPred<'_, u32>>> = chunk_cols
                .iter()
                .map(|cols| {
                    cols.iter()
                        .zip(&needles)
                        .map(|(&c, &n)| TypedPred::new(c, CmpOp::Eq, n))
                        .collect()
                })
                .collect();
            let jit = jit_on
                .then(|| {
                    let pairs: Vec<(CmpOp, u32)> =
                        needles.iter().map(|&n| (CmpOp::Eq, n)).collect();
                    CompiledKernel::compile(
                        ScanSig::chain::<u32>(&pairs, false),
                        JitBackend::Avx512,
                    )
                    .ok()
                })
                .flatten();

            // Interleave every kernel and the adaptive executor inside
            // every repetition (round 0 is a discarded warmup). Timing them
            // in separate consecutive loops lets slow drift on a shared
            // host (CPU steal, thermal) land on one series but not the
            // other, which swamps the few-percent acceptance bar; round-
            // robin measurement cancels that drift out of the ratios.
            let fixed = statics.len() + usize::from(jit.is_some());
            let mut samples: Vec<Vec<f64>> = vec![Vec::new(); fixed + 1];
            for round in 0..=scale.reps {
                let mut timed = |k: usize, f: &mut dyn FnMut() -> u64, what: &str| {
                    let t0 = Instant::now();
                    let n = f();
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    assert_eq!(n, expected, "{what} wrong result");
                    if round > 0 {
                        samples[k].push(ms);
                    }
                };
                for (k, &imp) in statics.iter().enumerate() {
                    timed(
                        k,
                        &mut || {
                            count_chunks(chunk_preds.len(), |c| {
                                run_scan(imp, &chunk_preds[c], OutputMode::Count)
                                    .expect("static scan")
                                    .count()
                            })
                        },
                        imp.name(),
                    );
                }
                if let Some(kernel) = &jit {
                    timed(
                        statics.len(),
                        &mut || {
                            count_chunks(chunk_cols.len(), |c| {
                                kernel.run(&chunk_cols[c]).expect("jit scan").count()
                            })
                        },
                        JIT_LABEL,
                    );
                }
                timed(fixed, &mut || run_adaptive(&prepared), "adaptive");
            }

            let mut best = f64::INFINITY;
            let mut worst: f64 = 0.0;
            let labels = statics
                .iter()
                .map(|imp| imp.name())
                .chain(jit.iter().map(|_| JIT_LABEL));
            for (k, label) in labels.enumerate() {
                let ms = median(&mut samples[k]);
                best = best.min(ms);
                worst = worst.max(ms);
                fig.push(&format!("{label} P{p}"), sel, &[("median_ms", ms)]);
            }
            let ms = median(&mut samples[fixed]);
            fig.push(
                &format!("adaptive P{p}"),
                sel,
                &[
                    ("median_ms", ms),
                    ("best_static_ms", best),
                    ("worst_static_ms", worst),
                    ("ratio_vs_best", ms / best),
                    ("ratio_vs_worst", ms / worst),
                ],
            );
            let winner = adaptive_winner(&prepared);
            fig.config(&format!("winner_p{p}_sel{sel}"), winner);
            eprintln!(
                "  [P{p} sel={sel}] adaptive {ms:.2}ms vs best {best:.2}ms / worst {worst:.2}ms \
                 (winner {winner}) in {:.1}s",
                point_started.elapsed().as_secs_f64()
            );
        }
    }

    encoding_sweep(scale, &mut fig);
    fig
}

/// The encoding axis: the same logical two-predicate chain over plain
/// 32-bit values (adaptive, through the executor) and over bit-packed
/// value ids at 4/8/16 bits (the compressed-domain kernel). At narrow
/// widths the packed kernel streams a fraction of the plain bytes, which
/// is where it should win on a bandwidth-bound host.
fn encoding_sweep(scale: &Scale, fig: &mut FigureResult) {
    if !packed_kernel_available() {
        return;
    }
    let rows = scale.rows;
    for bits in [4u8, 8, 16] {
        // ~10 % of rows match the first needle, ~50 % the second, entirely
        // inside the packed domain (values fit in `bits`).
        let mask = fts_storage::mask_of(bits);
        let needle0 = mask / 2;
        let needle1 = mask.saturating_sub(1).max(needle0 ^ 1);
        let mix = |i: usize, salt: u32| {
            (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(salt)
                .rotate_left(13)
        };
        let dodge = |v: u32, needle: u32| if v == needle { v ^ 1 } else { v };
        let col0: Vec<u32> = (0..rows)
            .map(|i| {
                if mix(i, 1) % 10 == 0 {
                    needle0
                } else {
                    dodge(mix(i, 2) & mask, needle0)
                }
            })
            .collect();
        let col1: Vec<u32> = (0..rows)
            .map(|i| {
                if mix(i, 3) % 2 == 0 {
                    needle1
                } else {
                    dodge(mix(i, 4) & mask, needle1)
                }
            })
            .collect();
        let preds = [
            TypedPred::eq(&col0[..], needle0),
            TypedPred::eq(&col1[..], needle1),
        ];
        let expected = fts_core::reference::scan_count(&preds);

        let (_, prepared) = count_statement(vec![col0.clone(), col1.clone()], &[needle0, needle1]);
        let ms = median_ms(scale.reps, || {
            assert_eq!(run_adaptive(&prepared), expected);
        });
        fig.push("adaptive (plain 32-bit)", bits as f64, &[("median_ms", ms)]);

        let packed: Vec<PackedColumn> = [&col0, &col1]
            .iter()
            .map(|c| PackedColumn::pack(c, bits).expect("fits"))
            .collect();
        let ppreds = [
            PackedPred::Packed {
                col: &packed[0],
                op: CmpOp::Eq,
                needle: needle0,
            },
            PackedPred::Packed {
                col: &packed[1],
                op: CmpOp::Eq,
                needle: needle1,
            },
        ];
        let ms = median_ms(scale.reps, || {
            let out = fused_scan_packed(&ppreds, OutputMode::Count).expect("packed scan");
            assert_eq!(out.count(), expected);
        });
        fig.push(
            "bit-packed fused",
            bits as f64,
            &[
                ("median_ms", ms),
                ("compression", packed[0].compression_ratio()),
            ],
        );
        eprintln!("  [encoding bits={bits}] packed {ms:.2}ms");
    }
}

/// The points of a finished sweep whose calibration never picked a winner
/// (their `winner_p…` config entry reads "(calibrating)").
pub fn unconverged(fig: &FigureResult) -> Vec<&str> {
    fig.config
        .iter()
        .filter(|(k, v)| k.starts_with("winner_") && *v == CALIBRATING)
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The acceptance numbers over a finished sweep: the worst
/// `ratio_vs_best` (must stay ≤ 1.05 for "within 5 % of the best kernel
/// at every point") and the worst `ratio_vs_worst` (must stay < 1 for
/// "strictly beats the worst") across every adaptive point.
pub fn acceptance(fig: &FigureResult) -> Option<(f64, f64)> {
    let mut max_vs_best = f64::NEG_INFINITY;
    let mut max_vs_worst = f64::NEG_INFINITY;
    let mut seen = false;
    for s in &fig.series {
        if !s.label.starts_with("adaptive P") {
            continue;
        }
        for p in &s.points {
            if let (Some(b), Some(w)) = (
                p.metrics.get("ratio_vs_best"),
                p.metrics.get("ratio_vs_worst"),
            ) {
                seen = true;
                max_vs_best = max_vs_best.max(*b);
                max_vs_worst = max_vs_worst.max(*w);
            }
        }
    }
    seen.then_some((max_vs_best, max_vs_worst))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            rows: 40_000,
            max_rows: 40_000,
            reps: 2,
            model_rows: 20_000,
        }
    }

    #[test]
    fn adaptive_sweep_runs_at_tiny_scale() {
        let fig = bench_adaptive(&tiny());
        // One adaptive series per chain length, each covering the axis.
        for p in CHAIN_LENGTHS {
            let s = fig
                .series
                .iter()
                .find(|s| s.label == format!("adaptive P{p}"))
                .expect("adaptive series");
            assert_eq!(s.points.len(), ADAPTIVE_SELECTIVITIES.len());
            for pt in &s.points {
                assert!(pt.metrics["median_ms"] > 0.0);
                // Adaptive can legitimately beat the best static median
                // (interleaved timing, morselized execution), so only
                // sanity-check the ratios.
                assert!(pt.metrics["ratio_vs_best"] > 0.0);
            }
        }
        // Every static candidate, plus the JIT kernel where it runs,
        // produced a series per chain length.
        let statics = candidate_scan_impls::<u32>().len()
            + usize::from(ExecContext::default().jit == JitMode::On);
        let static_series = fig
            .series
            .iter()
            .filter(|s| s.label.ends_with("P2") && !s.label.starts_with("adaptive"))
            .count();
        assert_eq!(static_series, statics);
        // Small tables are cut into 16 chunks, so every point that scans
        // converges (at 40 K rows no row matches at 1e-5: all pruned).
        assert_eq!(unconverged(&fig), Vec::<&str>::new());
        assert_eq!(chunk_rows(1_000_000), 62_500);
        assert_eq!(chunk_rows(16_000_000), DEFAULT_CHUNK_ROWS);
        let (vs_best, vs_worst) = acceptance(&fig).expect("adaptive points present");
        assert!(vs_best.is_finite());
        assert!(vs_worst.is_finite());
        // Encoding section rides along when the packed kernel exists.
        if packed_kernel_available() {
            assert!(fig.series.iter().any(|s| s.label == "bit-packed fused"));
        }
    }
}
