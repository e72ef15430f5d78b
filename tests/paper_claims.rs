//! Qualitative claims of the paper, verified end to end. These assert the
//! *shape* of each result (who wins, in which direction counters move) with
//! deliberately loose thresholds so they are robust to machine noise; the
//! quantitative reproduction lives in the benchmark harness
//! (`fts-bench`, see EXPERIMENTS.md).

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use fused_table_scan::core::{run_scan, OutputMode, RegWidth, ScanImpl, TypedPred};
use fused_table_scan::jit::{CompiledKernel, JitBackend, ScanSig};
use fused_table_scan::metrics::{instrument, HwModel};
use fused_table_scan::query::Engine;
use fused_table_scan::simd::has_avx512;
use fused_table_scan::storage::gen::{generate_chain, PredSpec};
use fused_table_scan::storage::{CmpOp, Column, ColumnDef, DataType, Table};

/// The timing claims hold this lock, so no two of them overlap and
/// neither times a kernel while the other's scans share the cores.
fn timing_claim() -> MutexGuard<'static, ()> {
    static TIMING: Mutex<()> = Mutex::new(());
    TIMING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The fastest of `reps` runs of `a` and of `b` in ms, the runs
/// alternating: drift on a shared host lands on both kernels alike, and
/// the minimum drops the runs a neighbour slowed.
fn min_ms_alternating(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let ms = |f: &mut dyn FnMut()| {
        let s = Instant::now();
        f();
        s.elapsed().as_secs_f64() * 1e3
    };
    (0..reps).fold((f64::INFINITY, f64::INFINITY), |(ta, tb), _| {
        (ta.min(ms(&mut a)), tb.min(ms(&mut b)))
    })
}

/// Title claim (§IV Fig. 4): the fused AVX-512 scan beats the SISD scan —
/// here asserted at ≥ 1.5x on a medium-selectivity 8M-row workload (the
/// paper reports ≥ 2x in 32/40 configs on a Xeon 8180).
#[test]
fn fused_scan_beats_sisd() {
    if !has_avx512() {
        eprintln!("skipping: no AVX-512");
        return;
    }
    let _timing = timing_claim();
    let chain = generate_chain(
        8_000_000,
        &[PredSpec::eq(5u32, 0.1), PredSpec::eq(2u32, 0.5)],
        1,
    )
    .unwrap();
    let preds = [
        TypedPred::eq(&chain.columns[0][..], 5u32),
        TypedPred::eq(&chain.columns[1][..], 2u32),
    ];
    let (sisd, fused) = min_ms_alternating(
        7,
        || {
            let out = run_scan(ScanImpl::SisdBranching, &preds, OutputMode::Count).unwrap();
            assert_eq!(out.count(), chain.matching_rows.len() as u64);
        },
        || {
            let out = run_scan(
                ScanImpl::FusedAvx512(RegWidth::W512),
                &preds,
                OutputMode::Count,
            )
            .unwrap();
            assert_eq!(out.count(), chain.matching_rows.len() as u64);
        },
    );
    assert!(
        fused * 1.5 < sisd,
        "fused scan must clearly beat SISD: fused={fused:.2}ms sisd={sisd:.2}ms"
    );
}

/// §IV Fig. 5: wider registers are no slower; 512-bit clearly beats 128-bit.
#[test]
fn wider_registers_win() {
    if !has_avx512() {
        eprintln!("skipping: no AVX-512");
        return;
    }
    let _timing = timing_claim();
    let chain = generate_chain(
        8_000_000,
        &[PredSpec::eq(5u32, 0.5), PredSpec::eq(2u32, 0.5)],
        2,
    )
    .unwrap();
    let preds = [
        TypedPred::eq(&chain.columns[0][..], 5u32),
        TypedPred::eq(&chain.columns[1][..], 2u32),
    ];
    let run = |width| {
        run_scan(ScanImpl::FusedAvx512(width), &preds, OutputMode::Count).unwrap();
    };
    let (w128, w512) = min_ms_alternating(7, || run(RegWidth::W128), || run(RegWidth::W512));
    assert!(
        w512 * 1.3 < w128,
        "512-bit must beat 128-bit: w512={w512:.2} w128={w128:.2}"
    );
}

/// §IV Fig. 6 / §VII: the fused scan mispredicts roughly an order of
/// magnitude less than the SISD scan (asserted ≥ 8x on the counter model).
#[test]
fn fused_scan_reduces_mispredictions_by_an_order_of_magnitude() {
    let chain = generate_chain(
        500_000,
        &[PredSpec::eq(5u32, 0.5), PredSpec::eq(2u32, 0.5)],
        3,
    )
    .unwrap();
    let preds = [
        TypedPred::eq(&chain.columns[0][..], 5u32),
        TypedPred::eq(&chain.columns[1][..], 2u32),
    ];
    let mut sisd = HwModel::skylake();
    instrument::sisd_branching(&preds, &mut sisd);
    let sisd = sisd.finish().branch.mispredictions;

    let mut fused = HwModel::skylake();
    instrument::fused::<u32, 16>(&preds, &mut fused);
    let fused = fused.finish().branch.mispredictions;

    assert!(
        sisd >= 8 * fused.max(1),
        "expected ~10x fewer mispredictions: sisd={sisd} fused={fused}"
    );
}

/// §IV Fig. 7: the fused scan's advantage grows with the number of
/// predicates (1% first predicate, 50% conditional afterwards).
#[test]
fn advantage_grows_with_predicate_count() {
    if !has_avx512() {
        eprintln!("skipping: no AVX-512");
        return;
    }
    let _timing = timing_claim();
    let rows = 4_000_000;
    let mut ratios = Vec::new();
    for p in [2usize, 5] {
        let mut specs = vec![PredSpec::eq(7u32, 0.01)];
        specs.extend(std::iter::repeat_n(PredSpec::eq(3u32, 0.5), p - 1));
        let chain = generate_chain(rows, &specs, 4).unwrap();
        let preds: Vec<TypedPred<'_, u32>> = chain
            .columns
            .iter()
            .zip(&specs)
            .map(|(c, s)| TypedPred::eq(&c[..], s.needle))
            .collect();
        let run = |imp| {
            run_scan(imp, &preds, OutputMode::Count).unwrap();
        };
        let (sisd, fused) = min_ms_alternating(
            7,
            || run(ScanImpl::SisdAutoVec),
            || run(ScanImpl::FusedAvx512(RegWidth::W512)),
        );
        ratios.push(sisd / fused);
    }
    assert!(
        ratios[1] > ratios[0],
        "5-predicate speedup ({:.2}x) must exceed 2-predicate speedup ({:.2}x)",
        ratios[1],
        ratios[0]
    );
}

/// §V: JIT compilation is cheap enough to amortize — well under a
/// millisecond per kernel here (the paper relies on caching; we measure
/// both the one-off cost and the cache hit path).
#[test]
fn jit_compile_cost_is_negligible() {
    if !has_avx512() {
        eprintln!("skipping: no AVX-512");
        return;
    }
    let _timing = timing_claim();
    let sig = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Eq, 2)], false);
    let k = CompiledKernel::compile(sig, JitBackend::Avx512).unwrap();
    assert!(
        k.compile_time().as_micros() < 10_000,
        "compile took {:?}",
        k.compile_time()
    );
    // One 8M-row scan dwarfs the compile time.
    let chain = generate_chain(
        8_000_000,
        &[PredSpec::eq(5u32, 0.1), PredSpec::eq(2u32, 0.5)],
        5,
    )
    .unwrap();
    let cols: Vec<&[u32]> = chain.columns.iter().map(|c| &c[..]).collect();
    let t = Instant::now();
    let n = k.run(&cols).unwrap().count();
    let scan = t.elapsed();
    assert_eq!(n, chain.matching_rows.len() as u64);
    assert!(
        scan > 20 * k.compile_time(),
        "scan {scan:?} vs compile {:?}",
        k.compile_time()
    );
}

/// §V / Fig. 8: the optimizer identifies σ chains, orders them most
/// selective first, and tags them for the Fused Table Scan.
#[test]
fn optimizer_tags_and_reorders_chains() {
    let db = Engine::new();
    db.register(
        "t",
        Table::from_columns(
            vec![
                ColumnDef::new("coarse", DataType::U32), // sel 0.5
                ColumnDef::new("fine", DataType::U32),   // sel 0.001
            ],
            vec![
                Column::from_fn(10_000, |i| (i % 2) as u32),
                Column::from_fn(10_000, |i| (i % 1000) as u32),
            ],
        )
        .unwrap(),
    );
    let plan = db
        .explain("SELECT COUNT(*) FROM t WHERE coarse = 1 AND fine = 7")
        .unwrap();
    assert!(plan.contains("FusedTableScan"), "{plan}");
    let fine_pos = plan.find("fine").unwrap();
    let coarse_pos = plan.find("coarse").unwrap();
    assert!(
        fine_pos < coarse_pos,
        "most selective predicate must drive the fused scan:\n{plan}"
    );
}
