//! Workspace-level differential tests: for seeded random workloads from the
//! exact-selectivity generator, *every* execution path — SISD baselines,
//! block-at-a-time, the scalar model engine, the AVX2/AVX-512 kernels, the
//! JIT-compiled kernels, and the SQL pipeline — must produce identical
//! results.

use fused_table_scan::core::{reference, run_scan, OutputMode, RegWidth, ScanImpl, TypedPred};
use fused_table_scan::jit::{CompiledKernel, JitBackend, ScanSig};
use fused_table_scan::query::{Engine, JitMode, QueryResult};
use fused_table_scan::simd::has_avx512;
use fused_table_scan::storage::gen::{generate_chain, GeneratedChain, PredSpec};
use fused_table_scan::storage::{CmpOp, Column, ColumnDef, DataType, Table};
use proptest::prelude::*;

fn available_impls() -> Vec<ScanImpl> {
    let mut v = vec![
        ScanImpl::SisdBranching,
        ScanImpl::SisdAutoVec,
        ScanImpl::BlockBitmap,
        ScanImpl::BlockSelVec,
        ScanImpl::FusedScalar(RegWidth::W128),
        ScanImpl::FusedScalar(RegWidth::W512),
    ];
    for imp in [
        ScanImpl::FusedAvx2,
        ScanImpl::FusedAvx512(RegWidth::W128),
        ScanImpl::FusedAvx512(RegWidth::W256),
        ScanImpl::FusedAvx512(RegWidth::W512),
    ] {
        if imp.available() {
            v.push(imp);
        }
    }
    v
}

fn check_chain(chain: &GeneratedChain<u32>, needles: &[(CmpOp, u32)]) {
    let preds: Vec<TypedPred<'_, u32>> = chain
        .columns
        .iter()
        .zip(needles)
        .map(|(c, &(op, n))| TypedPred::new(&c[..], op, n))
        .collect();
    let expected = reference::scan_positions(&preds);
    assert_eq!(
        expected.as_slice(),
        chain.matching_rows.as_slice(),
        "generator ground truth must agree with the reference scan"
    );

    for imp in available_impls() {
        let got = run_scan(imp, &preds, OutputMode::Positions).unwrap();
        assert_eq!(
            got.positions().unwrap(),
            &expected,
            "{} positions",
            imp.name()
        );
        let got = run_scan(imp, &preds, OutputMode::Count).unwrap();
        assert_eq!(got.count(), expected.len() as u64, "{} count", imp.name());
    }

    // JIT backends.
    let cols: Vec<&[u32]> = chain.columns.iter().map(|c| &c[..]).collect();
    if needles.len() <= 5 {
        let sig = ScanSig::chain::<u32>(needles, true);
        let k = CompiledKernel::compile(sig, JitBackend::Scalar).unwrap();
        let got = k.run(&cols).unwrap();
        assert_eq!(got.positions().unwrap(), &expected, "JIT scalar");
        if has_avx512() {
            let sig = ScanSig::chain::<u32>(needles, true);
            let k = CompiledKernel::compile(sig, JitBackend::Avx512).unwrap();
            let got = k.run(&cols).unwrap();
            assert_eq!(got.positions().unwrap(), &expected, "JIT AVX-512");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random 2-predicate workloads: random selectivities, operators and
    /// row counts (including non-multiples of every block size).
    #[test]
    fn two_predicate_chains_agree(
        rows in 1usize..3000,
        sel0 in 0.0f64..1.0,
        sel1 in 0.0f64..1.0,
        op0 in prop::sample::select(CmpOp::ALL.to_vec()),
        op1 in prop::sample::select(CmpOp::ALL.to_vec()),
        seed in any::<u64>(),
    ) {
        let specs = [
            PredSpec { op: op0, needle: 1000u32, selectivity: sel0 },
            PredSpec { op: op1, needle: 2000u32, selectivity: sel1 },
        ];
        let chain = generate_chain(rows, &specs, seed).unwrap();
        check_chain(&chain, &[(op0, 1000), (op1, 2000)]);
    }

    /// Chains of 1..=5 equality predicates (the Fig. 7 range).
    #[test]
    fn longer_chains_agree(
        rows in 1usize..2000,
        p in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let specs: Vec<PredSpec<u32>> =
            (0..p).map(|i| PredSpec::eq(i as u32 + 3, 0.5)).collect();
        let chain = generate_chain(rows, &specs, seed).unwrap();
        let needles: Vec<(CmpOp, u32)> =
            (0..p).map(|i| (CmpOp::Eq, i as u32 + 3)).collect();
        check_chain(&chain, &needles);
    }
}

/// The SQL pipeline computes the same count as the raw kernels, with the
/// JIT on and off, over a chunked and dictionary-encoded table.
#[test]
fn sql_pipeline_matches_kernels() {
    let chain = generate_chain(
        50_000,
        &[PredSpec::eq(5u32, 0.1), PredSpec::eq(2u32, 0.5)],
        77,
    )
    .unwrap();
    let expected = chain.matching_rows.len() as u64;

    let table = Table::from_chunked_columns(
        vec![
            ColumnDef::new("a", DataType::U32),
            ColumnDef::new("b", DataType::U32),
        ],
        vec![
            Column::from_slice(&chain.columns[0]),
            Column::from_slice(&chain.columns[1]),
        ],
        8192,
    )
    .unwrap();

    for jit in [JitMode::Off, JitMode::On] {
        for dict in [false, true] {
            let t = if dict {
                table.with_dictionary_encoding(&[0, 1]).unwrap()
            } else {
                table.clone()
            };
            let db = Engine::with_jit(jit);
            db.register("t", t);
            let r = db
                .query("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2")
                .unwrap();
            assert_eq!(r, QueryResult::Count(expected), "jit={jit:?} dict={dict}");
        }
    }
}

/// Mixed-width chain (§V): u32 driver, u64 follow-up — hardware kernel vs
/// the row loop.
#[test]
fn mixed_width_kernel_agrees() {
    if !has_avx512() {
        eprintln!("skipping: no AVX-512");
        return;
    }
    use fused_table_scan::core::fused::mixed::fused_scan_u32_u64;
    let a: Vec<u32> = (0..10_000).map(|i| i % 7).collect();
    let b: Vec<u64> = (0..10_000u64)
        .map(|i| i.wrapping_mul(0x9E37) % 11)
        .collect();
    for op in CmpOp::ALL {
        let p0 = TypedPred::new(&a[..], op, 3u32);
        let p1 = TypedPred::new(&b[..], CmpOp::Ge, 5u64);
        let expected: Vec<u32> = (0..10_000usize)
            .filter(|&r| p0.matches(r) && p1.matches(r))
            .map(|r| r as u32)
            .collect();
        let got = fused_scan_u32_u64(&p0, &p1, OutputMode::Positions);
        assert_eq!(got.positions().unwrap().as_slice(), &expected[..], "{op}");
    }
}
