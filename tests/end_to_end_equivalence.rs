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
use fused_table_scan::storage::{CmpOp, Column, ColumnDef, DataType, NativeType, Table, Value};
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

/// Mixed-width chains (§V) through SQL: a `u32` and a `u64` predicate over
/// several chunks, with the JIT on and off. The executor drives with the
/// more selective predicate and filters the survivors on the other column;
/// for every operator on the `u32` predicate, once less and once more
/// selective than the `u64` one, `COUNT(*)` and `SUM` of the `u64` column
/// answer as a row loop over the generated vectors does.
#[test]
fn mixed_width_chains_agree_through_sql() {
    let rows = 40_000usize;
    let base = 1u64 << 33;
    let a: Vec<u32> = (0..rows as u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % 100)
        .collect();
    let b: Vec<u64> = (0..rows as u64)
        .map(|i| base + i.wrapping_mul(0x9E37) % 1000)
        .collect();
    let table = Table::from_chunked_columns(
        vec![
            ColumnDef::new("a", DataType::U32),
            ColumnDef::new("b", DataType::U64),
        ],
        vec![Column::from_slice(&a), Column::from_slice(&b)],
        8192,
    )
    .unwrap();
    // `a OP n` keeps 1–99 % of the rows; `b < base + 5` keeps 0.5 % and
    // `b < base + 995` 99.5 %.
    let u32_preds = [
        (CmpOp::Eq, 7u32),
        (CmpOp::Ne, 7),
        (CmpOp::Lt, 30),
        (CmpOp::Le, 29),
        (CmpOp::Gt, 69),
        (CmpOp::Ge, 70),
    ];
    for jit in [JitMode::Off, JitMode::On] {
        let db = Engine::with_jit(jit);
        db.register("t", table.clone());
        for (op, n) in u32_preds {
            for m in [base + 5, base + 995] {
                let matching: Vec<u64> = (0..rows)
                    .filter(|&r| a[r].cmp_op(op, n) && b[r] < m)
                    .map(|r| b[r])
                    .collect();
                let cond = format!("a {op} {n} AND b < {m}");
                let count = db
                    .query(&format!("SELECT COUNT(*) FROM t WHERE {cond}"))
                    .unwrap();
                assert_eq!(
                    count,
                    QueryResult::Count(matching.len() as u64),
                    "jit={jit:?} {cond}"
                );
                let sum = db
                    .query(&format!("SELECT SUM(b) FROM t WHERE {cond}"))
                    .unwrap();
                let QueryResult::Rows { rows: sum, .. } = sum else {
                    panic!("SUM returns rows");
                };
                let expected = Value::I64(matching.iter().sum::<u64>() as i64);
                assert_eq!(sum, vec![vec![expected]], "jit={jit:?} {cond}");
            }
        }
    }
}
