//! Property tests: every scan implementation agrees with the reference row
//! loop on randomized workloads, for multiple element types, operators,
//! chain lengths, and row counts — including the position-list invariants
//! the fused engines rely on.

use fts_core::{reference, run_scan, OutputMode, RegWidth, ScanElem, ScanImpl, TypedPred};
use fts_storage::{CmpOp, NativeType};
use proptest::prelude::*;

fn impls_for_32bit() -> Vec<ScanImpl> {
    let mut v = vec![
        ScanImpl::SisdBranching,
        ScanImpl::SisdAutoVec,
        ScanImpl::BlockBitmap,
        ScanImpl::BlockSelVec,
        ScanImpl::FusedScalar(RegWidth::W128),
        ScanImpl::FusedScalar(RegWidth::W256),
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

/// Every 64-bit kernel: the row, block and portable engines plus the
/// AVX-512 zmm kernel (8-byte lanes exist at 512 bits only).
fn impls_for_64bit() -> Vec<ScanImpl> {
    let mut v = impls_for_32bit();
    v.retain(|imp| match imp {
        ScanImpl::FusedAvx2 => false,
        ScanImpl::FusedAvx512(w) => *w == RegWidth::W512,
        _ => true,
    });
    v
}

fn check_all<T: ScanElem + NativeType>(
    impls: &[ScanImpl],
    cols: &[Vec<T>],
    ops: &[CmpOp],
    needles: &[T],
) -> Result<(), TestCaseError> {
    let preds: Vec<TypedPred<'_, T>> = cols
        .iter()
        .zip(ops)
        .zip(needles)
        .map(|((c, &op), &n)| TypedPred::new(&c[..], op, n))
        .collect();
    check_chain(impls, &preds)
}

/// A chain whose predicate `k` reads `cols[layout[k]]`, so adjacent
/// predicates may share one slice (one fused stage).
fn check_layout<T: ScanElem + NativeType>(
    impls: &[ScanImpl],
    cols: &[Vec<T>],
    layout: &[usize],
    ops: &[CmpOp],
    needles: &[T],
) -> Result<(), TestCaseError> {
    let preds: Vec<TypedPred<'_, T>> = layout
        .iter()
        .zip(ops)
        .zip(needles)
        .map(|((&c, &op), &n)| TypedPred::new(&cols[c][..], op, n))
        .collect();
    check_chain(impls, &preds)
}

fn check_chain<T: ScanElem + NativeType>(
    impls: &[ScanImpl],
    preds: &[TypedPred<'_, T>],
) -> Result<(), TestCaseError> {
    let expected = reference::scan_positions(preds);
    prop_assert!(
        expected.is_valid(),
        "reference emits ascending unique positions"
    );

    for &imp in impls {
        let got = run_scan(imp, preds, OutputMode::Positions).unwrap();
        prop_assert_eq!(
            got.positions().unwrap(),
            &expected,
            "{} positions",
            imp.name()
        );
        let got = run_scan(imp, preds, OutputMode::Count).unwrap();
        prop_assert_eq!(got.count(), expected.len() as u64, "{} count", imp.name());
    }
    Ok(())
}

fn op_strategy() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(CmpOp::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn u32_chains(
        rows in 0usize..1200,
        p in 1usize..=4,
        domain in 1u32..40,
        ops in prop::collection::vec(op_strategy(), 4),
        needles in prop::collection::vec(0u32..40, 4),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cols: Vec<Vec<u32>> =
            (0..p).map(|_| (0..rows).map(|_| (rng() % domain as u64) as u32).collect()).collect();
        check_all(&impls_for_32bit(), &cols, &ops[..p], &needles[..p])?;
    }

    #[test]
    fn i32_chains_with_negatives(
        rows in 0usize..800,
        p in 1usize..=3,
        ops in prop::collection::vec(op_strategy(), 3),
        needles in prop::collection::vec(-20i32..20, 3),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cols: Vec<Vec<i32>> = (0..p)
            .map(|_| (0..rows).map(|_| (rng() % 41) as i32 - 20).collect())
            .collect();
        check_all(&impls_for_32bit(), &cols, &ops[..p], &needles[..p])?;
    }

    #[test]
    fn f32_chains_with_nan(
        rows in 0usize..600,
        ops in prop::collection::vec(op_strategy(), 2),
        needle0 in -5i32..5,
        nan_every in 2usize..50,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let cols: Vec<Vec<f32>> = (0..2)
            .map(|c| {
                (0..rows)
                    .map(|i| {
                        if c == 0 && i % nan_every == 0 { f32::NAN }
                        else { (rng() % 11) as f32 - 5.0 }
                    })
                    .collect()
            })
            .collect();
        check_all(
            &impls_for_32bit(),
            &cols,
            &ops[..2],
            &[needle0 as f32, 0.0],
        )?;
    }

    #[test]
    fn u64_and_f64_chains(
        rows in 0usize..600,
        ops in prop::collection::vec(op_strategy(), 2),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Values straddling 2^32 exercise the full 64-bit compare path.
        let base = u32::MAX as u64 - 5;
        let cols: Vec<Vec<u64>> =
            (0..2).map(|_| (0..rows).map(|_| base + rng() % 11).collect()).collect();
        let mut impls = vec![
            ScanImpl::SisdBranching,
            ScanImpl::SisdAutoVec,
            ScanImpl::FusedScalar(RegWidth::W256),
        ];
        if ScanImpl::FusedAvx512(RegWidth::W512).available() {
            impls.push(ScanImpl::FusedAvx512(RegWidth::W512));
        }
        check_all(&impls, &cols, &ops[..2], &[base + 5, base + 3])?;

        let fcols: Vec<Vec<f64>> = cols
            .iter()
            .map(|c| c.iter().map(|&v| (v - base) as f64 * 0.5).collect())
            .collect();
        check_all(&impls, &fcols, &ops[..2], &[2.5f64, 1.5])?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adjacent predicates on one column (a `BETWEEN`, `x <> 5 AND x < 9`,
    /// runs of three) in driver and follower position, over every element
    /// type and every kernel that takes it.
    #[test]
    fn same_column_runs(
        rows in 0usize..900,
        runs in prop::collection::vec((0usize..3, 1usize..=3), 1..=3),
        ops in prop::collection::vec(op_strategy(), 9),
        needles in prop::collection::vec(0u32..24, 9),
        nan_every in 2usize..40,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let layout: Vec<usize> = runs
            .iter()
            .flat_map(|&(col, len)| std::iter::repeat_n(col, len))
            .take(fts_core::fused::MAX_PREDICATES)
            .collect();
        let p = layout.len();
        let (ops, needles) = (&ops[..p], &needles[..p]);
        let raw: Vec<Vec<u32>> =
            (0..3).map(|_| (0..rows).map(|_| (rng() % 24) as u32).collect()).collect();
        let float = |v: u32, i: usize| {
            if i.is_multiple_of(nan_every) { f64::NAN } else { v as f64 * 0.5 - 6.0 }
        };
        let map = |f: &dyn Fn(u32, usize) -> f64| -> Vec<Vec<f64>> {
            raw.iter().map(|c| c.iter().enumerate().map(|(i, &v)| f(v, i)).collect()).collect()
        };
        let fneedles: Vec<f64> = needles.iter().map(|&n| n as f64 * 0.5 - 6.0).collect();

        check_layout(&impls_for_32bit(), &raw, &layout, ops, needles)?;
        let i32s: Vec<Vec<i32>> =
            raw.iter().map(|c| c.iter().map(|&v| v as i32 - 12).collect()).collect();
        let i32n: Vec<i32> = needles.iter().map(|&n| n as i32 - 12).collect();
        check_layout(&impls_for_32bit(), &i32s, &layout, ops, &i32n)?;
        let f32s: Vec<Vec<f32>> =
            map(&float).iter().map(|c| c.iter().map(|&v| v as f32).collect()).collect();
        let f32n: Vec<f32> = fneedles.iter().map(|&n| n as f32).collect();
        check_layout(&impls_for_32bit(), &f32s, &layout, ops, &f32n)?;

        // Values straddling 2^32 and far below zero exercise the full
        // 64-bit compares.
        let base = u32::MAX as u64 - 5;
        let u64s: Vec<Vec<u64>> =
            raw.iter().map(|c| c.iter().map(|&v| base + v as u64).collect()).collect();
        let u64n: Vec<u64> = needles.iter().map(|&n| base + n as u64).collect();
        check_layout(&impls_for_64bit(), &u64s, &layout, ops, &u64n)?;
        let i64s: Vec<Vec<i64>> =
            raw.iter().map(|c| c.iter().map(|&v| (v as i64 - 12) << 40).collect()).collect();
        let i64n: Vec<i64> = needles.iter().map(|&n| (n as i64 - 12) << 40).collect();
        check_layout(&impls_for_64bit(), &i64s, &layout, ops, &i64n)?;
        check_layout(&impls_for_64bit(), &map(&float), &layout, ops, &fneedles)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bit-packed fused chains (static kernel and JIT) agree with the
    /// row-wise reference for random widths, needles and row counts.
    #[test]
    fn packed_chains_agree(
        rows in 0usize..900,
        bits0 in 1u8..=32,
        bits1 in 1u8..=32,
        op0 in prop::sample::select(CmpOp::ALL.to_vec()),
        op1 in prop::sample::select(CmpOp::ALL.to_vec()),
        seed in any::<u64>(),
    ) {
        use fts_core::fused::packed::{
            fused_scan_packed, packed_kernel_available, scan_packed_reference, PackedPred,
        };
        use fts_storage::{mask_of, PackedColumn};

        if !packed_kernel_available() {
            return Ok(());
        }
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        let v0: Vec<u32> = (0..rows).map(|_| rng() & mask_of(bits0)).collect();
        let v1: Vec<u32> = (0..rows).map(|_| rng() & mask_of(bits1)).collect();
        let c0 = PackedColumn::pack(&v0, bits0).unwrap();
        let c1 = PackedColumn::pack(&v1, bits1).unwrap();
        let n0 = mask_of(bits0) / 2;
        let n1 = mask_of(bits1) / 3;
        let preds = [
            PackedPred::Packed { col: &c0, op: op0, needle: n0 },
            PackedPred::Packed { col: &c1, op: op1, needle: n1 },
        ];
        let expected = scan_packed_reference(&preds);
        let got = fused_scan_packed(&preds, OutputMode::Positions).unwrap();
        prop_assert_eq!(got.positions().unwrap(), &expected, "static packed kernel");
        let got = fused_scan_packed(&preds, OutputMode::Count).unwrap();
        prop_assert_eq!(got.count(), expected.len() as u64);
    }
}

/// The generated position list is exactly the ascending set of matching
/// rows — checked against an independent bitmap-based oracle.
#[test]
fn position_list_is_sorted_unique_and_complete() {
    let rows = 10_000usize;
    let a: Vec<u32> = (0..rows as u32)
        .map(|i| i.wrapping_mul(2654435761) % 16)
        .collect();
    let b: Vec<u32> = (0..rows as u32)
        .map(|i| i.wrapping_mul(40503) % 16)
        .collect();
    let preds = [
        TypedPred::eq(&a[..], 3u32),
        TypedPred::new(&b[..], CmpOp::Ge, 8u32),
    ];
    let out = fts_core::run_fused_auto(&preds, OutputMode::Positions);
    let pl = out.positions().unwrap();
    assert!(pl.is_valid());
    let set: std::collections::HashSet<u32> = pl.into_iter().collect();
    for row in 0..rows as u32 {
        let should = a[row as usize] == 3 && b[row as usize] >= 8;
        assert_eq!(set.contains(&row), should, "row {row}");
    }
}
