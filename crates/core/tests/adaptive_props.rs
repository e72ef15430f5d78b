//! Property tests for the adaptive selector: whatever kernel the selector
//! can choose, the answer is the same. Every candidate it may probe
//! ([`fts_core::candidate_scan_impls`]) must produce the reference's count
//! and exact position list on randomized chains, so calibration can never
//! change a query's result, only its speed. (The query executor's
//! calibration loop itself is checked end to end by
//! `fts-query`'s `bool_tree_props`.)

use fts_core::{candidate_scan_impls, reference, run_scan, OutputMode, ScanElem, TypedPred};
use fts_storage::{CmpOp, NativeType};
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(CmpOp::ALL.to_vec())
}

fn check_candidates<T: ScanElem + NativeType>(
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
    let expected = reference::scan_positions(&preds);

    // Every kernel the selector may hand a morsel to is interchangeable.
    for imp in candidate_scan_impls::<T>() {
        let got = run_scan(imp, &preds, OutputMode::Positions).unwrap();
        prop_assert_eq!(
            got.positions().unwrap(),
            &expected,
            "{} positions",
            imp.name()
        );
        let got = run_scan(imp, &preds, OutputMode::Count).unwrap();
        prop_assert_eq!(got.count(), expected.len() as u64, "{} count", imp.name());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn u32_chains_agree_across_selector_kernels(
        rows in 0usize..1500,
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
        let cols: Vec<Vec<u32>> = (0..p)
            .map(|_| (0..rows).map(|_| (rng() % domain as u64) as u32).collect())
            .collect();
        check_candidates(&cols, &ops[..p], &needles[..p])?;
    }

    #[test]
    fn i32_chains_agree_across_selector_kernels(
        rows in 0usize..900,
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
        check_candidates(&cols, &ops[..p], &needles[..p])?;
    }

    #[test]
    fn u64_chains_agree_across_selector_kernels(
        rows in 0usize..700,
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
        let cols: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..rows).map(|_| base + rng() % 11).collect())
            .collect();
        check_candidates(&cols, &ops[..2], &[base + 5, base + 3])?;
    }
}
