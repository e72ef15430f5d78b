//! The trivially-correct reference scan: a plain row loop with
//! short-circuit evaluation. Every other implementation in this crate —
//! SISD variants, block-at-a-time, the scalar fused engine, the AVX2 and
//! AVX-512 fused kernels, and the JIT-emitted code — is differential-tested
//! against this one.

use fts_storage::{NativeType, PosList};

use crate::bool_expr::BoolExpr;
use crate::pred::TypedPred;

/// Rows (ascending) matching every predicate of a homogeneous typed chain.
///
/// Panics if any predicate's column is shorter than the first one (all
/// chain columns must cover the same rows).
pub fn scan_positions<T: NativeType>(preds: &[TypedPred<'_, T>]) -> PosList {
    let Some(first) = preds.first() else {
        return PosList::new();
    };
    let rows = first.data.len();
    for p in preds {
        assert_eq!(p.data.len(), rows, "chain columns must have equal length");
    }
    let mut out = PosList::new();
    for row in 0..rows {
        if preds.iter().all(|p| p.matches(row)) {
            out.push(row as u32);
        }
    }
    out
}

/// `COUNT(*)` form of [`scan_positions`].
pub fn scan_count<T: NativeType>(preds: &[TypedPred<'_, T>]) -> u64 {
    scan_positions(preds).len() as u64
}

/// Rows (ascending) of `0..rows` where a boolean tree holds, walked row
/// at a time with short-circuiting; `holds(leaf, row)` evaluates one leaf
/// and `Not` is the logical complement. The oracle for every path that
/// executes predicate trees.
pub fn reference_scan_bool<P>(
    expr: &BoolExpr<P>,
    rows: usize,
    holds: impl Fn(&P, usize) -> bool,
) -> PosList {
    (0..rows as u32)
        .filter(|&row| expr.eval(&mut |p| holds(p, row as usize)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_storage::CmpOp;

    #[test]
    fn two_predicate_example_from_paper() {
        // SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2 — Fig. 3 data.
        let a = [2u32, 5, 4, 5, 6, 1, 5, 7, 6, 8, 5, 3, 5, 9, 9, 5];
        let b = [5u32, 2, 3, 1, 1, 3, 6, 0, 8, 7, 3, 3, 2, 9, 3, 2];
        let preds = [TypedPred::eq(&a[..], 5), TypedPred::eq(&b[..], 2)];
        let pos = scan_positions(&preds);
        // Row 1 (a=5,b=2), row 12 (a=5,b=2), row 15 (a=5,b=2).
        assert_eq!(pos.as_slice(), &[1, 12, 15]);
        assert_eq!(scan_count(&preds), 3);
    }

    #[test]
    fn empty_chain_and_empty_column() {
        assert!(scan_positions::<u32>(&[]).is_empty());
        let empty: [u32; 0] = [];
        assert!(scan_positions(&[TypedPred::eq(&empty[..], 1)]).is_empty());
    }

    #[test]
    fn bool_tree_walk() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).map(|i| i % 10).collect();
        // a < 3 OR (NOT a < 97 AND b = 5): rows 0, 1, 2; rows 97..100
        // have b ∈ {7, 8, 9}.
        let expr = BoolExpr::or(vec![
            BoolExpr::pred(TypedPred::new(&a[..], CmpOp::Lt, 3u32)),
            BoolExpr::and(vec![
                BoolExpr::not(BoolExpr::pred(TypedPred::new(&a[..], CmpOp::Lt, 97u32))),
                BoolExpr::pred(TypedPred::new(&b[..], CmpOp::Eq, 5u32)),
            ]),
        ]);
        let got = reference_scan_bool(&expr, a.len(), |p, row| p.matches(row));
        assert_eq!(got.as_slice(), &[0, 1, 2]);
        assert!(reference_scan_bool(&BoolExpr::Or(vec![]), 5, |p: &u32, _| *p > 0).is_empty());
        assert_eq!(
            reference_scan_bool(&BoolExpr::And(vec![]), 3, |_: &u32, _| false).len(),
            3
        );
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_chain_panics() {
        let a = [1u32, 2];
        let b = [1u32];
        let _ = scan_positions(&[TypedPred::eq(&a[..], 1), TypedPred::eq(&b[..], 1)]);
    }
}
