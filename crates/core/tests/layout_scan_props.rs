//! Differential property tests for the compressed-domain scans: the
//! frame-of-reference fused chain and the byte-sliced scan must agree
//! with a plain row loop over the decoded data for every operator,
//! random widths/offsets/clusterings, and needles both inside and far
//! outside the stored domain (the overflow-rewrite paths).

use fts_core::{fused_scan_for, scan_bytesliced, ByteSlicedPred, ForPred, OutputMode, TypedPred};
use fts_storage::{ByteSlicedColumn, CmpOp, ForColumn, NativeType, PosList};
use proptest::prelude::*;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn values(rows: usize, base: u32, span: u32, sorted: bool, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    let mut v: Vec<u32> = (0..rows)
        .map(|_| base.saturating_add((xorshift(&mut state) % span.max(1) as u64) as u32))
        .collect();
    if sorted {
        v.sort_unstable();
    }
    v
}

/// Row-loop oracle over the decoded values.
fn oracle(cols: &[&[u32]], ops: &[CmpOp], needles: &[u32]) -> PosList {
    let rows = cols.first().map_or(0, |c| c.len());
    let mut out = PosList::new();
    for row in 0..rows {
        let all = cols
            .iter()
            .zip(ops)
            .zip(needles)
            .all(|((c, &op), &n)| c[row].cmp_op(op, n));
        if all {
            out.push(row as u32);
        }
    }
    out
}

fn op_strategy() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(CmpOp::ALL.to_vec())
}

/// Needles in-domain, at the domain edges, and far outside it — the
/// out-of-domain cases are where the per-block rewrite must resolve to
/// always/never rather than a wrapped compare.
fn needle_for(base: u32, span: u32, pick: u8, raw: u32) -> u32 {
    match pick % 5 {
        0 => base.saturating_add(raw % span.max(1)),
        1 => base,
        2 => base.saturating_add(span),
        3 => base.saturating_sub(1000),
        _ => base.saturating_add(span).saturating_add(1000),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mixed FoR/plain chains agree with the row-loop oracle in both
    /// output modes, and the built-in reference agrees too.
    #[test]
    fn for_chains_match_plain_oracle(
        rows in 0usize..1500,
        preds in 1usize..=3,
        base in prop::sample::select(vec![0u32, 100, 3_900_000_000]),
        span in prop::sample::select(vec![1u32, 16, 300, 70_000]),
        sorted in any::<bool>(),
        ops in prop::collection::vec(op_strategy(), 3),
        picks in prop::collection::vec(any::<u8>(), 3),
        raws in prop::collection::vec(any::<u32>(), 3),
        plain_mask in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let cols: Vec<Vec<u32>> = (0..preds)
            .map(|i| values(rows, base, span, sorted, seed.wrapping_add(i as u64)))
            .collect();
        let needles: Vec<u32> = (0..preds)
            .map(|i| needle_for(base, span, picks[i], raws[i]))
            .collect();
        let encoded: Vec<Option<ForColumn>> = (0..preds)
            .map(|i| (plain_mask >> i) & 1 == 0)
            .zip(&cols)
            .map(|(enc, c)| enc.then(|| ForColumn::encode(c)))
            .collect();
        let chain: Vec<ForPred<'_>> = encoded
            .iter()
            .zip(&cols)
            .zip(&ops[..preds])
            .zip(&needles)
            .map(|(((enc, c), &op), &n)| match enc {
                Some(col) => ForPred::For { col, op, needle: n },
                None => ForPred::Plain(TypedPred::new(&c[..], op, n)),
            })
            .collect();

        let refs: Vec<&[u32]> = cols.iter().map(|c| &c[..]).collect();
        let expected = oracle(&refs, &ops[..preds], &needles);

        let (got, _) = fused_scan_for(&chain, OutputMode::Positions).unwrap();
        prop_assert_eq!(got.positions().unwrap(), &expected, "positions");
        let (got, _) = fused_scan_for(&chain, OutputMode::Count).unwrap();
        prop_assert_eq!(got.count(), expected.len() as u64, "count");
        prop_assert_eq!(&fts_core::scan_for_reference(&chain), &expected, "reference");
    }

    /// The byte-sliced scan agrees with the row-loop oracle for every
    /// operator and widths from one to four planes.
    #[test]
    fn bytesliced_matches_plain_oracle(
        rows in 0usize..1500,
        bits in 1u32..=31,
        sorted in any::<bool>(),
        op in op_strategy(),
        pick in any::<u8>(),
        raw in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let span = if bits >= 32 { u32::MAX } else { (1u32 << bits) - 1 }.max(1);
        let v = values(rows, 0, span, sorted, seed);
        let col = ByteSlicedColumn::encode(&v);
        let needle = needle_for(0, span, pick, raw);
        let expected = oracle(&[&v], &[op], &[needle]);

        let chain = [ByteSlicedPred { col: &col, op, needle }];
        let (got, _) = scan_bytesliced(&chain, OutputMode::Positions);
        prop_assert_eq!(got.positions().unwrap(), &expected, "positions");
        let (got, stats) = scan_bytesliced(&chain, OutputMode::Count);
        prop_assert_eq!(got.count(), expected.len() as u64, "count");
        // The early-exit never reads more plane-groups than exist.
        let groups = rows.div_ceil(64) as u64;
        prop_assert!(stats.plane_groups_read <= groups * col.planes() as u64);
    }
}
