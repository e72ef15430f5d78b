//! Property tests for the fused-scan emitter over bit-packed columns: for
//! random chain shapes — 1–5 columns, each plain or packed at a random
//! width, any operator, either output mode, a random row count — the
//! kernel compiled through the cache agrees with the interpreted reference.
//! A second family puts runs of adjacent predicates on one column.

use fts_core::fused::packed::{fused_scan_packed, scan_packed_reference, PackedPred};
use fts_core::{OutputMode, TypedPred};
use fts_jit::{JitBackend, JitCol, JitElem, JitPred, KernelCache, ScanSig};
use fts_storage::bitpack::{mask_of, PackedColumn};
use fts_storage::CmpOp;
use proptest::prelude::*;

fn available() -> bool {
    fts_simd::has_avx512() && std::arch::is_x86_feature_detected!("avx512vbmi2")
}

/// One drawn column: `Some(bits)` for a packed column, the operator, and
/// the needle as a fraction of the column's value range, in 1/8ths.
type ColShape = (Option<u8>, CmpOp, u32);

fn col_shape(max_bits: u8) -> impl Strategy<Value = ColShape> {
    (
        prop::option::of(1u8..=max_bits),
        prop::sample::select(CmpOp::ALL.to_vec()),
        0u32..=8,
    )
}

/// Plain columns draw values below this bound, so every operator sees
/// both outcomes.
const PLAIN_RANGE: u32 = 7;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn jit_packed_matches_reference(
        rows in 0usize..700,
        // A packed driver unpacks at most 16 bits; a follower funnels up
        // to 32.
        driver in col_shape(16),
        followers in prop::collection::vec(col_shape(32), 0..=4),
        emit_positions in any::<bool>(),
        seed in any::<u64>(),
    ) {
        if !available() {
            return Ok(());
        }
        let chain: Vec<ColShape> = std::iter::once(driver).chain(followers).collect();
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        // Values and an in-domain needle per column.
        let drawn: Vec<(Vec<u32>, u32)> = chain
            .iter()
            .map(|&(packed, _, eighths)| {
                let domain = packed.map_or(PLAIN_RANGE - 1, mask_of);
                let values = (0..rows)
                    .map(|_| match packed {
                        Some(bits) => rng() & mask_of(bits),
                        None => rng() % PLAIN_RANGE,
                    })
                    .collect();
                let needle = (domain as u64 * eighths as u64 / 8) as u32;
                (values, needle)
            })
            .collect();
        let packed: Vec<Option<PackedColumn>> = chain
            .iter()
            .zip(&drawn)
            .map(|(&(packed, _, _), (values, _))| {
                packed.map(|bits| PackedColumn::pack(values, bits).unwrap())
            })
            .collect();

        let sig = ScanSig {
            elem: JitElem::U32,
            preds: chain
                .iter()
                .zip(&drawn)
                .map(|(&(packed, op, _), &(_, needle))| match packed {
                    Some(bits) => JitPred::packed(bits, op, needle),
                    None => JitPred::plain(op, needle as u64),
                })
                .collect(),
            emit_positions,
        };
        let cols: Vec<JitCol<'_, u32>> = drawn
            .iter()
            .zip(&packed)
            .map(|((values, _), p)| match p {
                Some(p) => JitCol::Packed(p),
                None => JitCol::Plain(&values[..]),
            })
            .collect();
        let reference: Vec<PackedPred<'_>> = chain
            .iter()
            .zip(&drawn)
            .zip(&packed)
            .map(|((&(_, op, _), (values, needle)), p)| match p {
                Some(col) => PackedPred::Packed { col, op, needle: *needle },
                None => PackedPred::Plain(TypedPred::new(&values[..], op, *needle)),
            })
            .collect();
        let expected = scan_packed_reference(&reference);

        let cache = KernelCache::new(JitBackend::Avx512);
        let got = cache.get_or_compile(&sig).unwrap().run_cols(&cols).unwrap();
        if emit_positions {
            prop_assert_eq!(got.positions().unwrap(), &expected);
        } else {
            prop_assert_eq!(got.count(), expected.len() as u64);
        }
    }

    /// Same-column runs: each drawn column (plain or packed) serves a run
    /// of 1–3 adjacent predicates, each with its own operator and needle,
    /// so runs sit in driver and in follower position. The JIT kernel and
    /// the static packed kernel agree with the reference.
    #[test]
    fn jit_packed_runs_match_reference(
        rows in 0usize..700,
        driver in (prop::option::of(1u8..=16), 1usize..=3),
        followers in prop::collection::vec((prop::option::of(1u8..=32), 1usize..=3), 0..=2),
        tests in prop::collection::vec((prop::sample::select(CmpOp::ALL.to_vec()), 0u32..=8), 5),
        emit_positions in any::<bool>(),
        seed in any::<u64>(),
    ) {
        if !available() {
            return Ok(());
        }
        let columns: Vec<(Option<u8>, usize)> = std::iter::once(driver).chain(followers).collect();
        let layout: Vec<usize> = columns
            .iter()
            .enumerate()
            .flat_map(|(c, &(_, run))| std::iter::repeat_n(c, run))
            .take(5)
            .collect();
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        };
        let values: Vec<Vec<u32>> = columns
            .iter()
            .map(|&(packed, _)| {
                (0..rows)
                    .map(|_| match packed {
                        Some(bits) => rng() & mask_of(bits),
                        None => rng() % PLAIN_RANGE,
                    })
                    .collect()
            })
            .collect();
        let packed: Vec<Option<PackedColumn>> = columns
            .iter()
            .zip(&values)
            .map(|(&(packed, _), v)| packed.map(|bits| PackedColumn::pack(v, bits).unwrap()))
            .collect();
        let needle = |k: usize| {
            let domain = columns[layout[k]].0.map_or(PLAIN_RANGE - 1, mask_of);
            (domain as u64 * tests[k].1 as u64 / 8) as u32
        };

        let sig = ScanSig {
            elem: JitElem::U32,
            preds: (0..layout.len())
                .map(|k| match columns[layout[k]].0 {
                    Some(bits) => JitPred::packed(bits, tests[k].0, needle(k)),
                    None => JitPred::plain(tests[k].0, needle(k) as u64),
                })
                .collect(),
            emit_positions,
        }
        .with_columns(&layout);
        let cols: Vec<JitCol<'_, u32>> = layout
            .iter()
            .map(|&c| match &packed[c] {
                Some(p) => JitCol::Packed(p),
                None => JitCol::Plain(&values[c][..]),
            })
            .collect();
        let reference: Vec<PackedPred<'_>> = (0..layout.len())
            .map(|k| {
                let (c, op) = (layout[k], tests[k].0);
                match &packed[c] {
                    Some(col) => PackedPred::Packed { col, op, needle: needle(k) },
                    None => PackedPred::Plain(TypedPred::new(&values[c][..], op, needle(k))),
                }
            })
            .collect();
        let expected = scan_packed_reference(&reference);

        let cache = KernelCache::new(JitBackend::Avx512);
        let got = cache.get_or_compile(&sig).unwrap().run_cols(&cols).unwrap();
        let mode = if emit_positions { OutputMode::Positions } else { OutputMode::Count };
        let stat = fused_scan_packed(&reference, mode).unwrap();
        if emit_positions {
            prop_assert_eq!(got.positions().unwrap(), &expected);
            prop_assert_eq!(stat.positions().unwrap(), &expected, "static packed kernel");
        } else {
            prop_assert_eq!(got.count(), expected.len() as u64);
            prop_assert_eq!(stat.count(), expected.len() as u64, "static packed kernel");
        }
    }
}
