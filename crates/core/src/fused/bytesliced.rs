//! Plane-wise predicate evaluation over **byte-sliced** columns — the
//! ByteStore scan (PAPERS.md).
//!
//! A conjunction of predicates over byte-sliced columns is answered 64
//! rows at a time: each predicate ANDs its match mask into the group's
//! running mask, and the group stops at the first empty mask, so a
//! byte-sliced `BETWEEN` is one pass. Each predicate is answered
//! most-significant plane first. Three running masks per group —
//! `lt`, `gt` (decided) and `eq` (still undecided) — are refined one
//! plane at a time:
//!
//! ```text
//! lt |= eq & (plane_byte < needle_byte)
//! gt |= eq & (plane_byte > needle_byte)
//! eq &= (plane_byte == needle_byte)
//! ```
//!
//! Once `eq` reaches zero every row of the group is decided and the
//! remaining (less significant) planes are never read — on selective
//! predicates most groups are decided after one byte per row instead of
//! four. The per-plane byte compare uses AVX-512 BW's 64-lane `u8`
//! compare masks when available, a branch-free scalar loop otherwise,
//! dispatched through `fts_simd::detect()` (so `FTS_FORCE_SIMD` gates
//! this kernel too). `Count` mode popcounts the final masks and never
//! materializes a position list.

use fts_simd::{mask_popcount, SimdLevel};
use fts_storage::byteslice::MAX_PLANES;
use fts_storage::{ByteSlicedColumn, CmpOp, PosList};

use crate::pred::{OutputMode, ScanOutput};

/// Per-scan statistics: how many plane-groups the early exit skipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ByteSliceStats {
    /// 64-row × plane units actually compared.
    pub plane_groups_read: u64,
    /// 64-row × plane units skipped because the group was fully decided.
    pub plane_groups_skipped: u64,
}

/// Byte compare of up to 64 lanes: returns (lt, gt, eq) bit masks.
fn cmp_bytes(plane: &[u8], needle: u8, rows: usize) -> (u64, u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if fts_simd::detect() == SimdLevel::Avx512 {
        // SAFETY: AVX-512 F+VL+BW+DQ presence established by detect().
        return unsafe { cmp_bytes_avx512(plane, needle, rows) };
    }
    cmp_bytes_scalar(plane, needle, rows)
}

fn cmp_bytes_scalar(plane: &[u8], needle: u8, rows: usize) -> (u64, u64, u64) {
    let (mut lt, mut gt, mut eq) = (0u64, 0u64, 0u64);
    for (i, &b) in plane[..rows].iter().enumerate() {
        lt |= ((b < needle) as u64) << i;
        gt |= ((b > needle) as u64) << i;
        eq |= ((b == needle) as u64) << i;
    }
    (lt, gt, eq)
}

/// # Safety
/// Requires AVX-512 F+VL+BW+DQ (checked by the caller via `detect()`);
/// `plane` must hold at least `rows` bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq")]
#[allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context
unsafe fn cmp_bytes_avx512(plane: &[u8], needle: u8, rows: usize) -> (u64, u64, u64) {
    use std::arch::x86_64::*;
    let load: __mmask64 = if rows >= 64 {
        u64::MAX
    } else {
        (1u64 << rows) - 1
    };
    let v = _mm512_maskz_loadu_epi8(load, plane.as_ptr() as *const i8);
    let n = _mm512_set1_epi8(needle as i8);
    let lt = _mm512_mask_cmplt_epu8_mask(load, v, n);
    let gt = _mm512_mask_cmpgt_epu8_mask(load, v, n);
    let eq = _mm512_mask_cmpeq_epu8_mask(load, v, n);
    (lt, gt, eq)
}

/// One predicate of a byte-sliced conjunction: `col OP needle`.
#[derive(Debug, Clone, Copy)]
pub struct ByteSlicedPred<'a> {
    /// The byte-sliced column.
    pub col: &'a ByteSlicedColumn,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal in the value domain.
    pub needle: u32,
}

/// AND `col OP needle` into `alive` for the 64-row group at `base`
/// (`n` rows), most-significant plane first. Only rows still alive start
/// out undecided, so a sparse `alive` mask decides — and stops reading
/// planes — early.
fn and_pred(
    p: &ByteSlicedPred<'_>,
    needle_bytes: &[u8; MAX_PLANES],
    base: usize,
    n: usize,
    alive: u64,
    stats: &mut ByteSliceStats,
) -> u64 {
    let (mut lt, mut gt, mut eq) = (0u64, 0u64, alive);
    for k in (0..p.col.planes()).rev() {
        if eq == 0 {
            stats.plane_groups_skipped += (k + 1) as u64;
            break;
        }
        stats.plane_groups_read += 1;
        let (plt, pgt, peq) = cmp_bytes(&p.col.plane(k)[base..], needle_bytes[k], n);
        lt |= eq & plt;
        gt |= eq & pgt;
        eq &= peq;
    }
    match p.op {
        CmpOp::Eq => eq,
        CmpOp::Ne => alive & !eq,
        CmpOp::Lt => lt,
        CmpOp::Le => lt | eq,
        CmpOp::Gt => gt,
        CmpOp::Ge => gt | eq,
    }
}

/// Evaluate the conjunction into per-64-row match masks, calling `sink`
/// with `(group_index, mask)` for every group with at least one match.
/// Each group ANDs the predicates in chain order and stops at the first
/// empty mask: the remaining predicates' planes are never read.
fn scan_groups(
    preds: &[ByteSlicedPred<'_>],
    stats: &mut ByteSliceStats,
    mut sink: impl FnMut(usize, u64),
) {
    let Some(first) = preds.first() else {
        return;
    };
    let rows = first.col.len();
    assert!(
        preds.iter().all(|p| p.col.len() == rows),
        "chain columns must have equal length"
    );
    let needles: Vec<([u8; MAX_PLANES], bool)> =
        preds.iter().map(|p| p.col.needle_bytes(p.needle)).collect();

    for g in 0..rows.div_ceil(64) {
        let base = g * 64;
        let n = (rows - base).min(64);
        let mut mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        for (i, (p, (bytes, overflow))) in preds.iter().zip(&needles).enumerate() {
            if mask == 0 {
                stats.plane_groups_skipped += preds[i..]
                    .iter()
                    .map(|p| p.col.planes() as u64)
                    .sum::<u64>();
                break;
            }
            mask = if *overflow {
                // Needle above every storable value: a constant outcome
                // per operator, decided without reading a plane.
                stats.plane_groups_skipped += p.col.planes() as u64;
                if matches!(p.op, CmpOp::Ne | CmpOp::Lt | CmpOp::Le) {
                    mask
                } else {
                    0
                }
            } else {
                and_pred(p, bytes, base, n, mask, stats)
            };
        }
        if mask != 0 {
            sink(g, mask);
        }
    }
}

/// Scan a conjunction of byte-sliced predicates over columns of equal
/// length in one pass (a single predicate is a chain of one; an empty
/// chain matches nothing). `Count` mode accumulates popcounts only;
/// `Positions` mode emits a [`PosList`].
pub fn scan_bytesliced(
    preds: &[ByteSlicedPred<'_>],
    mode: OutputMode,
) -> (ScanOutput, ByteSliceStats) {
    let mut stats = ByteSliceStats::default();
    match mode {
        OutputMode::Count => {
            let mut total = 0u64;
            scan_groups(preds, &mut stats, |_, mask| {
                total += mask_popcount(&[mask]);
            });
            (ScanOutput::Count(total), stats)
        }
        OutputMode::Positions => {
            let mut out: Vec<u32> = Vec::new();
            scan_groups(preds, &mut stats, |g, mask| {
                let mut bits = mask;
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    out.push((g * 64 + i) as u32);
                    bits &= bits - 1;
                }
            });
            (ScanOutput::Positions(PosList::from_vec(out)), stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_storage::NativeType;

    fn xorshift(seed: u64) -> impl Iterator<Item = u32> {
        let mut state = seed | 1;
        std::iter::repeat_with(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        })
    }

    fn one(col: &ByteSlicedColumn, op: CmpOp, needle: u32) -> [ByteSlicedPred<'_>; 1] {
        [ByteSlicedPred { col, op, needle }]
    }

    /// Check a chain over `columns` against the row loop, in both modes.
    fn check_chain(columns: &[Vec<u32>], chain: &[(usize, CmpOp, u32)]) -> ByteSliceStats {
        let encoded: Vec<ByteSlicedColumn> = columns
            .iter()
            .map(|v| ByteSlicedColumn::encode(v))
            .collect();
        let preds: Vec<ByteSlicedPred<'_>> = chain
            .iter()
            .map(|&(c, op, needle)| ByteSlicedPred {
                col: &encoded[c],
                op,
                needle,
            })
            .collect();
        let rows = columns.first().map_or(0, Vec::len);
        let expect: Vec<u32> = (0..rows)
            .filter(|&r| {
                chain
                    .iter()
                    .all(|&(c, op, needle)| columns[c][r].cmp_op(op, needle))
            })
            .map(|r| r as u32)
            .collect();
        let (got, stats) = scan_bytesliced(&preds, OutputMode::Positions);
        assert_eq!(
            got.positions().unwrap().as_slice(),
            &expect[..],
            "chain {chain:?}"
        );
        let (got, count_stats) = scan_bytesliced(&preds, OutputMode::Count);
        assert_eq!(got.count(), expect.len() as u64, "chain {chain:?}");
        assert_eq!(stats, count_stats, "both modes read the same planes");
        // Every (group, predicate) pair's planes are either read or skipped.
        let groups = rows.div_ceil(64) as u64;
        let planes: u64 = preds.iter().map(|p| p.col.planes() as u64).sum();
        assert_eq!(
            stats.plane_groups_read + stats.plane_groups_skipped,
            groups * planes,
            "chain {chain:?}"
        );
        stats
    }

    fn check(values: &[u32], op: CmpOp, needle: u32) {
        check_chain(&[values.to_vec()], &[(0, op, needle)]);
    }

    #[test]
    fn all_ops_all_plane_counts() {
        for max in [200u32, 60_000, 1 << 20, u32::MAX - 1] {
            let values: Vec<u32> = xorshift(max as u64)
                .take(500)
                .map(|v| v % max)
                .chain([0, max])
                .collect();
            for op in CmpOp::ALL {
                for needle in [0u32, 1, max / 2, max, max.saturating_add(1), u32::MAX] {
                    check(&values, op, needle);
                }
            }
        }
    }

    #[test]
    fn group_sizes_and_tails() {
        for rows in [0usize, 1, 63, 64, 65, 128, 1000] {
            let values: Vec<u32> = (0..rows as u32).map(|i| i * 3).collect();
            check(&values, CmpOp::Lt, (rows as u32) * 3 / 2);
        }
    }

    #[test]
    fn early_exit_skips_low_planes() {
        // Wide random values, selective equality: most groups decide on
        // the top plane.
        let values: Vec<u32> = xorshift(42).take(64 * 100).collect();
        let col = ByteSlicedColumn::encode(&values);
        let (_, stats) = scan_bytesliced(&one(&col, CmpOp::Eq, values[17]), OutputMode::Count);
        assert!(
            stats.plane_groups_skipped > stats.plane_groups_read,
            "{stats:?}"
        );
    }

    #[test]
    fn count_equals_positions() {
        let values: Vec<u32> = xorshift(9).take(777).map(|v| v % 1000).collect();
        let col = ByteSlicedColumn::encode(&values);
        for op in CmpOp::ALL {
            let (c, _) = scan_bytesliced(&one(&col, op, 500), OutputMode::Count);
            let (p, _) = scan_bytesliced(&one(&col, op, 500), OutputMode::Positions);
            assert_eq!(c.count(), p.count());
            assert!(matches!(c, ScanOutput::Count(_)));
        }
    }

    #[test]
    fn chains_match_the_row_loop_across_tails() {
        let mut rng = xorshift(7);
        for rows in [0usize, 1, 63, 64, 65, 127, 129, 1000] {
            // One narrow (1-plane), one medium (2-plane) and one wide
            // (4-plane) column.
            let columns: Vec<Vec<u32>> = [200u32, 60_000, u32::MAX]
                .iter()
                .map(|&max| (0..rows).map(|_| rng.next().unwrap() % max).collect())
                .collect();
            for _ in 0..40 {
                let len = 1 + (rng.next().unwrap() % 5) as usize;
                let chain: Vec<(usize, CmpOp, u32)> = (0..len)
                    .map(|_| {
                        let c = (rng.next().unwrap() % 3) as usize;
                        let op = CmpOp::ALL[(rng.next().unwrap() % 6) as usize];
                        let needle = match columns[c].len() {
                            0 => rng.next().unwrap(),
                            n => columns[c][(rng.next().unwrap() as usize) % n],
                        };
                        (c, op, needle)
                    })
                    .collect();
                check_chain(&columns, &chain);
            }
            // A BETWEEN on the wide column.
            check_chain(
                &columns,
                &[(2, CmpOp::Ge, 1 << 30), (2, CmpOp::Le, 3 << 30)],
            );
        }
    }

    #[test]
    fn chains_with_overflowing_needles() {
        // Values fit one plane; needles above 255 overflow it.
        let narrow: Vec<u32> = xorshift(3).take(300).map(|v| v % 200).collect();
        let wide: Vec<u32> = xorshift(4).take(300).collect();
        let columns = [narrow, wide];
        for op in CmpOp::ALL {
            for needle in [256u32, 70_000, u32::MAX] {
                // Overflowing predicate first, last and alone.
                check_chain(&columns, &[(0, op, needle), (1, CmpOp::Lt, 1 << 31)]);
                check_chain(&columns, &[(1, CmpOp::Ge, 1 << 30), (0, op, needle)]);
                check_chain(&columns, &[(0, op, needle)]);
            }
        }
    }

    #[test]
    fn empty_mask_stops_the_group() {
        // The first predicate matches nothing in any group, so no plane of
        // the second predicate is ever read.
        let values: Vec<u32> = (0..64 * 20).map(|i| 1000 + i).collect();
        let other: Vec<u32> = xorshift(5).take(values.len()).collect();
        let columns = [values, other];
        let first_only = check_chain(&columns, &[(0, CmpOp::Lt, 1000)]);
        let chained = check_chain(&columns, &[(0, CmpOp::Lt, 1000), (1, CmpOp::Ne, 12345)]);
        assert_eq!(chained.plane_groups_read, first_only.plane_groups_read);
        assert_eq!(
            chained.plane_groups_skipped,
            first_only.plane_groups_skipped + 20 * 4,
            "every plane of the second predicate is skipped"
        );
        // An empty chain matches nothing.
        let (out, _) = scan_bytesliced(&[], OutputMode::Count);
        assert_eq!(out.count(), 0);
    }
}
