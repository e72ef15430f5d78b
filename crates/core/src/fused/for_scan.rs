//! Fused scan over **frame-of-reference** columns — compressed-domain
//! scanning v2 (ROADMAP item 4).
//!
//! The unit of work is one 128-value FoR block ([`FOR_BLOCK_LEN`]):
//!
//! 1. **Header resolution**: every FoR predicate is rewritten into the
//!    block's delta domain ([`ForColumn::rewrite`]). A `Never` outcome
//!    skips the whole block without touching its payload (block pruning);
//!    `Always` predicates drop out of the block's chain.
//! 2. **Fused decode + compare**: each FoR column with a surviving
//!    predicate decodes its block's *deltas* once (no frame add — each
//!    literal was shifted instead, that is the compressed-domain
//!    comparison) through the vectorized kernels of `fts-simd::decode` into
//!    a cache-resident scratch block, so a `BETWEEN` compares both ends
//!    against one decode. All predicates — decoded deltas and plain
//!    columns alike — are evaluated as 128-bit match masks combined in
//!    registers.
//! 3. **Output**: `Count` mode accumulates `mask_popcount` over the block
//!    masks and **never materializes a position list** ("Faster
//!    Positional Population Counts", PAPERS.md); `Positions` mode emits
//!    set bits.
//!
//! ISA selection (AVX-512 mask compares vs portable branch-free scalar)
//! goes through `fts_simd::detect()`, so the host-clamped
//! `FTS_FORCE_SIMD` override gates these kernels like every other.

use fts_simd::{decode_for_block, mask_popcount, SimdLevel};
use fts_storage::for_block::{BlockPred, ForColumn, FOR_BLOCK_LEN};
use fts_storage::{CmpOp, NativeType, PosList};

use crate::fused::MAX_PREDICATES;
use crate::pred::{OutputMode, ScanOutput, TypedPred};

/// One predicate of a (possibly) frame-of-reference chain.
#[derive(Debug, Clone, Copy)]
pub enum ForPred<'a> {
    /// Plain `u32` column.
    Plain(TypedPred<'a, u32>),
    /// FoR column compared in the per-block delta domain.
    For {
        /// The FoR column.
        col: &'a ForColumn,
        /// Comparison operator.
        op: CmpOp,
        /// Literal in the *value* domain (rewritten per block).
        needle: u32,
    },
}

impl<'a> ForPred<'a> {
    fn rows(&self) -> usize {
        match self {
            ForPred::Plain(p) => p.data.len(),
            ForPred::For { col, .. } => col.len(),
        }
    }

    /// Row-wise evaluation (the reference path).
    pub fn matches(&self, row: usize) -> bool {
        match self {
            ForPred::Plain(p) => p.matches(row),
            ForPred::For { col, op, needle } => col.get(row).cmp_op(*op, *needle),
        }
    }
}

/// Trivially-correct reference scan for FoR chains.
pub fn scan_for_reference(preds: &[ForPred<'_>]) -> PosList {
    let Some(first) = preds.first() else {
        return PosList::new();
    };
    let rows = first.rows();
    for p in preds {
        assert_eq!(p.rows(), rows, "chain columns must have equal length");
    }
    let mut out = PosList::new();
    for row in 0..rows {
        if preds.iter().all(|p| p.matches(row)) {
            out.push(row as u32);
        }
    }
    out
}

/// Errors of the FoR fused scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForScanError {
    /// Chain longer than [`MAX_PREDICATES`].
    BadChain(usize),
    /// Columns disagree on the row count.
    LengthMismatch,
    /// More rows than a 32-bit position can address.
    ColumnTooLarge,
}

impl std::fmt::Display for ForScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForScanError::BadChain(n) => write!(f, "unsupported chain length {n}"),
            ForScanError::LengthMismatch => write!(f, "columns have different lengths"),
            ForScanError::ColumnTooLarge => write!(f, "rows exceed the 32-bit position range"),
        }
    }
}

impl std::error::Error for ForScanError {}

/// Per-block scan statistics (feed the layout telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForScanStats {
    /// Blocks whose header resolved the whole chain (payload untouched).
    pub blocks_pruned: u64,
    /// Blocks whose payload was decoded and compared.
    pub blocks_scanned: u64,
    /// Block payloads decoded: at most one per FoR column per scanned
    /// block, however many of the column's predicates compare it.
    pub block_decodes: u64,
}

/// A 128-row match mask (two 64-bit words).
type BlockMask = [u64; 2];

fn full_mask(rows: usize) -> BlockMask {
    debug_assert!(rows <= FOR_BLOCK_LEN);
    match rows {
        128 => [u64::MAX; 2],
        r if r >= 64 => [u64::MAX, (1u64 << (r - 64)) - 1],
        r => [(1u64 << r) - 1, 0],
    }
}

/// AND `mask` with `data[i] OP needle` for the first `rows` lanes.
fn and_cmp_mask(mask: &mut BlockMask, data: &[u32], op: CmpOp, needle: u32, rows: usize) {
    #[cfg(target_arch = "x86_64")]
    if fts_simd::detect() == SimdLevel::Avx512 {
        // SAFETY: AVX-512 F+VL+BW+DQ presence established by detect().
        unsafe { and_cmp_mask_avx512(mask, data, op, needle, rows) };
        return;
    }
    and_cmp_mask_scalar(mask, data, op, needle, rows);
}

/// Branch-free scalar mask compare (auto-vectorizes on AVX2 hosts).
fn and_cmp_mask_scalar(mask: &mut BlockMask, data: &[u32], op: CmpOp, needle: u32, rows: usize) {
    for (w, m) in mask.iter_mut().enumerate() {
        if *m == 0 {
            continue;
        }
        let base = w * 64;
        if base >= rows {
            break;
        }
        let n = (rows - base).min(64);
        let mut bits = 0u64;
        let lane = &data[base..base + n];
        match op {
            CmpOp::Eq => {
                for (i, &v) in lane.iter().enumerate() {
                    bits |= ((v == needle) as u64) << i;
                }
            }
            CmpOp::Ne => {
                for (i, &v) in lane.iter().enumerate() {
                    bits |= ((v != needle) as u64) << i;
                }
            }
            CmpOp::Lt => {
                for (i, &v) in lane.iter().enumerate() {
                    bits |= ((v < needle) as u64) << i;
                }
            }
            CmpOp::Le => {
                for (i, &v) in lane.iter().enumerate() {
                    bits |= ((v <= needle) as u64) << i;
                }
            }
            CmpOp::Gt => {
                for (i, &v) in lane.iter().enumerate() {
                    bits |= ((v > needle) as u64) << i;
                }
            }
            CmpOp::Ge => {
                for (i, &v) in lane.iter().enumerate() {
                    bits |= ((v >= needle) as u64) << i;
                }
            }
        }
        *m &= bits;
    }
}

/// 16-lane AVX-512 mask compare, four compares per 64-bit mask word.
///
/// # Safety
/// Requires AVX-512 F+VL+DQ (checked by the caller via `detect()`);
/// `data` must hold at least `rows` values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq")]
#[allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context
unsafe fn and_cmp_mask_avx512(
    mask: &mut BlockMask,
    data: &[u32],
    op: CmpOp,
    needle: u32,
    rows: usize,
) {
    use std::arch::x86_64::*;
    let nsplat = _mm512_set1_epi32(needle as i32);
    let mut lane = 0usize;
    for m in mask.iter_mut() {
        if lane >= rows {
            break;
        }
        if *m == 0 {
            lane += 64;
            continue;
        }
        let mut word = 0u64;
        for part in 0..4usize {
            let at = lane + part * 16;
            if at >= rows {
                break;
            }
            let n = (rows - at).min(16);
            let load = fts_simd::model::lane_mask(n) as __mmask16;
            let v = _mm512_maskz_loadu_epi32(load, data.as_ptr().add(at) as *const i32);
            let k = match op {
                CmpOp::Eq => _mm512_mask_cmpeq_epu32_mask(load, v, nsplat),
                CmpOp::Ne => _mm512_mask_cmpneq_epu32_mask(load, v, nsplat),
                CmpOp::Lt => _mm512_mask_cmplt_epu32_mask(load, v, nsplat),
                CmpOp::Le => _mm512_mask_cmple_epu32_mask(load, v, nsplat),
                CmpOp::Gt => _mm512_mask_cmpgt_epu32_mask(load, v, nsplat),
                CmpOp::Ge => _mm512_mask_cmpge_epu32_mask(load, v, nsplat),
            };
            word |= (k as u64) << (part * 16);
        }
        *m &= word;
        lane += 64;
    }
}

/// Run a fused scan over a chain mixing FoR and plain `u32` columns.
/// Returns the output plus block-pruning statistics.
pub fn fused_scan_for(
    preds: &[ForPred<'_>],
    mode: OutputMode,
) -> Result<(ScanOutput, ForScanStats), ForScanError> {
    if preds.len() > MAX_PREDICATES {
        return Err(ForScanError::BadChain(preds.len()));
    }
    let empty = |mode| match mode {
        OutputMode::Count => ScanOutput::Count(0),
        OutputMode::Positions => ScanOutput::Positions(PosList::new()),
    };
    let Some(first) = preds.first() else {
        return Ok((empty(mode), ForScanStats::default()));
    };
    let rows = first.rows();
    for p in preds {
        if p.rows() != rows {
            return Err(ForScanError::LengthMismatch);
        }
    }
    if rows > i32::MAX as usize {
        return Err(ForScanError::ColumnTooLarge);
    }

    let mut stats = ForScanStats::default();
    let mut total = 0u64;
    let mut out: Vec<u32> = Vec::new();
    // One delta scratch block per FoR column, at the slot of the column's
    // first predicate: the column's other predicates compare against it.
    let buffer_of: Vec<usize> = preds
        .iter()
        .enumerate()
        .map(|(slot, p)| match p {
            ForPred::For { col, .. } => preds[..slot]
                .iter()
                .position(|q| matches!(q, ForPred::For { col: c, .. } if std::ptr::eq(*c, *col)))
                .unwrap_or(slot),
            ForPred::Plain(_) => slot,
        })
        .collect();
    let mut scratch = vec![[0u32; FOR_BLOCK_LEN]; preds.len()];

    let blocks = rows.div_ceil(FOR_BLOCK_LEN);
    'blocks: for b in 0..blocks {
        let start = b * FOR_BLOCK_LEN;
        let rows_b = (rows - start).min(FOR_BLOCK_LEN);
        let mut mask = full_mask(rows_b);
        let mut compared = false;
        // Bit `i`: scratch block `i` holds this block's deltas.
        let mut decoded = 0u32;

        for (slot, p) in preds.iter().enumerate() {
            match p {
                ForPred::Plain(tp) => {
                    and_cmp_mask(
                        &mut mask,
                        &tp.data[start..start + rows_b],
                        tp.op,
                        tp.needle,
                        rows_b,
                    );
                    compared = true;
                }
                ForPred::For { col, op, needle } => match col.rewrite(*op, *needle, b) {
                    BlockPred::Never => {
                        stats.blocks_pruned += 1;
                        continue 'blocks;
                    }
                    BlockPred::Always => {}
                    BlockPred::Cmp(delta) => {
                        let at = buffer_of[slot];
                        let buf = &mut scratch[at][..rows_b];
                        if decoded & (1 << at) == 0 {
                            // Compressed-domain compare: decode raw deltas
                            // (min = 0) and compare against the shifted
                            // literal.
                            let h = col.headers()[b];
                            decode_for_block(&col.words()[h.offset as usize..], h.bits, 0, buf);
                            decoded |= 1 << at;
                            stats.block_decodes += 1;
                        }
                        and_cmp_mask(&mut mask, buf, *op, delta, rows_b);
                        compared = true;
                    }
                },
            }
            if mask == [0, 0] {
                break;
            }
        }
        if compared {
            stats.blocks_scanned += 1;
        } else {
            stats.blocks_pruned += 1; // every predicate was Always
        }

        match mode {
            OutputMode::Count => total += mask_popcount(&mask),
            OutputMode::Positions => {
                for (w, &m) in mask.iter().enumerate() {
                    let mut bits = m;
                    while bits != 0 {
                        let i = bits.trailing_zeros() as usize;
                        out.push((start + w * 64 + i) as u32);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    let output = match mode {
        OutputMode::Count => ScanOutput::Count(total),
        OutputMode::Positions => ScanOutput::Positions(PosList::from_vec(out)),
    };
    Ok((output, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(seed: u64) -> impl Iterator<Item = u32> {
        let mut state = seed | 1;
        std::iter::repeat_with(move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        })
    }

    fn check(preds: &[ForPred<'_>]) {
        let expected = scan_for_reference(preds);
        let (got, _) = fused_scan_for(preds, OutputMode::Positions).unwrap();
        assert_eq!(got.positions().unwrap(), &expected);
        let (got, _) = fused_scan_for(preds, OutputMode::Count).unwrap();
        assert_eq!(got.count(), expected.len() as u64);
    }

    #[test]
    fn single_for_predicate_all_ops() {
        for rows in [0usize, 1, 63, 64, 127, 128, 129, 1000] {
            let values: Vec<u32> = (0..rows as u32).map(|i| 10_000 + i % 200).collect();
            let col = ForColumn::encode(&values);
            for op in CmpOp::ALL {
                for needle in [0u32, 9_999, 10_000, 10_100, 10_199, 10_200, u32::MAX] {
                    let preds = [ForPred::For {
                        col: &col,
                        op,
                        needle,
                    }];
                    check(&preds);
                }
            }
        }
    }

    #[test]
    fn mixed_for_plain_chain() {
        let rows = 777usize;
        let a: Vec<u32> = xorshift(1).take(rows).map(|v| 500_000 + v % 1000).collect();
        let b: Vec<u32> = (0..rows as u32).map(|i| i % 5).collect();
        let col = ForColumn::encode(&a);
        for op in CmpOp::ALL {
            let preds = [
                ForPred::For {
                    col: &col,
                    op,
                    needle: 500_500,
                },
                ForPred::Plain(TypedPred::eq(&b[..], 2)),
            ];
            check(&preds);
        }
    }

    #[test]
    fn a_range_decodes_each_block_once() {
        let rows = 1000usize;
        let values: Vec<u32> = xorshift(11).take(rows).map(|v| 70_000 + v % 900).collect();
        let other: Vec<u32> = xorshift(12).take(rows).map(|v| v % 4096).collect();
        let (a, b) = (ForColumn::encode(&values), ForColumn::encode(&other));
        let range = |lo, hi| {
            [
                ForPred::For {
                    col: &a,
                    op: CmpOp::Ge,
                    needle: lo,
                },
                ForPred::For {
                    col: &b,
                    op: CmpOp::Lt,
                    needle: 4000,
                },
                ForPred::For {
                    col: &a,
                    op: CmpOp::Le,
                    needle: hi,
                },
            ]
        };
        let preds = range(70_100, 70_800);
        check(&preds);
        let (_, stats) = fused_scan_for(&preds, OutputMode::Count).unwrap();
        // `a`'s two ends share one decode per block; `b` adds its own.
        assert_eq!(stats.blocks_scanned, rows.div_ceil(FOR_BLOCK_LEN) as u64);
        assert!(stats.block_decodes <= 2 * stats.blocks_scanned, "{stats:?}");
        // A range no block can hold resolves from the headers alone.
        let (got, stats) = fused_scan_for(&range(80_000, 90_000), OutputMode::Count).unwrap();
        assert_eq!((got.count(), stats.block_decodes), (0, 0));
    }

    #[test]
    fn three_for_columns() {
        let rows = 513usize;
        let cols: Vec<ForColumn> = (0..3u64)
            .map(|s| {
                let v: Vec<u32> = xorshift(s + 5).take(rows).map(|v| v % 4096).collect();
                ForColumn::encode(&v)
            })
            .collect();
        let preds: Vec<ForPred<'_>> = cols
            .iter()
            .map(|col| ForPred::For {
                col,
                op: CmpOp::Le,
                needle: 2048,
            })
            .collect();
        check(&preds);
    }

    #[test]
    fn block_pruning_fires_on_clustered_data() {
        // Values ascend block by block; a selective range predicate can
        // only match inside a few blocks — the rest resolve from headers.
        let values: Vec<u32> = (0..4096u32).collect();
        let col = ForColumn::encode(&values);
        let preds = [ForPred::For {
            col: &col,
            op: CmpOp::Lt,
            needle: 100,
        }];
        let (got, stats) = fused_scan_for(&preds, OutputMode::Count).unwrap();
        assert_eq!(got.count(), 100);
        assert!(
            stats.blocks_pruned >= 30,
            "expected most of the 32 blocks pruned, got {stats:?}"
        );
        check(&preds);
    }

    #[test]
    fn count_never_materializes() {
        let values: Vec<u32> = xorshift(3).take(10_000).map(|v| v % 100).collect();
        let col = ForColumn::encode(&values);
        let preds = [ForPred::For {
            col: &col,
            op: CmpOp::Eq,
            needle: 7,
        }];
        let (got, _) = fused_scan_for(&preds, OutputMode::Count).unwrap();
        assert!(matches!(got, ScanOutput::Count(_)));
        let expect = values.iter().filter(|&&v| v == 7).count() as u64;
        assert_eq!(got.count(), expect);
    }

    #[test]
    fn validation() {
        let a = ForColumn::encode(&[1, 2, 3]);
        let b: Vec<u32> = vec![0; 5];
        let preds = [
            ForPred::For {
                col: &a,
                op: CmpOp::Eq,
                needle: 1,
            },
            ForPred::Plain(TypedPred::eq(&b[..], 0)),
        ];
        assert_eq!(
            fused_scan_for(&preds, OutputMode::Count).unwrap_err(),
            ForScanError::LengthMismatch
        );
        assert_eq!(fused_scan_for(&[], OutputMode::Count).unwrap().0.count(), 0);
    }
}
