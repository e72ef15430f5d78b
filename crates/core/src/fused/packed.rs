//! Fused Table Scan over **bit-packed** columns — the paper's §VII future
//! work implemented: null-suppressed (fixed-width bit-packed) columns
//! participate in the fused chain without being decompressed to memory.
//! The kernel is the crate's one fused-scan skeleton stamped for the packed
//! family: 16 lanes of plain or bit-packed `u32` columns on AVX-512 +
//! VBMI2. Only its column fetch differs from the 512-bit `u32` kernel.
//!
//! * **Driver unpack** (widths ≤ 16 bits): one masked word load per
//!   16-value block, then `vpermd` selects each lane's low word, a second
//!   `vpermd` its successor, and the VBMI2 funnel shift `vpshrdvd`
//!   extracts the value — the Willhalm-style unpack-and-compare pipeline,
//!   fused with the compare. Wider widths unpack the block scalar-side
//!   (still inside the fused loop). The tail block unpacks only the rows
//!   that exist.
//! * **Gather-side extraction** — the challenge the paper names: the
//!   position list is multiplied by the bit width, split into word index
//!   and bit offset, *two* masked `vpgatherdd`s fetch each value's word
//!   pair (the pack buffer's guard word makes `word+1` always readable),
//!   and the same funnel shift extracts the value before the masked
//!   compare.
//!
//! Values are unsigned (the packed domain); literals above the width's
//! maximum are resolved to constant outcomes before the kernel runs.

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)] // one primitive = one intrinsic sequence

use std::arch::x86_64::*;

use fts_storage::bitpack::{mask_of, PackedColumn};
use fts_storage::{CmpOp, PosList};

use crate::fused::avx512::Reg32;
use crate::fused::skeleton::{fused_skeleton, Column, Family};
use crate::fused::MAX_PREDICATES;
use crate::pred::{OutputMode, ScanOutput, TypedPred};

fused_skeleton!("avx512f,avx512vl,avx512bw,avx512dq,avx512vbmi2,avx2,popcnt");

/// One predicate of a (possibly) packed chain.
#[derive(Debug, Clone, Copy)]
pub enum PackedPred<'a> {
    /// Plain `u32` column.
    Plain(TypedPred<'a, u32>),
    /// Bit-packed column compared in the packed (unsigned) domain.
    Packed {
        /// The packed column.
        col: &'a PackedColumn,
        /// Comparison operator.
        op: CmpOp,
        /// Literal (any `u32`; out-of-domain literals resolve statically).
        needle: u32,
    },
}

impl<'a> PackedPred<'a> {
    fn rows(&self) -> usize {
        match self {
            PackedPred::Plain(p) => p.data.len(),
            PackedPred::Packed { col, .. } => col.len(),
        }
    }

    /// Row-wise evaluation (the reference path).
    pub fn matches(&self, row: usize) -> bool {
        use fts_storage::NativeType;
        match self {
            PackedPred::Plain(p) => p.matches(row),
            PackedPred::Packed { col, op, needle } => col.get(row).cmp_op(*op, *needle),
        }
    }
}

/// Trivially-correct reference scan for packed chains.
pub fn scan_packed_reference(preds: &[PackedPred<'_>]) -> PosList {
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

/// A literal resolved against a packed width.
enum Resolved {
    Never,
    Always,
    Keep,
}

fn resolve(op: CmpOp, needle: u32, bits: u8) -> Resolved {
    if needle <= mask_of(bits) {
        return Resolved::Keep;
    }
    // Every stored value is <= mask < needle.
    match op {
        CmpOp::Eq | CmpOp::Gt | CmpOp::Ge => Resolved::Never,
        CmpOp::Ne | CmpOp::Lt | CmpOp::Le => Resolved::Always,
    }
}

/// A column of a packed chain, with what the kernel needs to read it. One
/// short-lived value per column per scan, so the variant size gap is
/// irrelevant.
#[allow(clippy::large_enum_variant)]
enum Source<'a> {
    Plain(&'a [u32]),
    Packed {
        /// The packed words, guard word included.
        words: &'a [u32],
        rows: usize,
        bits: u32,
        /// `mask_of(bits)`: clears the bits above a value.
        mask: u32,
        /// Unpack constants for block alignments 0 and 16 bits (odd widths
        /// alternate): word-index vector, word-index+1 vector, bit-offset
        /// vector. Only built for the vector driver path (bits ≤ 16).
        unpack: Option<[UnpackCtl; 2]>,
    },
}

impl Column for &Source<'_> {
    fn rows(self) -> usize {
        match *self {
            Source::Plain(data) => data.len(),
            Source::Packed { rows, .. } => rows,
        }
    }

    fn id(self) -> (usize, usize) {
        match *self {
            Source::Plain(data) => data.id(),
            Source::Packed { words, .. } => words.id(),
        }
    }
}

#[derive(Clone, Copy)]
struct UnpackCtl {
    idx_lo: [u32; 16],
    idx_hi: [u32; 16],
    offs: [u32; 16],
}

fn unpack_ctl(bits: u32, align: u32) -> UnpackCtl {
    let mut idx_lo = [0u32; 16];
    let mut idx_hi = [0u32; 16];
    let mut offs = [0u32; 16];
    for i in 0..16u32 {
        let bit = align + i * bits;
        idx_lo[i as usize] = bit / 32;
        idx_hi[i as usize] = bit / 32 + 1;
        offs[i as usize] = bit % 32;
    }
    UnpackCtl {
        idx_lo,
        idx_hi,
        offs,
    }
}

/// Unpack rows `row..row + n` of a packed column of at most 16 bits, `row`
/// a multiple of 16 (vector driver path).
///
/// # Safety
///
/// The host runs AVX-512 VBMI2, and `words` holds the rows up to `row + n`
/// plus the column's guard word.
#[inline(always)]
unsafe fn unpack_block(
    words: &[u32],
    bits: u32,
    mask: u32,
    ctls: &[UnpackCtl; 2],
    row: usize,
    n: usize,
) -> __m512i {
    let base_bit = row as u64 * bits as u64;
    let base_word = (base_bit / 32) as usize;
    let align = (base_bit % 32) as u32;
    let ctl = &ctls[(align / 16) as usize];
    // The words the n values touch plus the one after: at most 10 for
    // bits ≤ 16, the last of them at most the column's guard word. The
    // masked load reads no further.
    let wcnt = (align + n as u32 * bits).div_ceil(32) as usize + 1;
    debug_assert!(
        base_word + wcnt <= words.len(),
        "unpack past the guard word"
    );
    let w = __m512i::load(words.as_ptr().add(base_word), wcnt);
    let lo = _mm512_permutexvar_epi32(_mm512_loadu_epi32(ctl.idx_lo.as_ptr() as *const i32), w);
    let hi = _mm512_permutexvar_epi32(_mm512_loadu_epi32(ctl.idx_hi.as_ptr() as *const i32), w);
    let off = _mm512_loadu_epi32(ctl.offs.as_ptr() as *const i32);
    _mm512_and_si512(
        _mm512_shrdv_epi32(lo, hi, off),
        _mm512_set1_epi32(mask as i32),
    )
}

/// The packed family: 16 lanes of `u32`, each column plain or bit-packed.
struct Packed;

impl Family for Packed {
    type Col<'a> = &'a Source<'a>;
    type Elem = u32;
    type Vals = __m512i;
    type List = __m512i;

    fn available() -> bool {
        fts_simd::has_avx512() && std::arch::is_x86_feature_detected!("avx512vbmi2")
    }

    #[inline(always)]
    unsafe fn load(col: &Source<'_>, row: usize, n: usize) -> __m512i {
        match *col {
            Source::Plain(data) => __m512i::load(data.as_ptr().add(row), n),
            Source::Packed {
                words,
                bits,
                mask,
                unpack: Some(ref ctls),
                ..
            } => unpack_block(words, bits, mask, ctls, row, n),
            Source::Packed {
                words, bits, mask, ..
            } => {
                // Wide widths (> 16 bits): scalar unpack inside the fused
                // loop.
                let mut buf = [0u32; 16];
                for (i, slot) in buf.iter_mut().enumerate().take(n) {
                    let bit = (row + i) as u64 * bits as u64;
                    let word = (bit / 32) as usize;
                    let off = (bit % 32) as u32;
                    let w =
                        words[word] as u64 | ((*words.get(word + 1).unwrap_or(&0) as u64) << 32);
                    *slot = (w >> off) as u32 & mask;
                }
                _mm512_loadu_epi32(buf.as_ptr() as *const i32)
            }
        }
    }

    #[inline(always)]
    unsafe fn gather(col: &Source<'_>, list: __m512i, k: u32) -> __m512i {
        match *col {
            Source::Plain(data) => __m512i::gather(data.as_ptr(), list, k),
            Source::Packed {
                words, bits, mask, ..
            } => {
                // The §VII challenge: extract packed values at gathered
                // positions. bit = pos * bits; lo = words[bit>>5],
                // hi = words[(bit>>5)+1] (guard word!), val = funnel >> (bit&31).
                let bit = _mm512_mullo_epi32(list, _mm512_set1_epi32(bits as i32));
                let widx = _mm512_srli_epi32::<5>(bit);
                let off = _mm512_and_si512(bit, _mm512_set1_epi32(31));
                let lo = __m512i::gather(words.as_ptr(), widx, k);
                let widx1 = _mm512_add_epi32(widx, _mm512_set1_epi32(1));
                let hi = __m512i::gather(words.as_ptr(), widx1, k);
                _mm512_and_si512(
                    _mm512_shrdv_epi32(lo, hi, off),
                    _mm512_set1_epi32(mask as i32),
                )
            }
        }
    }
}

/// Errors of the packed fused scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedScanError {
    /// Chain longer than [`MAX_PREDICATES`] or empty with packed entries.
    BadChain(usize),
    /// Columns disagree on the row count.
    LengthMismatch,
    /// `rows * bits` of a packed column exceeds the 32-bit bit-address
    /// range the vectorized extraction uses.
    ColumnTooLarge,
    /// The host lacks AVX-512 VBMI2.
    IsaUnavailable,
}

impl std::fmt::Display for PackedScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackedScanError::BadChain(n) => write!(f, "unsupported chain length {n}"),
            PackedScanError::LengthMismatch => write!(f, "columns have different lengths"),
            PackedScanError::ColumnTooLarge => {
                write!(f, "rows x bits exceeds the 32-bit bit-address range")
            }
            PackedScanError::IsaUnavailable => write!(f, "AVX-512 VBMI2 unavailable"),
        }
    }
}

impl std::error::Error for PackedScanError {}

/// Whether the packed kernel may be chosen: AVX-512 within the
/// `FTS_FORCE_SIMD` cap ([`fts_simd::detect()`], like every other kernel's
/// gate) plus VBMI2 on this host.
pub fn packed_kernel_available() -> bool {
    fts_simd::detect() >= fts_simd::SimdLevel::Avx512
        && std::arch::is_x86_feature_detected!("avx512vbmi2")
}

/// Run a fused scan over a chain that may mix plain and bit-packed `u32`
/// columns.
pub fn fused_scan_packed(
    preds: &[PackedPred<'_>],
    mode: OutputMode,
) -> Result<ScanOutput, PackedScanError> {
    if preds.len() > MAX_PREDICATES {
        return Err(PackedScanError::BadChain(preds.len()));
    }
    if !Packed::available() {
        return Err(PackedScanError::IsaUnavailable);
    }
    let empty = match mode {
        OutputMode::Count => ScanOutput::Count(0),
        OutputMode::Positions => ScanOutput::Positions(PosList::new()),
    };
    let Some(first) = preds.first() else {
        return Ok(empty);
    };
    let rows = first.rows();
    for p in preds {
        if p.rows() != rows {
            return Err(PackedScanError::LengthMismatch);
        }
    }
    if rows > i32::MAX as usize {
        return Err(PackedScanError::ColumnTooLarge);
    }

    // Resolve out-of-domain literals; drop Always predicates, short-circuit
    // on Never.
    let mut sources = Vec::with_capacity(preds.len());
    let mut ops = Vec::with_capacity(preds.len());
    let mut needles = Vec::with_capacity(preds.len());
    for p in preds {
        match p {
            PackedPred::Plain(tp) => {
                sources.push(Source::Plain(tp.data));
                ops.push(tp.op);
                needles.push(tp.needle);
            }
            PackedPred::Packed { col, op, needle } => {
                match resolve(*op, *needle, col.bits()) {
                    Resolved::Never => return Ok(empty),
                    Resolved::Always => continue,
                    Resolved::Keep => {}
                }
                if rows as u64 * col.bits() as u64 >= 1 << 31 {
                    return Err(PackedScanError::ColumnTooLarge);
                }
                let bits = col.bits() as u32;
                let unpack = (bits <= 16).then(|| [unpack_ctl(bits, 0), unpack_ctl(bits, 16)]);
                sources.push(Source::Packed {
                    words: col.words(),
                    rows,
                    bits,
                    mask: mask_of(col.bits()),
                    unpack,
                });
                ops.push(*op);
                needles.push(*needle);
            }
        }
    }

    // All predicates resolved to Always: everything matches.
    if sources.is_empty() {
        return Ok(match mode {
            OutputMode::Count => ScanOutput::Count(rows as u64),
            OutputMode::Positions => ScanOutput::Positions((0..rows as u32).collect()),
        });
    }

    let cols: Vec<&Source<'_>> = sources.iter().collect();
    Ok(scan::<Packed>(&cols, &ops, &needles, mode))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skip() -> bool {
        if !packed_kernel_available() {
            eprintln!("skipping: no AVX-512 VBMI2 on this host");
            return true;
        }
        false
    }

    fn check(preds: &[PackedPred<'_>]) {
        let expected = scan_packed_reference(preds);
        let got = fused_scan_packed(preds, OutputMode::Positions).unwrap();
        assert_eq!(got.positions().unwrap(), &expected);
        let got = fused_scan_packed(preds, OutputMode::Count).unwrap();
        assert_eq!(got.count(), expected.len() as u64);
    }

    #[test]
    fn packed_driver_all_narrow_widths() {
        if skip() {
            return;
        }
        for bits in 1..=16u8 {
            let mask = mask_of(bits);
            let values: Vec<u32> = (0..997u32)
                .map(|i| i.wrapping_mul(2654435761) & mask)
                .collect();
            let col = PackedColumn::pack(&values, bits).unwrap();
            let plain: Vec<u32> = (0..997).map(|i| i % 3).collect();
            for op in CmpOp::ALL {
                let preds = [
                    PackedPred::Packed {
                        col: &col,
                        op,
                        needle: mask / 2,
                    },
                    PackedPred::Plain(TypedPred::eq(&plain[..], 1)),
                ];
                check(&preds);
            }
        }
    }

    #[test]
    fn packed_driver_wide_widths_scalar_unpack() {
        if skip() {
            return;
        }
        for bits in [17u8, 23, 30, 32] {
            let mask = mask_of(bits);
            let values: Vec<u32> = (0..500u32).map(|i| i.wrapping_mul(40503) & mask).collect();
            let col = PackedColumn::pack(&values, bits).unwrap();
            let preds = [PackedPred::Packed {
                col: &col,
                op: CmpOp::Gt,
                needle: mask / 3,
            }];
            check(&preds);
        }
    }

    #[test]
    fn packed_follow_up_gather_extraction() {
        if skip() {
            return;
        }
        // The §VII challenge case: a plain driver, a packed follow-up.
        for bits in [3u8, 7, 11, 16, 21, 29] {
            let mask = mask_of(bits);
            let a: Vec<u32> = (0..1203).map(|i| i % 5).collect();
            let values: Vec<u32> = (0..1203u32)
                .map(|i| i.wrapping_mul(2246822519) & mask)
                .collect();
            let col = PackedColumn::pack(&values, bits).unwrap();
            for op in CmpOp::ALL {
                let preds = [
                    PackedPred::Plain(TypedPred::eq(&a[..], 2)),
                    PackedPred::Packed {
                        col: &col,
                        op,
                        needle: mask / 2,
                    },
                ];
                check(&preds);
            }
        }
    }

    #[test]
    fn fully_packed_three_predicate_chain() {
        if skip() {
            return;
        }
        let cols: Vec<PackedColumn> = [4u8, 9, 13]
            .iter()
            .map(|&bits| {
                let mask = mask_of(bits);
                let values: Vec<u32> = (0..800u32)
                    .map(|i| i.wrapping_mul(9973 + bits as u32) & mask)
                    .collect();
                PackedColumn::pack(&values, bits).unwrap()
            })
            .collect();
        let preds: Vec<PackedPred<'_>> = cols
            .iter()
            .map(|col| PackedPred::Packed {
                col,
                op: CmpOp::Le,
                needle: mask_of(col.bits()) / 2,
            })
            .collect();
        check(&preds);
    }

    #[test]
    fn out_of_domain_literals_resolve_statically() {
        if skip() {
            return;
        }
        let values: Vec<u32> = (0..100).map(|i| i % 8).collect();
        let col = PackedColumn::pack(&values, 3).unwrap();
        // needle 100 > 7: Eq never matches, Ne/Lt always match.
        let never = [PackedPred::Packed {
            col: &col,
            op: CmpOp::Eq,
            needle: 100,
        }];
        assert_eq!(
            fused_scan_packed(&never, OutputMode::Count)
                .unwrap()
                .count(),
            0
        );
        let always = [PackedPred::Packed {
            col: &col,
            op: CmpOp::Lt,
            needle: 100,
        }];
        assert_eq!(
            fused_scan_packed(&always, OutputMode::Count)
                .unwrap()
                .count(),
            100
        );
        let pos = fused_scan_packed(&always, OutputMode::Positions).unwrap();
        assert_eq!(pos.positions().unwrap().len(), 100);
        check(&never);
        check(&always);
    }

    #[test]
    fn tails_and_empty() {
        if skip() {
            return;
        }
        for rows in [0usize, 1, 15, 16, 17, 100] {
            let values: Vec<u32> = (0..rows as u32).map(|i| i % 4).collect();
            let col = PackedColumn::pack(&values, 2).unwrap();
            let preds = [PackedPred::Packed {
                col: &col,
                op: CmpOp::Eq,
                needle: 1,
            }];
            check(&preds);
        }
        assert_eq!(
            fused_scan_packed(&[], OutputMode::Count).unwrap().count(),
            0
        );
    }

    #[test]
    fn validation_errors() {
        if skip() {
            return;
        }
        let a = PackedColumn::pack(&[1, 2], 3).unwrap();
        let b: Vec<u32> = vec![0; 5];
        let preds = [
            PackedPred::Packed {
                col: &a,
                op: CmpOp::Eq,
                needle: 1,
            },
            PackedPred::Plain(TypedPred::eq(&b[..], 0)),
        ];
        assert_eq!(
            fused_scan_packed(&preds, OutputMode::Count),
            Err(PackedScanError::LengthMismatch)
        );
    }
}
