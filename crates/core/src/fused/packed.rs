//! Fused Table Scan over **bit-packed** columns — the paper's §VII future
//! work implemented: null-suppressed (fixed-width bit-packed) columns
//! participate in the fused chain without being decompressed to memory.
//!
//! * **Driver unpack** (widths ≤ 16 bits): one masked word load per
//!   16-value block, then `vpermd` selects each lane's low word, a second
//!   `vpermd` its successor, and the VBMI2 funnel shift `vpshrdvd`
//!   extracts the value — the Willhalm-style unpack-and-compare pipeline,
//!   fused with the compare. Wider widths unpack the block scalar-side
//!   (still inside the fused loop).
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
#![allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context

use std::arch::x86_64::*;

use fts_simd::model::lane_mask;
use fts_storage::bitpack::{mask_of, PackedColumn};
use fts_storage::{CmpOp, PosList};

use crate::fused::{Stages, MAX_PREDICATES, MERGE16};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

const LANES: usize = 16;

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

// --- kernel ---------------------------------------------------------------

#[inline]
#[target_feature(enable = "avx512f,avx512vl,avx512dq")]
unsafe fn mask_cmp_u32(k: __mmask16, op: CmpOp, a: __m512i, b: __m512i) -> __mmask16 {
    match op {
        CmpOp::Eq => _mm512_mask_cmpeq_epu32_mask(k, a, b),
        CmpOp::Ne => _mm512_mask_cmpneq_epu32_mask(k, a, b),
        CmpOp::Lt => _mm512_mask_cmplt_epu32_mask(k, a, b),
        CmpOp::Le => _mm512_mask_cmple_epu32_mask(k, a, b),
        CmpOp::Gt => _mm512_mask_cmpgt_epu32_mask(k, a, b),
        CmpOp::Ge => _mm512_mask_cmpge_epu32_mask(k, a, b),
    }
}

/// Per-column plumbing the kernel needs. One short-lived value per column
/// per scan, so the variant size gap is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Source<'a> {
    Plain {
        data: &'a [u32],
    },
    Packed {
        words: &'a [u32],
        bits: u32,
        /// Unpack constants for block alignments 0 and 16 bits (odd widths
        /// alternate): word-index vector, word-index+1 vector, bit-offset
        /// vector. Only built for the vector driver path (bits ≤ 16).
        unpack: Option<[UnpackCtl; 2]>,
    },
}

impl Source<'_> {
    /// The column's identity for [`Stages::of`]: its buffer's address and
    /// length.
    fn id(&self) -> (*const u32, usize) {
        match self {
            Source::Plain { data } => (data.as_ptr(), data.len()),
            Source::Packed { words, .. } => (words.as_ptr(), words.len()),
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

struct State<'a> {
    sources: &'a [Source<'a>],
    ops: &'a [CmpOp],
    stages: Stages,
    nsplat: [__m512i; MAX_PREDICATES],
    masks: [__m512i; MAX_PREDICATES],
    plists: [__m512i; MAX_PREDICATES],
    counts: [usize; MAX_PREDICATES],
    out: Vec<u32>,
    total: u64,
}

#[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx512vbmi2,avx2,popcnt")]
unsafe fn push<const EMIT: bool, const RUN: bool>(
    st: &mut State<'_>,
    s: usize,
    fresh: __m512i,
    m: usize,
) {
    if st.counts[s] + m > LANES {
        flush::<EMIT, RUN>(st, s);
        st.plists[s] = fresh;
        st.counts[s] = m;
    } else {
        let ctl = _mm512_loadu_epi32(MERGE16[st.counts[s]].as_ptr() as *const i32);
        st.plists[s] = _mm512_permutex2var_epi32(st.plists[s], ctl, fresh);
        st.counts[s] += m;
    }
    if st.counts[s] == LANES {
        flush::<EMIT, RUN>(st, s);
    }
}

#[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx512vbmi2,avx2,popcnt")]
unsafe fn flush<const EMIT: bool, const RUN: bool>(st: &mut State<'_>, s: usize) {
    let c = st.counts[s];
    if c == 0 {
        return;
    }
    let plist = st.plists[s];
    st.plists[s] = _mm512_setzero_si512();
    st.counts[s] = 0;

    let km = lane_mask(c) as __mmask16;
    let run = if RUN { st.stages.preds(s) } else { s..s + 1 };
    let vals = match &st.sources[run.start] {
        Source::Plain { data } => _mm512_mask_i32gather_epi32::<4>(
            _mm512_setzero_si512(),
            km,
            plist,
            data.as_ptr() as *const i32,
        ),
        Source::Packed { words, bits, .. } => {
            // The §VII challenge: extract packed values at gathered
            // positions. bit = pos * bits; lo = words[bit>>5],
            // hi = words[(bit>>5)+1] (guard word!), val = funnel >> (bit&31).
            let bit = _mm512_mullo_epi32(plist, _mm512_set1_epi32(*bits as i32));
            let widx = _mm512_srli_epi32::<5>(bit);
            let off = _mm512_and_si512(bit, _mm512_set1_epi32(31));
            let base = words.as_ptr() as *const i32;
            let lo = _mm512_mask_i32gather_epi32::<4>(_mm512_setzero_si512(), km, widx, base);
            let widx1 = _mm512_add_epi32(widx, _mm512_set1_epi32(1));
            let hi = _mm512_mask_i32gather_epi32::<4>(_mm512_setzero_si512(), km, widx1, base);
            _mm512_and_si512(_mm512_shrdv_epi32(lo, hi, off), st.masks[run.start])
        }
    };
    let mut k2 = mask_cmp_u32(km, st.ops[run.start], vals, st.nsplat[run.start]);
    for p in run.start + 1..run.end {
        k2 = mask_cmp_u32(k2, st.ops[p], vals, st.nsplat[p]);
    }
    let m2 = (k2 as u32).count_ones() as usize;
    if m2 == 0 {
        return;
    }
    let fresh2 = _mm512_maskz_compress_epi32(k2, plist);
    if s + 1 == st.stages.len() {
        emit::<EMIT>(st, fresh2, m2);
    } else {
        push::<EMIT, RUN>(st, s + 1, fresh2, m2);
    }
}

#[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx512vbmi2,avx2,popcnt")]
unsafe fn emit<const EMIT: bool>(st: &mut State<'_>, fresh: __m512i, m: usize) {
    st.total += m as u64;
    if EMIT {
        let len = st.out.len();
        st.out.reserve(LANES);
        _mm512_storeu_epi32(st.out.as_mut_ptr().add(len) as *mut i32, fresh);
        st.out.set_len(len + m);
    }
}

/// Load and unpack one 16-value block of a packed column (vector path,
/// bits ≤ 16).
#[inline]
#[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx512vbmi2,avx2,popcnt")]
unsafe fn unpack_block(
    words: &[u32],
    bits: u32,
    mask: __m512i,
    ctls: &[UnpackCtl; 2],
    block: usize,
) -> __m512i {
    let base_bit = block as u64 * 16 * bits as u64;
    let base_word = (base_bit / 32) as usize;
    let ctl = &ctls[((base_bit % 32) / 16) as usize];
    // Words this block touches: ceil((align + 16*bits)/32) + 1 ≤ 10 for
    // bits ≤ 16; a masked load never reads past them.
    let align = (base_bit % 32) as u32;
    let wcnt = ((align + 16 * bits).div_ceil(32) + 1).min(16) as usize;
    let w = _mm512_maskz_loadu_epi32(
        lane_mask(wcnt) as __mmask16,
        words.as_ptr().add(base_word) as *const i32,
    );
    let lo = _mm512_permutexvar_epi32(_mm512_loadu_epi32(ctl.idx_lo.as_ptr() as *const i32), w);
    let hi = _mm512_permutexvar_epi32(_mm512_loadu_epi32(ctl.idx_hi.as_ptr() as *const i32), w);
    let off = _mm512_loadu_epi32(ctl.offs.as_ptr() as *const i32);
    _mm512_and_si512(_mm512_shrdv_epi32(lo, hi, off), mask)
}

/// The scan loop; `RUN` compiles in the further compares of same-column
/// runs, so a run-free chain keeps one compare per stage.
#[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx512vbmi2,avx2,popcnt")]
unsafe fn kernel<const EMIT: bool, const RUN: bool>(
    sources: &[Source<'_>],
    ops: &[CmpOp],
    needles: &[u32],
    rows: usize,
    stages: Stages,
) -> (u64, Vec<u32>) {
    let driver_end = stages.preds(0).end;
    let mut st = State {
        sources,
        ops,
        stages,
        nsplat: std::array::from_fn(|i| {
            _mm512_set1_epi32(needles.get(i).copied().unwrap_or(0) as i32)
        }),
        masks: std::array::from_fn(|i| match sources.get(i) {
            Some(Source::Packed { bits, .. }) => _mm512_set1_epi32(mask_of(*bits as u8) as i32),
            _ => _mm512_set1_epi32(-1),
        }),
        plists: [_mm512_setzero_si512(); MAX_PREDICATES],
        counts: [0; MAX_PREDICATES],
        out: Vec::new(),
        total: 0,
    };
    let op0 = ops[0];
    let needle0 = st.nsplat[0];
    let iota = _mm512_loadu_epi32(super::avx512::IOTA16_PUB.as_ptr() as *const i32);
    let mut scalar_buf = [0u32; 16];

    let full_blocks = rows / LANES;
    for blk in 0..full_blocks {
        let v = match &sources[0] {
            Source::Plain { data } => {
                _mm512_loadu_epi32(data.as_ptr().add(blk * LANES) as *const i32)
            }
            Source::Packed {
                words,
                bits,
                unpack: Some(ctls),
            } => unpack_block(words, *bits, st.masks[0], ctls, blk),
            Source::Packed { bits, .. } => {
                // Wide widths (> 16 bits): scalar unpack inside the fused
                // loop. Reconstruct via the column's own accessor-equivalent.
                let Source::Packed { words, .. } = &sources[0] else {
                    unreachable!()
                };
                for (i, slot) in scalar_buf.iter_mut().enumerate() {
                    let bit = (blk * LANES + i) as u64 * *bits as u64;
                    let word = (bit / 32) as usize;
                    let off = (bit % 32) as u32;
                    let w =
                        words[word] as u64 | ((*words.get(word + 1).unwrap_or(&0) as u64) << 32);
                    *slot = (w >> off) as u32 & mask_of(*bits as u8);
                }
                _mm512_loadu_epi32(scalar_buf.as_ptr() as *const i32)
            }
        };
        let mut k = mask_cmp_u32(u16::MAX, op0, v, needle0);
        if RUN {
            for (&op, &needle) in ops.iter().zip(&st.nsplat).take(driver_end).skip(1) {
                k = mask_cmp_u32(k, op, v, needle);
            }
        }
        if k == 0 {
            continue;
        }
        let m = (k as u32).count_ones() as usize;
        let idx = _mm512_add_epi32(iota, _mm512_set1_epi32((blk * LANES) as i32));
        let fresh = _mm512_maskz_compress_epi32(k, idx);
        if stages.len() == 1 {
            emit::<EMIT>(&mut st, fresh, m);
        } else {
            push::<EMIT, RUN>(&mut st, 1, fresh, m);
        }
    }

    // Drain stages; the caller evaluates the tail rows afterwards.
    for s in 1..stages.len() {
        flush::<EMIT, RUN>(&mut st, s);
    }
    (st.total, st.out)
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
    if !fts_simd::has_avx512() || !std::arch::is_x86_feature_detected!("avx512vbmi2") {
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
                sources.push(Source::Plain { data: tp.data });
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
                    bits,
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

    // SAFETY: ISA checked; columns validated; guard word present in every
    // PackedColumn buffer.
    let stages = Stages::of(sources.iter().map(Source::id));
    let (mut total, mut out) = unsafe {
        match (mode, stages.len() < sources.len()) {
            (OutputMode::Count, false) => {
                kernel::<false, false>(&sources, &ops, &needles, rows, stages)
            }
            (OutputMode::Count, true) => {
                kernel::<false, true>(&sources, &ops, &needles, rows, stages)
            }
            (OutputMode::Positions, false) => {
                kernel::<true, false>(&sources, &ops, &needles, rows, stages)
            }
            (OutputMode::Positions, true) => {
                kernel::<true, true>(&sources, &ops, &needles, rows, stages)
            }
        }
    };

    // Tail rows, evaluated row-wise after the kernel's drain.
    for row in rows / LANES * LANES..rows {
        if preds.iter().all(|p| p.matches(row)) {
            total += 1;
            if mode == OutputMode::Positions {
                out.push(row as u32);
            }
        }
    }
    Ok(match mode {
        OutputMode::Count => ScanOutput::Count(total),
        OutputMode::Positions => ScanOutput::Positions(PosList::from_vec(out)),
    })
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
