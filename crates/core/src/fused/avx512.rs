//! AVX-512 Fused Table Scan kernels (paper §III, Fig. 3).
//!
//! One kernel per (element kind × register width). All nine use the same
//! engine skeleton as [`crate::fused::scalar`]; the instruction mapping is
//! exactly the paper's:
//!
//! | step | instruction |
//! |------|-------------|
//! | block load            | `vmovdqu32` (`_mm*_loadu_epi32`), masked for the tail |
//! | driver compare        | `vpcmpud`/`vpcmpd`/`vcmpps` → k-mask |
//! | offsets → position list | `vpcompressd` (`_mm*_maskz_compress_epi32`) |
//! | append to list        | `vpermt2d` (`_mm*_permutex2var_epi32`) with a per-length control |
//! | follow-up fetch       | `vpgatherdd` masked (`_mm*_mmask_i32gather_epi32`) |
//! | follow-up compare     | masked `vpcmpud`/… keeping the bitmask in `k` registers |
//!
//! Values are carried in integer registers regardless of element kind —
//! `f32` only reinterprets the lanes at the compare (`vcmpps` on the same
//! bits), so the whole position-list machinery is shared.
//!
//! The safe wrappers panic unless [`fts_simd::has_avx512`] holds; the
//! engine layer ([`crate::engine`]) routes around that.

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context

use std::arch::x86_64::*;

use fts_simd::has_avx512;
use fts_storage::{CmpOp, NativeType, PosList};

use crate::fused::{Stages, MAX_PREDICATES, MERGE16, MERGE4, MERGE8};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

/// 32-bit element kinds the kernels support: the lane bits plus which
/// compare family interprets them.
pub trait Elem32: NativeType {
    /// The lane's raw bits as `i32` (what `vpbroadcastd` wants).
    fn bits(self) -> i32;
}

impl Elem32 for u32 {
    #[inline(always)]
    fn bits(self) -> i32 {
        self as i32
    }
}

impl Elem32 for i32 {
    #[inline(always)]
    fn bits(self) -> i32 {
        self
    }
}

impl Elem32 for f32 {
    #[inline(always)]
    fn bits(self) -> i32 {
        self.to_bits() as i32
    }
}

static IOTA4: [u32; 4] = [0, 1, 2, 3];
static IOTA8: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
/// Public iota table reused by the mixed-width kernel.
pub static IOTA16_PUB: [u32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
static IOTA16: [u32; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

// --- compare dispatch macros -------------------------------------------
// A `match` over a loop-invariant `CmpOp` compiles to one perfectly
// predicted branch; the JIT backend in `fts-jit` removes even that.

macro_rules! def_int_cmp {
    ($cmp:ident, $mask_cmp:ident, $vec:ty, $mask:ty,
     $eq:ident, $ne:ident, $lt:ident, $le:ident, $gt:ident, $ge:ident,
     $meq:ident, $mne:ident, $mlt:ident, $mle:ident, $mgt:ident, $mge:ident) => {
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx512dq")]
        unsafe fn $cmp(op: CmpOp, a: $vec, b: $vec) -> $mask {
            match op {
                CmpOp::Eq => $eq(a, b),
                CmpOp::Ne => $ne(a, b),
                CmpOp::Lt => $lt(a, b),
                CmpOp::Le => $le(a, b),
                CmpOp::Gt => $gt(a, b),
                CmpOp::Ge => $ge(a, b),
            }
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx512dq")]
        unsafe fn $mask_cmp(k: $mask, op: CmpOp, a: $vec, b: $vec) -> $mask {
            match op {
                CmpOp::Eq => $meq(k, a, b),
                CmpOp::Ne => $mne(k, a, b),
                CmpOp::Lt => $mlt(k, a, b),
                CmpOp::Le => $mle(k, a, b),
                CmpOp::Gt => $mgt(k, a, b),
                CmpOp::Ge => $mge(k, a, b),
            }
        }
    };
}

def_int_cmp!(
    cmp_u32_128,
    mask_cmp_u32_128,
    __m128i,
    __mmask8,
    _mm_cmpeq_epu32_mask,
    _mm_cmpneq_epu32_mask,
    _mm_cmplt_epu32_mask,
    _mm_cmple_epu32_mask,
    _mm_cmpgt_epu32_mask,
    _mm_cmpge_epu32_mask,
    _mm_mask_cmpeq_epu32_mask,
    _mm_mask_cmpneq_epu32_mask,
    _mm_mask_cmplt_epu32_mask,
    _mm_mask_cmple_epu32_mask,
    _mm_mask_cmpgt_epu32_mask,
    _mm_mask_cmpge_epu32_mask
);
def_int_cmp!(
    cmp_u32_256,
    mask_cmp_u32_256,
    __m256i,
    __mmask8,
    _mm256_cmpeq_epu32_mask,
    _mm256_cmpneq_epu32_mask,
    _mm256_cmplt_epu32_mask,
    _mm256_cmple_epu32_mask,
    _mm256_cmpgt_epu32_mask,
    _mm256_cmpge_epu32_mask,
    _mm256_mask_cmpeq_epu32_mask,
    _mm256_mask_cmpneq_epu32_mask,
    _mm256_mask_cmplt_epu32_mask,
    _mm256_mask_cmple_epu32_mask,
    _mm256_mask_cmpgt_epu32_mask,
    _mm256_mask_cmpge_epu32_mask
);
def_int_cmp!(
    cmp_u32_512,
    mask_cmp_u32_512,
    __m512i,
    __mmask16,
    _mm512_cmpeq_epu32_mask,
    _mm512_cmpneq_epu32_mask,
    _mm512_cmplt_epu32_mask,
    _mm512_cmple_epu32_mask,
    _mm512_cmpgt_epu32_mask,
    _mm512_cmpge_epu32_mask,
    _mm512_mask_cmpeq_epu32_mask,
    _mm512_mask_cmpneq_epu32_mask,
    _mm512_mask_cmplt_epu32_mask,
    _mm512_mask_cmple_epu32_mask,
    _mm512_mask_cmpgt_epu32_mask,
    _mm512_mask_cmpge_epu32_mask
);

def_int_cmp!(
    cmp_i32_128,
    mask_cmp_i32_128,
    __m128i,
    __mmask8,
    _mm_cmpeq_epi32_mask,
    _mm_cmpneq_epi32_mask,
    _mm_cmplt_epi32_mask,
    _mm_cmple_epi32_mask,
    _mm_cmpgt_epi32_mask,
    _mm_cmpge_epi32_mask,
    _mm_mask_cmpeq_epi32_mask,
    _mm_mask_cmpneq_epi32_mask,
    _mm_mask_cmplt_epi32_mask,
    _mm_mask_cmple_epi32_mask,
    _mm_mask_cmpgt_epi32_mask,
    _mm_mask_cmpge_epi32_mask
);
def_int_cmp!(
    cmp_i32_256,
    mask_cmp_i32_256,
    __m256i,
    __mmask8,
    _mm256_cmpeq_epi32_mask,
    _mm256_cmpneq_epi32_mask,
    _mm256_cmplt_epi32_mask,
    _mm256_cmple_epi32_mask,
    _mm256_cmpgt_epi32_mask,
    _mm256_cmpge_epi32_mask,
    _mm256_mask_cmpeq_epi32_mask,
    _mm256_mask_cmpneq_epi32_mask,
    _mm256_mask_cmplt_epi32_mask,
    _mm256_mask_cmple_epi32_mask,
    _mm256_mask_cmpgt_epi32_mask,
    _mm256_mask_cmpge_epi32_mask
);
def_int_cmp!(
    cmp_i32_512,
    mask_cmp_i32_512,
    __m512i,
    __mmask16,
    _mm512_cmpeq_epi32_mask,
    _mm512_cmpneq_epi32_mask,
    _mm512_cmplt_epi32_mask,
    _mm512_cmple_epi32_mask,
    _mm512_cmpgt_epi32_mask,
    _mm512_cmpge_epi32_mask,
    _mm512_mask_cmpeq_epi32_mask,
    _mm512_mask_cmpneq_epi32_mask,
    _mm512_mask_cmplt_epi32_mask,
    _mm512_mask_cmple_epi32_mask,
    _mm512_mask_cmpgt_epi32_mask,
    _mm512_mask_cmpge_epi32_mask
);

macro_rules! def_f32_cmp {
    ($cmp:ident, $mask_cmp:ident, $vec:ty, $mask:ty, $cast:ident, $cmpfn:ident, $mask_cmpfn:ident) => {
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx512dq")]
        unsafe fn $cmp(op: CmpOp, a: $vec, b: $vec) -> $mask {
            let (fa, fb) = ($cast(a), $cast(b));
            // Ordered, quiet predicates: NaN lanes compare false for every
            // operator, matching `NativeType::cmp_op`.
            match op {
                CmpOp::Eq => $cmpfn::<_CMP_EQ_OQ>(fa, fb),
                CmpOp::Ne => $cmpfn::<_CMP_NEQ_OQ>(fa, fb),
                CmpOp::Lt => $cmpfn::<_CMP_LT_OS>(fa, fb),
                CmpOp::Le => $cmpfn::<_CMP_LE_OS>(fa, fb),
                CmpOp::Gt => $cmpfn::<_CMP_GT_OS>(fa, fb),
                CmpOp::Ge => $cmpfn::<_CMP_GE_OS>(fa, fb),
            }
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx512dq")]
        unsafe fn $mask_cmp(k: $mask, op: CmpOp, a: $vec, b: $vec) -> $mask {
            let (fa, fb) = ($cast(a), $cast(b));
            match op {
                CmpOp::Eq => $mask_cmpfn::<_CMP_EQ_OQ>(k, fa, fb),
                CmpOp::Ne => $mask_cmpfn::<_CMP_NEQ_OQ>(k, fa, fb),
                CmpOp::Lt => $mask_cmpfn::<_CMP_LT_OS>(k, fa, fb),
                CmpOp::Le => $mask_cmpfn::<_CMP_LE_OS>(k, fa, fb),
                CmpOp::Gt => $mask_cmpfn::<_CMP_GT_OS>(k, fa, fb),
                CmpOp::Ge => $mask_cmpfn::<_CMP_GE_OS>(k, fa, fb),
            }
        }
    };
}

def_f32_cmp!(
    cmp_f32_128,
    mask_cmp_f32_128,
    __m128i,
    __mmask8,
    _mm_castsi128_ps,
    _mm_cmp_ps_mask,
    _mm_mask_cmp_ps_mask
);
def_f32_cmp!(
    cmp_f32_256,
    mask_cmp_f32_256,
    __m256i,
    __mmask8,
    _mm256_castsi256_ps,
    _mm256_cmp_ps_mask,
    _mm256_mask_cmp_ps_mask
);
def_f32_cmp!(
    cmp_f32_512,
    mask_cmp_f32_512,
    __m512i,
    __mmask16,
    _mm512_castsi512_ps,
    _mm512_cmp_ps_mask,
    _mm512_mask_cmp_ps_mask
);

// --- the kernel skeleton ------------------------------------------------

macro_rules! avx512_kernel {
    ($modname:ident, $elem:ty, $lanes:expr, $vec:ty, $mask:ty,
     $loadu:ident, $maskz_loadu:ident, $storeu:ident, $set1:ident, $setzero:ident,
     $maskz_compress:ident, $permutex2var:ident, $add:ident,
     $iota:ident, $merge:ident,
     $cmp:ident, $mask_cmp:ident,
     |$gsrc:ident, $gk:ident, $gidx:ident, $gbase:ident| $gather:expr) => {
        /// One width × element-kind instantiation of the fused kernel.
        pub mod $modname {
            use super::*;

            /// Lanes per register.
            pub const LANES: usize = $lanes;

            struct State<'a> {
                cols: &'a [&'a [$elem]],
                ops: &'a [CmpOp],
                stages: Stages,
                nsplat: [$vec; MAX_PREDICATES],
                plists: [$vec; MAX_PREDICATES],
                counts: [usize; MAX_PREDICATES],
                out: Vec<u32>,
                total: u64,
            }

            /// Append `fresh[..m]` (left-aligned, zero-padded) to follower
            /// stage `s` (1-based).
            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn push<const EMIT: bool, const RUN: bool>(
                st: &mut State<'_>,
                s: usize,
                fresh: $vec,
                m: usize,
            ) {
                if st.counts[s] + m > LANES {
                    // Process the incomplete list first, then start a new
                    // list with the batch (paper §III).
                    flush::<EMIT, RUN>(st, s);
                    st.plists[s] = fresh;
                    st.counts[s] = m;
                } else {
                    let ctl = $loadu($merge[st.counts[s]].as_ptr() as *const i32);
                    st.plists[s] = $permutex2var(st.plists[s], ctl, fresh);
                    st.counts[s] += m;
                }
                if st.counts[s] == LANES {
                    flush::<EMIT, RUN>(st, s);
                }
            }

            /// Gather the pending positions of stage `s` once and compare
            /// them against each predicate of its run under mask,
            /// forwarding survivors to stage `s + 1` (or the output).
            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn flush<const EMIT: bool, const RUN: bool>(st: &mut State<'_>, s: usize) {
                let c = st.counts[s];
                if c == 0 {
                    return;
                }
                let plist = st.plists[s];
                st.plists[s] = $setzero();
                st.counts[s] = 0;

                let km = (fts_simd::model::lane_mask(c) as $mask);
                let run = if RUN { st.stages.preds(s) } else { s..s + 1 };
                let col = st.cols[run.start];
                let vals = {
                    let $gsrc = $setzero();
                    let $gk = km;
                    let $gidx = plist;
                    let $gbase = col.as_ptr() as *const i32;
                    $gather
                };
                let mut k2 = $mask_cmp(km, st.ops[run.start], vals, st.nsplat[run.start]);
                for p in run.start + 1..run.end {
                    k2 = $mask_cmp(k2, st.ops[p], vals, st.nsplat[p]);
                }
                let m2 = (k2 as u32).count_ones() as usize;
                if m2 == 0 {
                    return;
                }
                let fresh2 = $maskz_compress(k2, plist);
                if s + 1 == st.stages.len() {
                    emit::<EMIT>(st, fresh2, m2);
                } else {
                    push::<EMIT, RUN>(st, s + 1, fresh2, m2);
                }
            }

            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn emit<const EMIT: bool>(st: &mut State<'_>, fresh: $vec, m: usize) {
                st.total += m as u64;
                if EMIT {
                    let len = st.out.len();
                    st.out.reserve(LANES);
                    $storeu(st.out.as_mut_ptr().add(len) as *mut i32, fresh);
                    st.out.set_len(len + m);
                }
            }

            /// The scan loop; `RUN` compiles in the further compares of
            /// same-column runs, so a run-free chain keeps one compare per
            /// stage.
            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn kernel<const EMIT: bool, const RUN: bool>(
                cols: &[&[$elem]],
                ops: &[CmpOp],
                needles: &[$elem],
                stages: Stages,
            ) -> (u64, Vec<u32>) {
                let rows = cols[0].len();
                let driver_end = stages.preds(0).end;
                let mut st = State {
                    cols,
                    ops,
                    stages,
                    nsplat: std::array::from_fn(|i| {
                        $set1(needles.get(i).map_or(0, |n| Elem32::bits(*n)))
                    }),
                    plists: [$setzero(); MAX_PREDICATES],
                    counts: [0; MAX_PREDICATES],
                    out: Vec::new(),
                    total: 0,
                };
                let col0 = cols[0].as_ptr() as *const i32;
                let op0 = ops[0];
                let needle0 = st.nsplat[0];
                let iota = $loadu($iota.as_ptr() as *const i32);

                let full_blocks = rows / LANES;
                for blk in 0..full_blocks {
                    let v = $loadu(col0.add(blk * LANES));
                    let mut k = $cmp(op0, v, needle0);
                    if RUN {
                        for p in 1..driver_end {
                            k = $mask_cmp(k, ops[p], v, st.nsplat[p]);
                        }
                    }
                    if k == 0 {
                        continue;
                    }
                    let m = (k as u32).count_ones() as usize;
                    let idx = $add(iota, $set1((blk * LANES) as i32));
                    let fresh = $maskz_compress(k, idx);
                    if stages.len() == 1 {
                        emit::<EMIT>(&mut st, fresh, m);
                    } else {
                        push::<EMIT, RUN>(&mut st, 1, fresh, m);
                    }
                }

                let tail = rows % LANES;
                if tail != 0 {
                    let base = full_blocks * LANES;
                    let kt = fts_simd::model::lane_mask(tail) as $mask;
                    let v = $maskz_loadu(kt, col0.add(base));
                    let mut k = $mask_cmp(kt, op0, v, needle0);
                    if RUN {
                        for p in 1..driver_end {
                            k = $mask_cmp(k, ops[p], v, st.nsplat[p]);
                        }
                    }
                    if k != 0 {
                        let m = (k as u32).count_ones() as usize;
                        let idx = $add(iota, $set1(base as i32));
                        let fresh = $maskz_compress(k, idx);
                        if stages.len() == 1 {
                            emit::<EMIT>(&mut st, fresh, m);
                        } else {
                            push::<EMIT, RUN>(&mut st, 1, fresh, m);
                        }
                    }
                }

                // Drain partial lists in ascending stage order.
                for s in 1..stages.len() {
                    flush::<EMIT, RUN>(&mut st, s);
                }
                (st.total, st.out)
            }

            /// Safe entry point. Panics without AVX-512 or on an invalid
            /// chain (ragged columns, > [`MAX_PREDICATES`] predicates).
            pub fn fused_scan(preds: &[TypedPred<'_, $elem>], mode: OutputMode) -> ScanOutput {
                assert!(has_avx512(), "AVX-512 not available on this host");
                assert!(
                    preds.len() <= MAX_PREDICATES,
                    "chain too long for one fused kernel"
                );
                let empty = match mode {
                    OutputMode::Count => ScanOutput::Count(0),
                    OutputMode::Positions => ScanOutput::Positions(PosList::new()),
                };
                let Some(first) = preds.first() else {
                    return empty;
                };
                let rows = first.data.len();
                for p in preds {
                    assert_eq!(p.data.len(), rows, "chain columns must have equal length");
                }
                assert!(
                    rows <= i32::MAX as usize,
                    "chunk exceeds 32-bit gather index range"
                );

                let cols: Vec<&[$elem]> = preds.iter().map(|p| p.data).collect();
                let ops: Vec<CmpOp> = preds.iter().map(|p| p.op).collect();
                let needles: Vec<$elem> = preds.iter().map(|p| p.needle).collect();
                let stages = Stages::of(cols.iter().map(|c| (c.as_ptr(), c.len())));
                // SAFETY: AVX-512 presence asserted; columns validated.
                let (total, out) = unsafe {
                    match (mode, stages.len() < preds.len()) {
                        (OutputMode::Count, false) => {
                            kernel::<false, false>(&cols, &ops, &needles, stages)
                        }
                        (OutputMode::Count, true) => {
                            kernel::<false, true>(&cols, &ops, &needles, stages)
                        }
                        (OutputMode::Positions, false) => {
                            kernel::<true, false>(&cols, &ops, &needles, stages)
                        }
                        (OutputMode::Positions, true) => {
                            kernel::<true, true>(&cols, &ops, &needles, stages)
                        }
                    }
                };
                match mode {
                    OutputMode::Count => ScanOutput::Count(total),
                    OutputMode::Positions => ScanOutput::Positions(PosList::from_vec(out)),
                }
            }
        }
    };
}

// u32 kernels — the paper's 4-byte integers.
avx512_kernel!(
    u32_w128,
    u32,
    4,
    __m128i,
    __mmask8,
    _mm_loadu_epi32,
    _mm_maskz_loadu_epi32,
    _mm_storeu_epi32,
    _mm_set1_epi32,
    _mm_setzero_si128,
    _mm_maskz_compress_epi32,
    _mm_permutex2var_epi32,
    _mm_add_epi32,
    IOTA4,
    MERGE4,
    cmp_u32_128,
    mask_cmp_u32_128,
    |src, k, idx, base| _mm_mmask_i32gather_epi32::<4>(src, k, idx, base)
);
avx512_kernel!(
    u32_w256,
    u32,
    8,
    __m256i,
    __mmask8,
    _mm256_loadu_epi32,
    _mm256_maskz_loadu_epi32,
    _mm256_storeu_epi32,
    _mm256_set1_epi32,
    _mm256_setzero_si256,
    _mm256_maskz_compress_epi32,
    _mm256_permutex2var_epi32,
    _mm256_add_epi32,
    IOTA8,
    MERGE8,
    cmp_u32_256,
    mask_cmp_u32_256,
    |src, k, idx, base| _mm256_mmask_i32gather_epi32::<4>(src, k, idx, base)
);
avx512_kernel!(
    u32_w512,
    u32,
    16,
    __m512i,
    __mmask16,
    _mm512_loadu_epi32,
    _mm512_maskz_loadu_epi32,
    _mm512_storeu_epi32,
    _mm512_set1_epi32,
    _mm512_setzero_si512,
    _mm512_maskz_compress_epi32,
    _mm512_permutex2var_epi32,
    _mm512_add_epi32,
    IOTA16,
    MERGE16,
    cmp_u32_512,
    mask_cmp_u32_512,
    |src, k, idx, base| _mm512_mask_i32gather_epi32::<4>(src, k, idx, base)
);

// i32 kernels — signed compares.
avx512_kernel!(
    i32_w128,
    i32,
    4,
    __m128i,
    __mmask8,
    _mm_loadu_epi32,
    _mm_maskz_loadu_epi32,
    _mm_storeu_epi32,
    _mm_set1_epi32,
    _mm_setzero_si128,
    _mm_maskz_compress_epi32,
    _mm_permutex2var_epi32,
    _mm_add_epi32,
    IOTA4,
    MERGE4,
    cmp_i32_128,
    mask_cmp_i32_128,
    |src, k, idx, base| _mm_mmask_i32gather_epi32::<4>(src, k, idx, base)
);
avx512_kernel!(
    i32_w256,
    i32,
    8,
    __m256i,
    __mmask8,
    _mm256_loadu_epi32,
    _mm256_maskz_loadu_epi32,
    _mm256_storeu_epi32,
    _mm256_set1_epi32,
    _mm256_setzero_si256,
    _mm256_maskz_compress_epi32,
    _mm256_permutex2var_epi32,
    _mm256_add_epi32,
    IOTA8,
    MERGE8,
    cmp_i32_256,
    mask_cmp_i32_256,
    |src, k, idx, base| _mm256_mmask_i32gather_epi32::<4>(src, k, idx, base)
);
avx512_kernel!(
    i32_w512,
    i32,
    16,
    __m512i,
    __mmask16,
    _mm512_loadu_epi32,
    _mm512_maskz_loadu_epi32,
    _mm512_storeu_epi32,
    _mm512_set1_epi32,
    _mm512_setzero_si512,
    _mm512_maskz_compress_epi32,
    _mm512_permutex2var_epi32,
    _mm512_add_epi32,
    IOTA16,
    MERGE16,
    cmp_i32_512,
    mask_cmp_i32_512,
    |src, k, idx, base| _mm512_mask_i32gather_epi32::<4>(src, k, idx, base)
);

// f32 kernels — float compares on the same integer plumbing.
avx512_kernel!(
    f32_w128,
    f32,
    4,
    __m128i,
    __mmask8,
    _mm_loadu_epi32,
    _mm_maskz_loadu_epi32,
    _mm_storeu_epi32,
    _mm_set1_epi32,
    _mm_setzero_si128,
    _mm_maskz_compress_epi32,
    _mm_permutex2var_epi32,
    _mm_add_epi32,
    IOTA4,
    MERGE4,
    cmp_f32_128,
    mask_cmp_f32_128,
    |src, k, idx, base| _mm_mmask_i32gather_epi32::<4>(src, k, idx, base)
);
avx512_kernel!(
    f32_w256,
    f32,
    8,
    __m256i,
    __mmask8,
    _mm256_loadu_epi32,
    _mm256_maskz_loadu_epi32,
    _mm256_storeu_epi32,
    _mm256_set1_epi32,
    _mm256_setzero_si256,
    _mm256_maskz_compress_epi32,
    _mm256_permutex2var_epi32,
    _mm256_add_epi32,
    IOTA8,
    MERGE8,
    cmp_f32_256,
    mask_cmp_f32_256,
    |src, k, idx, base| _mm256_mmask_i32gather_epi32::<4>(src, k, idx, base)
);
avx512_kernel!(
    f32_w512,
    f32,
    16,
    __m512i,
    __mmask16,
    _mm512_loadu_epi32,
    _mm512_maskz_loadu_epi32,
    _mm512_storeu_epi32,
    _mm512_set1_epi32,
    _mm512_setzero_si512,
    _mm512_maskz_compress_epi32,
    _mm512_permutex2var_epi32,
    _mm512_add_epi32,
    IOTA16,
    MERGE16,
    cmp_f32_512,
    mask_cmp_f32_512,
    |src, k, idx, base| _mm512_mask_i32gather_epi32::<4>(src, k, idx, base)
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn skip() -> bool {
        if !has_avx512() {
            eprintln!("skipping: no AVX-512 on this host");
            return true;
        }
        false
    }

    fn check_u32(preds: &[TypedPred<'_, u32>]) {
        let expected = reference::scan_positions(preds);
        for (name, out) in [
            ("w128", u32_w128::fused_scan(preds, OutputMode::Positions)),
            ("w256", u32_w256::fused_scan(preds, OutputMode::Positions)),
            ("w512", u32_w512::fused_scan(preds, OutputMode::Positions)),
        ] {
            assert_eq!(out.positions().unwrap(), &expected, "{name} positions");
        }
        for (name, out) in [
            ("w128", u32_w128::fused_scan(preds, OutputMode::Count)),
            ("w256", u32_w256::fused_scan(preds, OutputMode::Count)),
            ("w512", u32_w512::fused_scan(preds, OutputMode::Count)),
        ] {
            assert_eq!(out.count(), expected.len() as u64, "{name} count");
        }
    }

    #[test]
    fn figure3_worked_example() {
        if skip() {
            return;
        }
        let a = [2u32, 5, 4, 5, 6, 1, 5, 7, 6, 8, 5, 3, 5, 9, 9, 5];
        let b = [5u32, 2, 3, 1, 1, 3, 6, 0, 8, 7, 3, 3, 2, 9, 3, 2];
        let preds = [TypedPred::eq(&a[..], 5), TypedPred::eq(&b[..], 2)];
        let out = u32_w128::fused_scan(&preds, OutputMode::Positions);
        assert_eq!(out.positions().unwrap().as_slice(), &[1, 12, 15]);
        check_u32(&preds);
    }

    #[test]
    fn all_operator_pairs() {
        if skip() {
            return;
        }
        let a: Vec<u32> = (0..400).map(|i| i % 13).collect();
        let b: Vec<u32> = (0..400).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                let preds = [
                    TypedPred::new(&a[..], op0, 6u32),
                    TypedPred::new(&b[..], op1, 3u32),
                ];
                check_u32(&preds);
            }
        }
    }

    #[test]
    fn chains_one_to_five() {
        if skip() {
            return;
        }
        let cols: Vec<Vec<u32>> = (0..5u32)
            .map(|c| (0..900u32).map(|i| i.wrapping_mul(c + 7) % 3).collect())
            .collect();
        for p in 1..=5 {
            let preds: Vec<TypedPred<'_, u32>> =
                cols[..p].iter().map(|c| TypedPred::eq(&c[..], 1)).collect();
            check_u32(&preds);
        }
    }

    #[test]
    fn tails_and_tiny_inputs() {
        if skip() {
            return;
        }
        for rows in [
            0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65,
        ] {
            let a: Vec<u32> = (0..rows as u32).map(|i| i % 3).collect();
            let b: Vec<u32> = (0..rows as u32).map(|i| i % 2).collect();
            let preds = [TypedPred::eq(&a[..], 0), TypedPred::eq(&b[..], 1)];
            check_u32(&preds);
        }
    }

    #[test]
    fn extreme_selectivities() {
        if skip() {
            return;
        }
        let rows = 2000usize;
        let all: Vec<u32> = vec![5; rows];
        let none: Vec<u32> = vec![4; rows];
        let half: Vec<u32> = (0..rows as u32).map(|i| 4 + i % 2).collect();
        for (a, b) in [
            (&all, &half),
            (&half, &all),
            (&all, &none),
            (&none, &all),
            (&all, &all),
        ] {
            let preds = [TypedPred::eq(&a[..], 5u32), TypedPred::eq(&b[..], 5u32)];
            check_u32(&preds);
        }
    }

    #[test]
    fn signed_kernel_negative_values() {
        if skip() {
            return;
        }
        let a: Vec<i32> = (0..500).map(|i| (i % 9) - 4).collect();
        let b: Vec<i32> = (0..500).map(|i| (i % 5) - 2).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 0i32),
                TypedPred::new(&b[..], CmpOp::Ge, -1i32),
            ];
            let expected = reference::scan_positions(&preds);
            for out in [
                i32_w128::fused_scan(&preds, OutputMode::Positions),
                i32_w256::fused_scan(&preds, OutputMode::Positions),
                i32_w512::fused_scan(&preds, OutputMode::Positions),
            ] {
                assert_eq!(out.positions().unwrap(), &expected, "{op}");
            }
        }
    }

    #[test]
    fn float_kernel_with_nan() {
        if skip() {
            return;
        }
        let mut a: Vec<f32> = (0..300).map(|i| (i % 7) as f32).collect();
        a[13] = f32::NAN;
        a[250] = f32::NAN;
        let b: Vec<f32> = (0..300).map(|i| (i % 3) as f32 - 1.0).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 3.0f32),
                TypedPred::new(&b[..], CmpOp::Lt, 1.0f32),
            ];
            let expected = reference::scan_positions(&preds);
            for out in [
                f32_w128::fused_scan(&preds, OutputMode::Positions),
                f32_w256::fused_scan(&preds, OutputMode::Positions),
                f32_w512::fused_scan(&preds, OutputMode::Positions),
            ] {
                assert_eq!(out.positions().unwrap(), &expected, "{op}");
            }
        }
    }
}
