//! Native AVX-512 fused kernels for 8-byte element types (`u64`, `i64`,
//! `f64`).
//!
//! Extension beyond the paper's 4-byte running example: values travel in
//! full 512-bit registers (8 lanes), while the position list stays a
//! 256-bit register of eight 32-bit row offsets — so the whole compress /
//! permutex2var machinery runs at dword granularity exactly like the u32
//! kernels, and the follow-up fetch uses `vpgatherdq` (dword indexes →
//! qword values). This is the same dual-width layout §V's splitting
//! discussion leads to, just made a first-class kernel: no list splitting
//! is needed because the list is sized to the value register from the
//! start.

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context

use std::arch::x86_64::*;

use fts_simd::has_avx512;
use fts_storage::{CmpOp, NativeType, PosList};

use crate::fused::{Stages, MAX_PREDICATES, MERGE8};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

/// Lanes per 512-bit register of 8-byte values.
pub const LANES: usize = 8;

static IOTA8: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// 8-byte element kinds: the lane bits plus the compare family.
pub trait Elem64: NativeType {
    /// The lane's raw bits as `i64` (for `vpbroadcastq`).
    fn bits(self) -> i64;
}

impl Elem64 for u64 {
    #[inline(always)]
    fn bits(self) -> i64 {
        self as i64
    }
}

impl Elem64 for i64 {
    #[inline(always)]
    fn bits(self) -> i64 {
        self
    }
}

impl Elem64 for f64 {
    #[inline(always)]
    fn bits(self) -> i64 {
        self.to_bits() as i64
    }
}

macro_rules! def_cmp64 {
    ($cmp:ident, $mask_cmp:ident,
     $eq:ident, $ne:ident, $lt:ident, $le:ident, $gt:ident, $ge:ident,
     $meq:ident, $mne:ident, $mlt:ident, $mle:ident, $mgt:ident, $mge:ident) => {
        #[inline]
        #[target_feature(enable = "avx512f,avx512vl,avx512dq")]
        unsafe fn $cmp(op: CmpOp, a: __m512i, b: __m512i) -> __mmask8 {
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
        unsafe fn $mask_cmp(k: __mmask8, op: CmpOp, a: __m512i, b: __m512i) -> __mmask8 {
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

def_cmp64!(
    cmp_u64,
    mask_cmp_u64,
    _mm512_cmpeq_epu64_mask,
    _mm512_cmpneq_epu64_mask,
    _mm512_cmplt_epu64_mask,
    _mm512_cmple_epu64_mask,
    _mm512_cmpgt_epu64_mask,
    _mm512_cmpge_epu64_mask,
    _mm512_mask_cmpeq_epu64_mask,
    _mm512_mask_cmpneq_epu64_mask,
    _mm512_mask_cmplt_epu64_mask,
    _mm512_mask_cmple_epu64_mask,
    _mm512_mask_cmpgt_epu64_mask,
    _mm512_mask_cmpge_epu64_mask
);
def_cmp64!(
    cmp_i64,
    mask_cmp_i64,
    _mm512_cmpeq_epi64_mask,
    _mm512_cmpneq_epi64_mask,
    _mm512_cmplt_epi64_mask,
    _mm512_cmple_epi64_mask,
    _mm512_cmpgt_epi64_mask,
    _mm512_cmpge_epi64_mask,
    _mm512_mask_cmpeq_epi64_mask,
    _mm512_mask_cmpneq_epi64_mask,
    _mm512_mask_cmplt_epi64_mask,
    _mm512_mask_cmple_epi64_mask,
    _mm512_mask_cmpgt_epi64_mask,
    _mm512_mask_cmpge_epi64_mask
);

#[inline]
#[target_feature(enable = "avx512f,avx512vl,avx512dq")]
unsafe fn cmp_f64(op: CmpOp, a: __m512i, b: __m512i) -> __mmask8 {
    let (fa, fb) = (_mm512_castsi512_pd(a), _mm512_castsi512_pd(b));
    // Ordered, quiet predicates — NaN compares false everywhere.
    match op {
        CmpOp::Eq => _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(fa, fb),
        CmpOp::Ne => _mm512_cmp_pd_mask::<_CMP_NEQ_OQ>(fa, fb),
        CmpOp::Lt => _mm512_cmp_pd_mask::<_CMP_LT_OS>(fa, fb),
        CmpOp::Le => _mm512_cmp_pd_mask::<_CMP_LE_OS>(fa, fb),
        CmpOp::Gt => _mm512_cmp_pd_mask::<_CMP_GT_OS>(fa, fb),
        CmpOp::Ge => _mm512_cmp_pd_mask::<_CMP_GE_OS>(fa, fb),
    }
}

#[inline]
#[target_feature(enable = "avx512f,avx512vl,avx512dq")]
unsafe fn mask_cmp_f64(k: __mmask8, op: CmpOp, a: __m512i, b: __m512i) -> __mmask8 {
    let (fa, fb) = (_mm512_castsi512_pd(a), _mm512_castsi512_pd(b));
    match op {
        CmpOp::Eq => _mm512_mask_cmp_pd_mask::<_CMP_EQ_OQ>(k, fa, fb),
        CmpOp::Ne => _mm512_mask_cmp_pd_mask::<_CMP_NEQ_OQ>(k, fa, fb),
        CmpOp::Lt => _mm512_mask_cmp_pd_mask::<_CMP_LT_OS>(k, fa, fb),
        CmpOp::Le => _mm512_mask_cmp_pd_mask::<_CMP_LE_OS>(k, fa, fb),
        CmpOp::Gt => _mm512_mask_cmp_pd_mask::<_CMP_GT_OS>(k, fa, fb),
        CmpOp::Ge => _mm512_mask_cmp_pd_mask::<_CMP_GE_OS>(k, fa, fb),
    }
}

macro_rules! w64_kernel {
    ($modname:ident, $elem:ty, $cmp:ident, $mask_cmp:ident) => {
        /// 8-byte fused kernel for one element kind (zmm values, ymm
        /// position lists).
        pub mod $modname {
            use super::*;

            struct State<'a> {
                cols: &'a [&'a [$elem]],
                ops: &'a [CmpOp],
                stages: Stages,
                nsplat: [__m512i; MAX_PREDICATES],
                plists: [__m256i; MAX_PREDICATES],
                counts: [usize; MAX_PREDICATES],
                out: Vec<u32>,
                total: u64,
            }

            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn push<const EMIT: bool, const RUN: bool>(
                st: &mut State<'_>,
                s: usize,
                fresh: __m256i,
                m: usize,
            ) {
                if st.counts[s] + m > LANES {
                    flush::<EMIT, RUN>(st, s);
                    st.plists[s] = fresh;
                    st.counts[s] = m;
                } else {
                    let ctl = _mm256_loadu_epi32(MERGE8[st.counts[s]].as_ptr() as *const i32);
                    st.plists[s] = _mm256_permutex2var_epi32(st.plists[s], ctl, fresh);
                    st.counts[s] += m;
                }
                if st.counts[s] == LANES {
                    flush::<EMIT, RUN>(st, s);
                }
            }

            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn flush<const EMIT: bool, const RUN: bool>(st: &mut State<'_>, s: usize) {
                let c = st.counts[s];
                if c == 0 {
                    return;
                }
                let plist = st.plists[s];
                st.plists[s] = _mm256_setzero_si256();
                st.counts[s] = 0;

                let km = fts_simd::model::lane_mask(c) as __mmask8;
                let run = if RUN { st.stages.preds(s) } else { s..s + 1 };
                let col = st.cols[run.start];
                // Dword indexes gather qword values, once per stage.
                let vals = _mm512_mask_i32gather_epi64::<8>(
                    _mm512_setzero_si512(),
                    km,
                    plist,
                    col.as_ptr() as *const i64,
                );
                let mut k2 = $mask_cmp(km, st.ops[run.start], vals, st.nsplat[run.start]);
                for p in run.start + 1..run.end {
                    k2 = $mask_cmp(k2, st.ops[p], vals, st.nsplat[p]);
                }
                let m2 = (k2 as u32).count_ones() as usize;
                if m2 == 0 {
                    return;
                }
                let fresh2 = _mm256_maskz_compress_epi32(k2, plist);
                if s + 1 == st.stages.len() {
                    emit::<EMIT>(st, fresh2, m2);
                } else {
                    push::<EMIT, RUN>(st, s + 1, fresh2, m2);
                }
            }

            #[target_feature(enable = "avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt")]
            unsafe fn emit<const EMIT: bool>(st: &mut State<'_>, fresh: __m256i, m: usize) {
                st.total += m as u64;
                if EMIT {
                    let len = st.out.len();
                    st.out.reserve(LANES);
                    _mm256_storeu_epi32(st.out.as_mut_ptr().add(len) as *mut i32, fresh);
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
                        _mm512_set1_epi64(needles.get(i).map_or(0, |n| Elem64::bits(*n)))
                    }),
                    plists: [_mm256_setzero_si256(); MAX_PREDICATES],
                    counts: [0; MAX_PREDICATES],
                    out: Vec::new(),
                    total: 0,
                };
                let col0 = cols[0].as_ptr() as *const i64;
                let op0 = ops[0];
                let needle0 = st.nsplat[0];
                let iota = _mm256_loadu_epi32(IOTA8.as_ptr() as *const i32);

                let full_blocks = rows / LANES;
                for blk in 0..full_blocks {
                    let v = _mm512_loadu_epi64(col0.add(blk * LANES));
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
                    let idx = _mm256_add_epi32(iota, _mm256_set1_epi32((blk * LANES) as i32));
                    let fresh = _mm256_maskz_compress_epi32(k, idx);
                    if stages.len() == 1 {
                        emit::<EMIT>(&mut st, fresh, m);
                    } else {
                        push::<EMIT, RUN>(&mut st, 1, fresh, m);
                    }
                }

                let tail = rows % LANES;
                if tail != 0 {
                    let base = full_blocks * LANES;
                    let kt = fts_simd::model::lane_mask(tail) as __mmask8;
                    let v = _mm512_maskz_loadu_epi64(kt, col0.add(base));
                    let mut k = $mask_cmp(kt, op0, v, needle0);
                    if RUN {
                        for p in 1..driver_end {
                            k = $mask_cmp(k, ops[p], v, st.nsplat[p]);
                        }
                    }
                    if k != 0 {
                        let m = (k as u32).count_ones() as usize;
                        let idx = _mm256_add_epi32(iota, _mm256_set1_epi32(base as i32));
                        let fresh = _mm256_maskz_compress_epi32(k, idx);
                        if stages.len() == 1 {
                            emit::<EMIT>(&mut st, fresh, m);
                        } else {
                            push::<EMIT, RUN>(&mut st, 1, fresh, m);
                        }
                    }
                }

                for s in 1..stages.len() {
                    flush::<EMIT, RUN>(&mut st, s);
                }
                (st.total, st.out)
            }

            /// Safe entry point; panics without AVX-512 or on an invalid
            /// chain.
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
                for q in preds {
                    assert_eq!(q.data.len(), rows, "chain columns must have equal length");
                }
                assert!(
                    rows <= i32::MAX as usize,
                    "chunk exceeds 32-bit gather index range"
                );

                let cols: Vec<&[$elem]> = preds.iter().map(|q| q.data).collect();
                let ops: Vec<CmpOp> = preds.iter().map(|q| q.op).collect();
                let needles: Vec<$elem> = preds.iter().map(|q| q.needle).collect();
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

w64_kernel!(u64_w512, u64, cmp_u64, mask_cmp_u64);
w64_kernel!(i64_w512, i64, cmp_i64, mask_cmp_i64);
w64_kernel!(f64_w512, f64, cmp_f64, mask_cmp_f64);

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

    #[test]
    fn u64_all_operator_pairs() {
        if skip() {
            return;
        }
        let big = u64::MAX - 7;
        let a: Vec<u64> = (0..600u64)
            .map(|i| if i % 5 == 0 { big } else { i % 13 })
            .collect();
        let b: Vec<u64> = (0..600u64).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in CmpOp::ALL {
                let preds = [
                    TypedPred::new(&a[..], op0, big),
                    TypedPred::new(&b[..], op1, 3u64),
                ];
                let expected = reference::scan_positions(&preds);
                let got = u64_w512::fused_scan(&preds, OutputMode::Positions);
                assert_eq!(got.positions().unwrap(), &expected, "{op0} {op1}");
                let got = u64_w512::fused_scan(&preds, OutputMode::Count);
                assert_eq!(got.count(), expected.len() as u64);
            }
        }
    }

    #[test]
    fn i64_negative_values() {
        if skip() {
            return;
        }
        let a: Vec<i64> = (0..500).map(|i| (i % 9) - 4).collect();
        let b: Vec<i64> = (0..500).map(|i| i64::MIN + (i % 5)).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 0i64),
                TypedPred::new(&b[..], CmpOp::Le, i64::MIN + 2),
            ];
            let expected = reference::scan_positions(&preds);
            let got = i64_w512::fused_scan(&preds, OutputMode::Positions);
            assert_eq!(got.positions().unwrap(), &expected, "{op}");
        }
    }

    #[test]
    fn f64_with_nan() {
        if skip() {
            return;
        }
        let mut a: Vec<f64> = (0..400).map(|i| (i % 7) as f64 * 0.5).collect();
        a[17] = f64::NAN;
        a[350] = f64::NAN;
        let b: Vec<f64> = (0..400).map(|i| (i % 3) as f64 - 1.0).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 1.5f64),
                TypedPred::new(&b[..], CmpOp::Lt, 1.0f64),
            ];
            let expected = reference::scan_positions(&preds);
            let got = f64_w512::fused_scan(&preds, OutputMode::Positions);
            assert_eq!(got.positions().unwrap(), &expected, "{op}");
        }
    }

    #[test]
    fn tails_and_chains() {
        if skip() {
            return;
        }
        for rows in [0usize, 1, 7, 8, 9, 15, 16, 17, 100] {
            let cols: Vec<Vec<u64>> = (0..4u64)
                .map(|c| {
                    (0..rows as u64)
                        .map(|i| i.wrapping_mul(c + 3) % 3)
                        .collect()
                })
                .collect();
            for p in 1..=4 {
                let preds: Vec<TypedPred<'_, u64>> =
                    cols[..p].iter().map(|c| TypedPred::eq(&c[..], 0)).collect();
                let expected = reference::scan_positions(&preds);
                let got = u64_w512::fused_scan(&preds, OutputMode::Positions);
                assert_eq!(got.positions().unwrap(), &expected, "rows={rows} P={p}");
            }
        }
    }

    #[test]
    fn extreme_selectivities() {
        if skip() {
            return;
        }
        let rows = 3000usize;
        let all = vec![5u64; rows];
        let none = vec![4u64; rows];
        let half: Vec<u64> = (0..rows as u64).map(|i| 4 + i % 2).collect();
        for (x, y) in [
            (&all, &half),
            (&half, &all),
            (&all, &none),
            (&none, &all),
            (&all, &all),
        ] {
            let preds = [TypedPred::eq(&x[..], 5u64), TypedPred::eq(&y[..], 5u64)];
            let expected = reference::scan_count(&preds);
            let got = u64_w512::fused_scan(&preds, OutputMode::Count);
            assert_eq!(got.count(), expected);
        }
    }
}
