//! AVX2 backport of the Fused Table Scan — the paper's *AVX2 Fused (128)*
//! baseline (§III last paragraph, §IV Fig. 5).
//!
//! AVX2 has no mask registers, no compress and no two-table permute, so the
//! three AVX-512 specialties are emulated exactly the way the paper's
//! `REG == 128 && !AVX512` configuration does:
//!
//! * **compare → bitmask**: vector compare (`vpcmpeqd`/`vpcmpgtd`, with a
//!   sign-bias trick for unsigned operands) followed by `vmovmskps`;
//! * **compress**: a 16-entry lookup table of `vpshufb` controls indexed by
//!   the 4-bit match mask (the paper notes this emulation "became 32
//!   lines");
//! * **append** (`vpermt2d` equivalent): shift the fresh batch up by the
//!   list length with another `vpshufb` control and OR it onto the
//!   zero-padded list;
//! * **masked gather**: AVX2's `vpgatherdd` with a sign-bit vector mask
//!   (inactive lanes are not dereferenced, like AVX-512).
//!
//! The tail (< 4 rows) is evaluated with the scalar chain *after* the
//! drain, preserving ascending output order.

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context

use std::arch::x86_64::*;

use fts_simd::has_avx2;
use fts_storage::{CmpOp, PosList};

use crate::fused::{Stages, MAX_PREDICATES};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

/// Lanes per 128-bit register of 4-byte values.
pub const LANES: usize = 4;

/// `vpshufb` controls emulating `vpcompressd`: entry `m` packs the lanes
/// whose bit is set in `m` to the front and zeroes the rest (0x80 control).
static COMPRESS_LUT: [[u8; 16]; 16] = {
    let mut lut = [[0x80u8; 16]; 16];
    let mut m = 0usize;
    while m < 16 {
        let mut dst = 0usize;
        let mut lane = 0usize;
        while lane < 4 {
            if m & (1 << lane) != 0 {
                let mut b = 0usize;
                while b < 4 {
                    lut[m][dst * 4 + b] = (lane * 4 + b) as u8;
                    b += 1;
                }
                dst += 1;
            }
            lane += 1;
        }
        m += 1;
    }
    lut
};

/// `vpshufb` controls shifting a batch up by `count` lanes (zero below),
/// used to append behind an existing zero-padded list via OR.
static SHIFT_LUT: [[u8; 16]; 5] = {
    let mut lut = [[0x80u8; 16]; 5];
    let mut c = 0usize;
    while c <= 4 {
        let mut i = c;
        while i < 4 {
            let mut b = 0usize;
            while b < 4 {
                lut[c][i * 4 + b] = ((i - c) * 4 + b) as u8;
                b += 1;
            }
            i += 1;
        }
        c += 1;
    }
    lut
};

/// Sign-bit lane masks for the AVX2 gather: entry `c` activates lanes `< c`.
static GATHER_MASK: [[i32; 4]; 5] = [
    [0, 0, 0, 0],
    [-1, 0, 0, 0],
    [-1, -1, 0, 0],
    [-1, -1, -1, 0],
    [-1, -1, -1, -1],
];

// --- compare-to-bitmask fns (one per element kind) ----------------------

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn movemask(v: __m128i) -> u32 {
    _mm_movemask_ps(_mm_castsi128_ps(v)) as u32
}

/// Biased integer compare: `bias = i32::MIN` turns signed `vpcmpgtd` into an
/// unsigned comparison; `bias = 0` keeps it signed.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cmp_int_mask(op: CmpOp, a: __m128i, b: __m128i, bias: __m128i) -> u32 {
    match op {
        CmpOp::Eq => movemask(_mm_cmpeq_epi32(a, b)),
        CmpOp::Ne => movemask(_mm_cmpeq_epi32(a, b)) ^ 0xF,
        _ => {
            let ab = _mm_xor_si128(a, bias);
            let bb = _mm_xor_si128(b, bias);
            match op {
                CmpOp::Lt => movemask(_mm_cmpgt_epi32(bb, ab)),
                CmpOp::Ge => movemask(_mm_cmpgt_epi32(bb, ab)) ^ 0xF,
                CmpOp::Gt => movemask(_mm_cmpgt_epi32(ab, bb)),
                CmpOp::Le => movemask(_mm_cmpgt_epi32(ab, bb)) ^ 0xF,
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            }
        }
    }
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cmp_mask_u32(op: CmpOp, a: __m128i, b: __m128i) -> u32 {
    cmp_int_mask(op, a, b, _mm_set1_epi32(i32::MIN))
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cmp_mask_i32(op: CmpOp, a: __m128i, b: __m128i) -> u32 {
    cmp_int_mask(op, a, b, _mm_setzero_si128())
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cmp_mask_f32(op: CmpOp, a: __m128i, b: __m128i) -> u32 {
    let (fa, fb) = (_mm_castsi128_ps(a), _mm_castsi128_ps(b));
    // Ordered, quiet predicates — NaN compares false everywhere.
    let v = match op {
        CmpOp::Eq => _mm_cmp_ps::<_CMP_EQ_OQ>(fa, fb),
        CmpOp::Ne => _mm_cmp_ps::<_CMP_NEQ_OQ>(fa, fb),
        CmpOp::Lt => _mm_cmp_ps::<_CMP_LT_OS>(fa, fb),
        CmpOp::Le => _mm_cmp_ps::<_CMP_LE_OS>(fa, fb),
        CmpOp::Gt => _mm_cmp_ps::<_CMP_GT_OS>(fa, fb),
        CmpOp::Ge => _mm_cmp_ps::<_CMP_GE_OS>(fa, fb),
    };
    _mm_movemask_ps(v) as u32
}

macro_rules! avx2_kernel {
    ($modname:ident, $elem:ty, $cmp:ident) => {
        /// AVX2 fused kernel for one element kind (128-bit registers).
        pub mod $modname {
            use super::*;

            struct State<'a> {
                preds: &'a [TypedPred<'a, $elem>],
                stages: Stages,
                nsplat: [__m128i; MAX_PREDICATES],
                plists: [__m128i; MAX_PREDICATES],
                counts: [usize; MAX_PREDICATES],
                out: Vec<u32>,
                total: u64,
            }

            /// Emulated `vpcompressd` with zeroing: pack lanes of `v` whose
            /// bit in `k` is set, zero the rest.
            #[inline]
            #[target_feature(enable = "avx2")]
            unsafe fn compress(k: u32, v: __m128i) -> __m128i {
                let ctl = _mm_loadu_si128(COMPRESS_LUT[k as usize].as_ptr() as *const __m128i);
                _mm_shuffle_epi8(v, ctl)
            }

            #[target_feature(enable = "avx2,popcnt")]
            unsafe fn push<const EMIT: bool, const RUN: bool>(
                st: &mut State<'_>,
                s: usize,
                fresh: __m128i,
                m: usize,
            ) {
                if st.counts[s] + m > LANES {
                    flush::<EMIT, RUN>(st, s);
                    st.plists[s] = fresh;
                    st.counts[s] = m;
                } else {
                    // Append: shift the fresh batch up by the list length
                    // and OR onto the zero-padded list.
                    let ctl = _mm_loadu_si128(SHIFT_LUT[st.counts[s]].as_ptr() as *const __m128i);
                    let shifted = _mm_shuffle_epi8(fresh, ctl);
                    st.plists[s] = _mm_or_si128(st.plists[s], shifted);
                    st.counts[s] += m;
                }
                if st.counts[s] == LANES {
                    flush::<EMIT, RUN>(st, s);
                }
            }

            #[target_feature(enable = "avx2,popcnt")]
            unsafe fn flush<const EMIT: bool, const RUN: bool>(st: &mut State<'_>, s: usize) {
                let c = st.counts[s];
                if c == 0 {
                    return;
                }
                let plist = st.plists[s];
                st.plists[s] = _mm_setzero_si128();
                st.counts[s] = 0;

                let run = if RUN { st.stages.preds(s) } else { s..s + 1 };
                let maskv = _mm_loadu_si128(GATHER_MASK[c].as_ptr() as *const __m128i);
                let vals = _mm_mask_i32gather_epi32::<4>(
                    _mm_setzero_si128(),
                    st.preds[run.start].data.as_ptr() as *const i32,
                    plist,
                    maskv,
                );
                let first = &st.preds[run.start];
                let mut k2 =
                    $cmp(first.op, vals, st.nsplat[run.start]) & fts_simd::model::lane_mask(c);
                for p in run.start + 1..run.end {
                    k2 &= $cmp(st.preds[p].op, vals, st.nsplat[p]);
                }
                let m2 = k2.count_ones() as usize;
                if m2 == 0 {
                    return;
                }
                let fresh2 = compress(k2, plist);
                if s + 1 == st.stages.len() {
                    emit::<EMIT>(st, fresh2, m2);
                } else {
                    push::<EMIT, RUN>(st, s + 1, fresh2, m2);
                }
            }

            #[target_feature(enable = "avx2,popcnt")]
            unsafe fn emit<const EMIT: bool>(st: &mut State<'_>, fresh: __m128i, m: usize) {
                st.total += m as u64;
                if EMIT {
                    let len = st.out.len();
                    st.out.reserve(LANES);
                    _mm_storeu_si128(st.out.as_mut_ptr().add(len) as *mut __m128i, fresh);
                    st.out.set_len(len + m);
                }
            }

            /// The scan loop; `RUN` compiles in the further compares of
            /// same-column runs, so a run-free chain keeps one compare per
            /// stage.
            #[target_feature(enable = "avx2,popcnt")]
            unsafe fn kernel<const EMIT: bool, const RUN: bool>(
                preds: &[TypedPred<'_, $elem>],
                stages: Stages,
            ) -> (u64, Vec<u32>) {
                let rows = preds[0].data.len();
                let driver_end = stages.preds(0).end;
                let mut st = State {
                    preds,
                    stages,
                    nsplat: std::array::from_fn(|i| {
                        _mm_set1_epi32(preds.get(i).map_or(0, |q| elem_bits(q.needle)))
                    }),
                    plists: [_mm_setzero_si128(); MAX_PREDICATES],
                    counts: [0; MAX_PREDICATES],
                    out: Vec::new(),
                    total: 0,
                };
                let col0 = preds[0].data.as_ptr();
                let op0 = preds[0].op;
                let needle0 = st.nsplat[0];
                let iota = _mm_setr_epi32(0, 1, 2, 3);

                let full_blocks = rows / LANES;
                for blk in 0..full_blocks {
                    let v = _mm_loadu_si128(col0.add(blk * LANES) as *const __m128i);
                    let mut k = $cmp(op0, v, needle0);
                    if RUN {
                        for p in 1..driver_end {
                            k &= $cmp(preds[p].op, v, st.nsplat[p]);
                        }
                    }
                    if k == 0 {
                        continue;
                    }
                    let m = k.count_ones() as usize;
                    let idx = _mm_add_epi32(iota, _mm_set1_epi32((blk * LANES) as i32));
                    let fresh = compress(k, idx);
                    if stages.len() == 1 {
                        emit::<EMIT>(&mut st, fresh, m);
                    } else {
                        push::<EMIT, RUN>(&mut st, 1, fresh, m);
                    }
                }

                // Drain, then evaluate the (< 4 row) tail scalar — after the
                // drain so positions stay ascending.
                for s in 1..stages.len() {
                    flush::<EMIT, RUN>(&mut st, s);
                }
                for row in full_blocks * LANES..rows {
                    if preds.iter().all(|q| q.matches(row)) {
                        st.total += 1;
                        if EMIT {
                            st.out.push(row as u32);
                        }
                    }
                }
                (st.total, st.out)
            }

            /// Safe entry point; panics without AVX2 or on an invalid chain.
            pub fn fused_scan(preds: &[TypedPred<'_, $elem>], mode: OutputMode) -> ScanOutput {
                assert!(has_avx2(), "AVX2 not available on this host");
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
                let stages = Stages::of_typed(preds);
                // SAFETY: AVX2 presence asserted; columns validated.
                let (total, out) = unsafe {
                    match (mode, stages.len() < preds.len()) {
                        (OutputMode::Count, false) => kernel::<false, false>(preds, stages),
                        (OutputMode::Count, true) => kernel::<false, true>(preds, stages),
                        (OutputMode::Positions, false) => kernel::<true, false>(preds, stages),
                        (OutputMode::Positions, true) => kernel::<true, true>(preds, stages),
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

#[inline(always)]
fn elem_bits<T: super::avx512::Elem32>(v: T) -> i32 {
    super::avx512::Elem32::bits(v)
}

avx2_kernel!(u32_w128, u32, cmp_mask_u32);
avx2_kernel!(i32_w128, i32, cmp_mask_i32);
avx2_kernel!(f32_w128, f32, cmp_mask_f32);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn skip() -> bool {
        if !has_avx2() {
            eprintln!("skipping: no AVX2 on this host");
            return true;
        }
        false
    }

    #[test]
    fn luts_are_consistent() {
        // COMPRESS_LUT[m] packs exactly the lanes of m in order.
        for (m, packed) in COMPRESS_LUT.iter().enumerate() {
            let mut expect = [0x80u8; 16];
            let mut d = 0;
            for lane in 0..4 {
                if m & (1 << lane) != 0 {
                    for b in 0..4 {
                        expect[d * 4 + b] = (lane * 4 + b) as u8;
                    }
                    d += 1;
                }
            }
            assert_eq!(*packed, expect, "mask {m:04b}");
        }
        // SHIFT_LUT[c] moves lane j to lane j + c.
        assert_eq!(SHIFT_LUT[0][0], 0);
        assert_eq!(SHIFT_LUT[1][4], 0);
        assert_eq!(SHIFT_LUT[2][8..12], [0, 1, 2, 3]);
        assert_eq!(SHIFT_LUT[4], [0x80u8; 16]);
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
        assert_eq!(u32_w128::fused_scan(&preds, OutputMode::Count).count(), 3);
    }

    #[test]
    fn unsigned_compare_bias_all_ops() {
        if skip() {
            return;
        }
        // Values straddling the sign bit expose a missing unsigned bias.
        let a: Vec<u32> = vec![
            0,
            1,
            0x7FFF_FFFF,
            0x8000_0000,
            0xFFFF_FFFF,
            5,
            0x8000_0001,
            2,
        ];
        let b: Vec<u32> = vec![1; 8];
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 0x8000_0000u32),
                TypedPred::new(&b[..], CmpOp::Eq, 1u32),
            ];
            let expected = reference::scan_positions(&preds);
            let got = u32_w128::fused_scan(&preds, OutputMode::Positions);
            assert_eq!(got.positions().unwrap(), &expected, "{op}");
        }
    }

    #[test]
    fn signed_and_float_kernels() {
        if skip() {
            return;
        }
        let a: Vec<i32> = (0..333).map(|i| (i % 9) - 4).collect();
        let b: Vec<i32> = (0..333).map(|i| (i % 5) - 2).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 0i32),
                TypedPred::new(&b[..], CmpOp::Ge, -1i32),
            ];
            let expected = reference::scan_positions(&preds);
            let got = i32_w128::fused_scan(&preds, OutputMode::Positions);
            assert_eq!(got.positions().unwrap(), &expected, "i32 {op}");
        }

        let mut f: Vec<f32> = (0..333).map(|i| (i % 7) as f32).collect();
        f[31] = f32::NAN;
        let g: Vec<f32> = (0..333).map(|i| (i % 3) as f32).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&f[..], op, 3.0f32),
                TypedPred::new(&g[..], CmpOp::Lt, 2.0f32),
            ];
            let expected = reference::scan_positions(&preds);
            let got = f32_w128::fused_scan(&preds, OutputMode::Positions);
            assert_eq!(got.positions().unwrap(), &expected, "f32 {op}");
        }
    }

    #[test]
    fn tails_chains_and_selectivity_extremes() {
        if skip() {
            return;
        }
        for rows in [0usize, 1, 3, 4, 5, 7, 9, 100, 101, 102, 103] {
            let cols: Vec<Vec<u32>> = (0..4u32)
                .map(|c| {
                    (0..rows as u32)
                        .map(|i| i.wrapping_mul(c + 3) % 3)
                        .collect()
                })
                .collect();
            for p in 1..=4 {
                let preds: Vec<TypedPred<'_, u32>> =
                    cols[..p].iter().map(|c| TypedPred::eq(&c[..], 0)).collect();
                let expected = reference::scan_positions(&preds);
                let got = u32_w128::fused_scan(&preds, OutputMode::Positions);
                assert_eq!(got.positions().unwrap(), &expected, "rows={rows} P={p}");
                let got = u32_w128::fused_scan(&preds, OutputMode::Count);
                assert_eq!(got.count(), expected.len() as u64, "rows={rows} P={p}");
            }
        }
        let all = vec![5u32; 1000];
        let preds = [TypedPred::eq(&all[..], 5u32), TypedPred::eq(&all[..], 5u32)];
        assert_eq!(
            u32_w128::fused_scan(&preds, OutputMode::Count).count(),
            1000
        );
    }
}
