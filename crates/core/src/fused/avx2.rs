//! AVX2 backport of the Fused Table Scan — the paper's *AVX2 Fused (128)*
//! baseline (§III last paragraph, §IV Fig. 5): the skeleton of
//! [`crate::fused::skeleton`] stamped for [`Avx2`], 4 lanes of `u32`, `i32`
//! or `f32`.
//!
//! AVX2 has no mask registers, no compress and no two-table permute, so the
//! three AVX-512 specialties are emulated exactly the way the paper's
//! `REG == 128 && !AVX512` configuration does:
//!
//! * **compare → bitmask**: vector compare (`vpcmpeqd`/`vpcmpgtd`, with a
//!   sign-bias trick for unsigned operands) followed by `vmovmskps`; a
//!   masked compare is `k & cmp`;
//! * **compress**: a 16-entry lookup table of `vpshufb` controls indexed by
//!   the 4-bit match mask (the paper notes this emulation "became 32
//!   lines");
//! * **append** (`vpermt2d` equivalent): shift the fresh batch up by the
//!   list length with another `vpshufb` control and OR it onto the
//!   zero-padded list;
//! * **masked load and gather**: `vpmaskmovd` and AVX2's `vpgatherdd` with a
//!   sign-bit vector mask (inactive lanes are not dereferenced, like
//!   AVX-512), so the tail block runs through the pipeline like any other.

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)] // one primitive = one intrinsic sequence

use std::arch::x86_64::*;
use std::marker::PhantomData;

use fts_simd::has_avx2;
use fts_storage::CmpOp;

use crate::fused::skeleton::{fused_skeleton, split, Family, Lanes, Positions};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

fused_skeleton!("avx2,popcnt");

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

/// The sign-bit vector mask of the lanes set in `k`, as `vpmaskmovd` and
/// AVX2's `vpgatherdd` take it.
#[inline(always)]
unsafe fn lanes(k: u32) -> __m128i {
    let bit = _mm_setr_epi32(1, 2, 4, 8);
    _mm_cmpeq_epi32(_mm_and_si128(_mm_set1_epi32(k as i32), bit), bit)
}

#[inline(always)]
unsafe fn movemask(v: __m128i) -> u32 {
    _mm_movemask_ps(_mm_castsi128_ps(v)) as u32
}

/// Biased integer compare: `bias = i32::MIN` turns signed `vpcmpgtd` into an
/// unsigned comparison; `bias = 0` keeps it signed.
#[inline(always)]
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

/// An AVX2 value register: 4 lanes of an xmm register, compared into a
/// `movemask` bitfield.
#[derive(Clone, Copy)]
pub(crate) struct Vals4(__m128i);

impl Lanes<Vals4> for u32 {
    #[inline(always)]
    unsafe fn splat(self) -> Vals4 {
        Vals4(_mm_set1_epi32(self as i32))
    }

    #[inline(always)]
    unsafe fn cmp(op: CmpOp, a: Vals4, b: Vals4) -> u32 {
        cmp_int_mask(op, a.0, b.0, _mm_set1_epi32(i32::MIN))
    }
}

impl Lanes<Vals4> for i32 {
    #[inline(always)]
    unsafe fn splat(self) -> Vals4 {
        Vals4(_mm_set1_epi32(self))
    }

    #[inline(always)]
    unsafe fn cmp(op: CmpOp, a: Vals4, b: Vals4) -> u32 {
        cmp_int_mask(op, a.0, b.0, _mm_setzero_si128())
    }
}

impl Lanes<Vals4> for f32 {
    #[inline(always)]
    unsafe fn splat(self) -> Vals4 {
        Vals4(_mm_castps_si128(_mm_set1_ps(self)))
    }

    #[inline(always)]
    unsafe fn cmp(op: CmpOp, a: Vals4, b: Vals4) -> u32 {
        let (fa, fb) = (_mm_castsi128_ps(a.0), _mm_castsi128_ps(b.0));
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
}

/// An AVX2 position list: 4 lanes of an xmm register, with compress and
/// append emulated by `vpshufb` tables.
#[derive(Clone, Copy)]
pub(crate) struct List4(__m128i);

impl Positions for List4 {
    const LANES: usize = 4;

    #[inline(always)]
    unsafe fn zero() -> Self {
        List4(_mm_setzero_si128())
    }

    #[inline(always)]
    unsafe fn iota(base: usize) -> Self {
        List4(_mm_add_epi32(
            _mm_setr_epi32(0, 1, 2, 3),
            _mm_set1_epi32(base as i32),
        ))
    }

    /// Emulated `vpcompressd` with zeroing.
    #[inline(always)]
    unsafe fn compress(k: u32, list: Self) -> Self {
        let ctl = _mm_loadu_si128(COMPRESS_LUT[k as usize].as_ptr() as *const __m128i);
        List4(_mm_shuffle_epi8(list.0, ctl))
    }

    /// Shift the fresh batch up by the list length and OR it onto the
    /// zero-padded list.
    #[inline(always)]
    unsafe fn append(list: Self, len: usize, fresh: Self) -> Self {
        let ctl = _mm_loadu_si128(SHIFT_LUT[len].as_ptr() as *const __m128i);
        List4(_mm_or_si128(list.0, _mm_shuffle_epi8(fresh.0, ctl)))
    }

    #[inline(always)]
    unsafe fn store(dst: *mut u32, list: Self) {
        _mm_storeu_si128(dst as *mut __m128i, list.0)
    }
}

/// The AVX2 family: 4 lanes of `T` in xmm registers.
pub(crate) struct Avx2<T>(PhantomData<T>);

impl<T: Lanes<Vals4>> Family for Avx2<T> {
    type Col<'a> = &'a [T];
    type Elem = T;
    type Vals = Vals4;
    type List = List4;

    fn available() -> bool {
        has_avx2()
    }

    #[inline(always)]
    unsafe fn load(col: &[T], row: usize, n: usize) -> Vals4 {
        const {
            assert!(
                std::mem::size_of::<T>() == 4,
                "32-bit lanes hold 4-byte values"
            )
        };
        let src = col.as_ptr().add(row) as *const i32;
        Vals4(if n == 4 {
            _mm_loadu_si128(src as *const __m128i)
        } else {
            _mm_maskload_epi32(src, lanes(fts_simd::model::lane_mask(n)))
        })
    }

    #[inline(always)]
    unsafe fn gather(col: &[T], list: List4, k: u32) -> Vals4 {
        let base = col.as_ptr() as *const i32;
        Vals4(_mm_mask_i32gather_epi32::<4>(
            _mm_setzero_si128(),
            base,
            list.0,
            lanes(k),
        ))
    }
}

/// Run a chain on the AVX2 kernel. Panics without AVX2 or on an invalid
/// chain (ragged columns, more than [`crate::fused::MAX_PREDICATES`]
/// predicates).
pub(crate) fn fused_scan<T: Lanes<Vals4>>(
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
) -> ScanOutput {
    let (cols, ops, needles) = split(preds);
    scan::<Avx2<T>>(&cols, &ops, &needles, mode)
}

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
        let out = fused_scan(&preds, OutputMode::Positions);
        assert_eq!(out.positions().unwrap().as_slice(), &[1, 12, 15]);
        assert_eq!(fused_scan(&preds, OutputMode::Count).count(), 3);
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
            let got = fused_scan(&preds, OutputMode::Positions);
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
            let got = fused_scan(&preds, OutputMode::Positions);
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
            let got = fused_scan(&preds, OutputMode::Positions);
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
                let got = fused_scan(&preds, OutputMode::Positions);
                assert_eq!(got.positions().unwrap(), &expected, "rows={rows} P={p}");
                let got = fused_scan(&preds, OutputMode::Count);
                assert_eq!(got.count(), expected.len() as u64, "rows={rows} P={p}");
            }
        }
        let all = vec![5u32; 1000];
        let preds = [TypedPred::eq(&all[..], 5u32), TypedPred::eq(&all[..], 5u32)];
        assert_eq!(fused_scan(&preds, OutputMode::Count).count(), 1000);
    }
}
