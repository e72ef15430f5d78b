//! AVX-512 Fused Table Scan kernels (paper §III, Fig. 3): the skeleton of
//! [`crate::fused::skeleton`] stamped for [`Avx512`], 4, 8 or 16 lanes of
//! `u32`, `i32` or `f32`. Its [`Reg32`] registers and element [`Lanes`]
//! also serve the 64-bit and packed families.
//!
//! The instruction mapping is the paper's:
//!
//! | step | instruction |
//! |------|-------------|
//! | block load            | `vmovdqu32` (`_mm*_maskz_loadu_epi32`), masked for the tail |
//! | driver compare        | `vpcmpud`/`vpcmpd`/`vcmpps` → k-mask |
//! | offsets → position list | `vpcompressd` (`_mm*_maskz_compress_epi32`) |
//! | append to list        | `vpermt2d` (`_mm*_permutex2var_epi32`) with a per-length control |
//! | follow-up fetch       | `vpgatherdd` masked (`_mm*_mmask_i32gather_epi32`) |
//! | follow-up compare     | masked `vpcmpud`/… keeping the bitmask in `k` registers |
//!
//! Values are carried in integer registers regardless of element kind:
//! `f32` only reinterprets the lanes at the compare (`vcmpps` on the same
//! bits), so the whole position-list machinery is shared.
//!
//! The entries panic unless [`fts_simd::has_avx512`] holds; the engine
//! layer ([`crate::engine`]) routes around that.

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)] // one primitive = one intrinsic sequence

use std::arch::x86_64::*;
use std::marker::PhantomData;

use fts_simd::has_avx512;
use fts_simd::model::lane_mask;
use fts_storage::CmpOp;

use crate::engine::RegWidth;
use crate::fused::skeleton::{fused_skeleton, split, Family, LaneBits, Lanes, Positions};
use crate::fused::{MERGE16, MERGE4, MERGE8};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

fused_skeleton!("avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt");

/// A register of 32-bit lanes: a position list, and the value fetches
/// that do not depend on the element kind.
///
/// # Safety
///
/// Every `unsafe fn` needs AVX-512 F and VL on the running host, and reads
/// only the elements it names: `src[..n]`, or `base[idx[i]]` for the lanes
/// `i` set in `k`, which must exist.
pub(crate) trait Reg32: Positions {
    /// Load `src[..n]`, zeroing lanes `n..` without reading them; a whole
    /// register loads unmasked.
    unsafe fn load(src: *const u32, n: usize) -> Self;
    /// Load `base[idx[i]]` for the lanes `i` set in `k`.
    unsafe fn gather(base: *const u32, idx: Self, k: u32) -> Self;
}

macro_rules! reg32 {
    ($v:ty, $lanes:literal, $kmask:ty, $iota:expr, $merge:ident, $set1:ident, $setzero:ident,
     $add:ident, $loadu:ident, $maskz_loadu:ident, $storeu:ident,
     $maskz_compress:ident, $permutex2var:ident, $mask_gather:ident) => {
        impl Positions for $v {
            const LANES: usize = $lanes;

            #[inline(always)]
            unsafe fn zero() -> Self {
                $setzero()
            }

            #[inline(always)]
            unsafe fn iota(base: usize) -> Self {
                // SAFETY: a register is its lanes' bits.
                const IOTA: $v = unsafe { std::mem::transmute::<[u32; $lanes], $v>($iota) };
                $add(IOTA, $set1(base as i32))
            }

            #[inline(always)]
            unsafe fn compress(k: u32, list: Self) -> Self {
                $maskz_compress(k as $kmask, list)
            }

            #[inline(always)]
            unsafe fn append(list: Self, len: usize, fresh: Self) -> Self {
                let ctl = $loadu($merge[len].as_ptr() as *const i32);
                $permutex2var(list, ctl, fresh)
            }

            #[inline(always)]
            unsafe fn store(dst: *mut u32, list: Self) {
                $storeu(dst as *mut i32, list)
            }
        }

        impl Reg32 for $v {
            #[inline(always)]
            unsafe fn load(src: *const u32, n: usize) -> Self {
                if n == $lanes {
                    $loadu(src as *const i32)
                } else {
                    $maskz_loadu(lane_mask(n) as $kmask, src as *const i32)
                }
            }

            #[inline(always)]
            unsafe fn gather(base: *const u32, idx: Self, k: u32) -> Self {
                $mask_gather::<4>($setzero(), k as $kmask, idx, base as *const i32)
            }
        }
    };
}

reg32!(
    __m128i,
    4,
    __mmask8,
    [0, 1, 2, 3],
    MERGE4,
    _mm_set1_epi32,
    _mm_setzero_si128,
    _mm_add_epi32,
    _mm_loadu_epi32,
    _mm_maskz_loadu_epi32,
    _mm_storeu_epi32,
    _mm_maskz_compress_epi32,
    _mm_permutex2var_epi32,
    _mm_mmask_i32gather_epi32
);
reg32!(
    __m256i,
    8,
    __mmask8,
    [0, 1, 2, 3, 4, 5, 6, 7],
    MERGE8,
    _mm256_set1_epi32,
    _mm256_setzero_si256,
    _mm256_add_epi32,
    _mm256_loadu_epi32,
    _mm256_maskz_loadu_epi32,
    _mm256_storeu_epi32,
    _mm256_maskz_compress_epi32,
    _mm256_permutex2var_epi32,
    _mm256_mmask_i32gather_epi32
);
reg32!(
    __m512i,
    16,
    __mmask16,
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    MERGE16,
    _mm512_set1_epi32,
    _mm512_setzero_si512,
    _mm512_add_epi32,
    _mm512_loadu_epi32,
    _mm512_maskz_loadu_epi32,
    _mm512_storeu_epi32,
    _mm512_maskz_compress_epi32,
    _mm512_permutex2var_epi32,
    _mm512_mask_i32gather_epi32
);

// One row per element kind and register. A `match` over a loop-invariant
// `CmpOp` compiles to one well-predicted branch; the JIT backend in
// `fts-jit` removes even that.
macro_rules! lanes {
    (@impl $t:ty, $v:ty, $kmask:ty, $set1:ident, $bits:ty, $cmp:ident, $mask_cmp:ident,
     [$($cast:ident)?] $eq:ident, $ne:ident, $lt:ident, $le:ident, $gt:ident, $ge:ident) => {
        impl Lanes<$v> for $t {
            #[inline(always)]
            unsafe fn splat(self) -> $v {
                $set1(self.bits() as $bits)
            }

            #[inline(always)]
            unsafe fn cmp(op: CmpOp, a: $v, b: $v) -> u32 {
                $(let (a, b) = ($cast(a), $cast(b));)?
                (match op {
                    CmpOp::Eq => $cmp::<$eq>(a, b),
                    CmpOp::Ne => $cmp::<$ne>(a, b),
                    CmpOp::Lt => $cmp::<$lt>(a, b),
                    CmpOp::Le => $cmp::<$le>(a, b),
                    CmpOp::Gt => $cmp::<$gt>(a, b),
                    CmpOp::Ge => $cmp::<$ge>(a, b),
                }) as u32
            }

            #[inline(always)]
            unsafe fn mask_cmp(k: u32, op: CmpOp, a: $v, b: $v) -> u32 {
                $(let (a, b) = ($cast(a), $cast(b));)?
                let k = k as $kmask;
                (match op {
                    CmpOp::Eq => $mask_cmp::<$eq>(k, a, b),
                    CmpOp::Ne => $mask_cmp::<$ne>(k, a, b),
                    CmpOp::Lt => $mask_cmp::<$lt>(k, a, b),
                    CmpOp::Le => $mask_cmp::<$le>(k, a, b),
                    CmpOp::Gt => $mask_cmp::<$gt>(k, a, b),
                    CmpOp::Ge => $mask_cmp::<$ge>(k, a, b),
                }) as u32
            }
        }
    };
    // Integer lanes: `NLE` is `>` and `NLT` is `>=`.
    (int: $($t:ty, $v:ty, $kmask:ty, $set1:ident, $bits:ty, $cmp:ident, $mask_cmp:ident;)*) => {$(
        lanes!(@impl $t, $v, $kmask, $set1, $bits, $cmp, $mask_cmp, []
            _MM_CMPINT_EQ, _MM_CMPINT_NE, _MM_CMPINT_LT, _MM_CMPINT_LE, _MM_CMPINT_NLE, _MM_CMPINT_NLT);
    )*};
    // Float lanes, compared on the integer lanes' bits. Ordered, quiet
    // predicates: NaN lanes compare false for every operator, matching
    // `NativeType::cmp_op`.
    (float: $($t:ty, $v:ty, $kmask:ty, $set1:ident, $bits:ty, $cmp:ident, $mask_cmp:ident,
     $cast:ident;)*) => {$(
        lanes!(@impl $t, $v, $kmask, $set1, $bits, $cmp, $mask_cmp, [$cast]
            _CMP_EQ_OQ, _CMP_NEQ_OQ, _CMP_LT_OS, _CMP_LE_OS, _CMP_GT_OS, _CMP_GE_OS);
    )*};
}

lanes! { int:
    u32, __m128i, __mmask8, _mm_set1_epi32, i32, _mm_cmp_epu32_mask, _mm_mask_cmp_epu32_mask;
    u32, __m256i, __mmask8, _mm256_set1_epi32, i32, _mm256_cmp_epu32_mask, _mm256_mask_cmp_epu32_mask;
    u32, __m512i, __mmask16, _mm512_set1_epi32, i32, _mm512_cmp_epu32_mask, _mm512_mask_cmp_epu32_mask;
    i32, __m128i, __mmask8, _mm_set1_epi32, i32, _mm_cmp_epi32_mask, _mm_mask_cmp_epi32_mask;
    i32, __m256i, __mmask8, _mm256_set1_epi32, i32, _mm256_cmp_epi32_mask, _mm256_mask_cmp_epi32_mask;
    i32, __m512i, __mmask16, _mm512_set1_epi32, i32, _mm512_cmp_epi32_mask, _mm512_mask_cmp_epi32_mask;
    u64, __m512i, __mmask8, _mm512_set1_epi64, i64, _mm512_cmp_epu64_mask, _mm512_mask_cmp_epu64_mask;
    i64, __m512i, __mmask8, _mm512_set1_epi64, i64, _mm512_cmp_epi64_mask, _mm512_mask_cmp_epi64_mask;
}

lanes! { float:
    f32, __m128i, __mmask8, _mm_set1_epi32, i32, _mm_cmp_ps_mask, _mm_mask_cmp_ps_mask, _mm_castsi128_ps;
    f32, __m256i, __mmask8, _mm256_set1_epi32, i32, _mm256_cmp_ps_mask, _mm256_mask_cmp_ps_mask,
        _mm256_castsi256_ps;
    f32, __m512i, __mmask16, _mm512_set1_epi32, i32, _mm512_cmp_ps_mask, _mm512_mask_cmp_ps_mask,
        _mm512_castsi512_ps;
    f64, __m512i, __mmask8, _mm512_set1_epi64, i64, _mm512_cmp_pd_mask, _mm512_mask_cmp_pd_mask,
        _mm512_castsi512_pd;
}

/// The AVX-512 family over 32-bit lanes: `T` values and their positions
/// share register `V` (4, 8 or 16 lanes).
pub(crate) struct Avx512<T, V>(PhantomData<(T, V)>);

impl<T: Lanes<V>, V: Reg32> Family for Avx512<T, V> {
    type Col<'a> = &'a [T];
    type Elem = T;
    type Vals = V;
    type List = V;

    fn available() -> bool {
        has_avx512()
    }

    #[inline(always)]
    unsafe fn load(col: &[T], row: usize, n: usize) -> V {
        const {
            assert!(
                std::mem::size_of::<T>() == 4,
                "32-bit lanes hold 4-byte values"
            )
        };
        V::load(col.as_ptr().add(row) as *const u32, n)
    }

    #[inline(always)]
    unsafe fn gather(col: &[T], list: V, k: u32) -> V {
        V::gather(col.as_ptr() as *const u32, list, k)
    }
}

/// Run a chain of 32-bit values on the AVX-512 kernel at `width`. Panics
/// without AVX-512 or on an invalid chain (ragged columns, more than
/// [`crate::fused::MAX_PREDICATES`] predicates).
pub(crate) fn fused_scan<T>(
    width: RegWidth,
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
) -> ScanOutput
where
    T: Lanes<__m128i> + Lanes<__m256i> + Lanes<__m512i>,
{
    let (cols, ops, needles) = split(preds);
    match width {
        RegWidth::W128 => scan::<Avx512<T, __m128i>>(&cols, &ops, &needles, mode),
        RegWidth::W256 => scan::<Avx512<T, __m256i>>(&cols, &ops, &needles, mode),
        RegWidth::W512 => scan::<Avx512<T, __m512i>>(&cols, &ops, &needles, mode),
    }
}

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
            (
                "w128",
                fused_scan(RegWidth::W128, preds, OutputMode::Positions),
            ),
            (
                "w256",
                fused_scan(RegWidth::W256, preds, OutputMode::Positions),
            ),
            (
                "w512",
                fused_scan(RegWidth::W512, preds, OutputMode::Positions),
            ),
        ] {
            assert_eq!(out.positions().unwrap(), &expected, "{name} positions");
        }
        for (name, out) in [
            ("w128", fused_scan(RegWidth::W128, preds, OutputMode::Count)),
            ("w256", fused_scan(RegWidth::W256, preds, OutputMode::Count)),
            ("w512", fused_scan(RegWidth::W512, preds, OutputMode::Count)),
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
        let out = fused_scan(RegWidth::W128, &preds, OutputMode::Positions);
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
                fused_scan(RegWidth::W128, &preds, OutputMode::Positions),
                fused_scan(RegWidth::W256, &preds, OutputMode::Positions),
                fused_scan(RegWidth::W512, &preds, OutputMode::Positions),
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
                fused_scan(RegWidth::W128, &preds, OutputMode::Positions),
                fused_scan(RegWidth::W256, &preds, OutputMode::Positions),
                fused_scan(RegWidth::W512, &preds, OutputMode::Positions),
            ] {
                assert_eq!(out.positions().unwrap(), &expected, "{op}");
            }
        }
    }
}
