//! Native AVX-512 fused kernels for 8-byte element types (`u64`, `i64`,
//! `f64`): the skeleton of [`crate::fused::skeleton`] stamped for the
//! 64-bit family.
//!
//! Extension beyond the paper's 4-byte running example: values travel in
//! full 512-bit registers (8 lanes), while the position list stays a
//! 256-bit register of eight 32-bit row offsets, so the whole compress /
//! permutex2var machinery runs at dword granularity exactly like the u32
//! kernels, and the follow-up fetch uses `vpgatherdq` (dword indexes →
//! qword values). This is the same dual-width layout §V's splitting
//! discussion leads to, just made a first-class kernel: no list splitting
//! is needed because the list is sized to the value register from the
//! start.

#![cfg(target_arch = "x86_64")]
#![allow(unsafe_op_in_unsafe_fn)] // one primitive = one intrinsic sequence

use std::arch::x86_64::*;
use std::marker::PhantomData;

use fts_simd::has_avx512;
use fts_simd::model::lane_mask;

use crate::fused::skeleton::{fused_skeleton, split, Family, Lanes};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

fused_skeleton!("avx512f,avx512vl,avx512bw,avx512dq,avx2,popcnt");

/// The AVX-512 family over 64-bit lanes: eight `T` values in a zmm
/// register, their positions in a ymm register.
pub(crate) struct W64<T>(PhantomData<T>);

impl<T: Lanes<__m512i>> Family for W64<T> {
    type Col<'a> = &'a [T];
    type Elem = T;
    type Vals = __m512i;
    type List = __m256i;

    fn available() -> bool {
        has_avx512()
    }

    #[inline(always)]
    unsafe fn load(col: &[T], row: usize, n: usize) -> __m512i {
        const {
            assert!(
                std::mem::size_of::<T>() == 8,
                "64-bit lanes hold 8-byte values"
            )
        };
        let src = col.as_ptr().add(row) as *const i64;
        if n == 8 {
            _mm512_loadu_epi64(src)
        } else {
            _mm512_maskz_loadu_epi64(lane_mask(n) as __mmask8, src)
        }
    }

    #[inline(always)]
    unsafe fn gather(col: &[T], list: __m256i, k: u32) -> __m512i {
        // Dword positions gather qword values.
        _mm512_mask_i32gather_epi64::<8>(
            _mm512_setzero_si512(),
            k as __mmask8,
            list,
            col.as_ptr() as *const i64,
        )
    }
}

/// Run a chain of 64-bit values on the AVX-512 kernel (512-bit values).
/// Panics without AVX-512 or on an invalid chain (ragged columns, more
/// than [`crate::fused::MAX_PREDICATES`] predicates).
pub(crate) fn fused_scan<T: Lanes<__m512i>>(
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
) -> ScanOutput {
    let (cols, ops, needles) = split(preds);
    scan::<W64<T>>(&cols, &ops, &needles, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fts_storage::CmpOp;

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
                let got = fused_scan(&preds, OutputMode::Positions);
                assert_eq!(got.positions().unwrap(), &expected, "{op0} {op1}");
                let got = fused_scan(&preds, OutputMode::Count);
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
            let got = fused_scan(&preds, OutputMode::Positions);
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
            let got = fused_scan(&preds, OutputMode::Positions);
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
                let got = fused_scan(&preds, OutputMode::Positions);
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
            let got = fused_scan(&preds, OutputMode::Count);
            assert_eq!(got.count(), expected);
        }
    }
}
