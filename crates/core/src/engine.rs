//! Runtime dispatch over scan implementations.
//!
//! The benchmark harness and the query executor pick a [`ScanImpl`] — one of
//! the paper's six evaluated configurations plus the auxiliary baselines —
//! and this module routes it to the right kernel for the chain's element
//! type, or reports why it cannot ([`EngineError`]).

use fts_simd::{detect, SimdLevel};
use fts_storage::{DataType, NativeType, PosList};

use crate::pred::{OutputMode, ScanOutput, TypedPred};
use crate::telemetry::ScanTelemetry;
use crate::{blockwise, fused, sisd};

/// AVX register width used by a fused kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegWidth {
    /// 128-bit xmm registers (4 × 32-bit lanes).
    W128,
    /// 256-bit ymm registers (8 lanes).
    W256,
    /// 512-bit zmm registers (16 lanes).
    W512,
}

impl RegWidth {
    /// Lane count for 32-bit elements.
    pub fn lanes32(self) -> usize {
        match self {
            RegWidth::W128 => 4,
            RegWidth::W256 => 8,
            RegWidth::W512 => 16,
        }
    }

    /// Register width in bits.
    pub fn bits(self) -> usize {
        self.lanes32() * 32
    }
}

/// A scan implementation, named after the paper's Fig. 5 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanImpl {
    /// *SISD (no vec)*: tuple-at-a-time with short-circuit branches (§II).
    SisdBranching,
    /// *SISD (auto vec)*: branch-free tuple-at-a-time the compiler
    /// auto-vectorizes.
    SisdAutoVec,
    /// Block-at-a-time with one materialized bitmask per predicate.
    BlockBitmap,
    /// Block-at-a-time with per-block selection vectors.
    BlockSelVec,
    /// Portable fused engine on the semantic models (any ISA); lane count
    /// mirrors a register width.
    FusedScalar(RegWidth),
    /// *AVX2 Fused (128)*: the backport with emulated compress/permute.
    FusedAvx2,
    /// *AVX-512 Fused (128/256/512)*.
    FusedAvx512(RegWidth),
}

impl ScanImpl {
    /// The six configurations of paper Fig. 5, in legend order.
    pub const PAPER_FIG5: [ScanImpl; 6] = [
        ScanImpl::SisdBranching,
        ScanImpl::SisdAutoVec,
        ScanImpl::FusedAvx2,
        ScanImpl::FusedAvx512(RegWidth::W128),
        ScanImpl::FusedAvx512(RegWidth::W256),
        ScanImpl::FusedAvx512(RegWidth::W512),
    ];

    /// Short name used in benchmark output (matches the paper's legend).
    pub fn name(self) -> &'static str {
        match self {
            ScanImpl::SisdBranching => "SISD (no vec)",
            ScanImpl::SisdAutoVec => "SISD (auto vec)",
            ScanImpl::BlockBitmap => "Block bitmap",
            ScanImpl::BlockSelVec => "Block selvec",
            ScanImpl::FusedScalar(RegWidth::W128) => "Scalar Fused (128)",
            ScanImpl::FusedScalar(RegWidth::W256) => "Scalar Fused (256)",
            ScanImpl::FusedScalar(RegWidth::W512) => "Scalar Fused (512)",
            ScanImpl::FusedAvx2 => "AVX2 Fused (128)",
            ScanImpl::FusedAvx512(RegWidth::W128) => "AVX-512 Fused (128)",
            ScanImpl::FusedAvx512(RegWidth::W256) => "AVX-512 Fused (256)",
            ScanImpl::FusedAvx512(RegWidth::W512) => "AVX-512 Fused (512)",
        }
    }

    /// Whether the host ISA can run this implementation.
    pub fn available(self) -> bool {
        match self {
            ScanImpl::FusedAvx2 => detect() >= SimdLevel::Avx2,
            ScanImpl::FusedAvx512(_) => detect() >= SimdLevel::Avx512,
            _ => true,
        }
    }
}

/// Why a scan could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The host lacks the instruction set the implementation needs.
    IsaUnavailable(ScanImpl),
    /// The element type has no kernel for this implementation (the SIMD
    /// kernels cover the 32-bit types; route other types through
    /// dictionary encoding or the scalar engine).
    TypeUnsupported {
        /// Requested implementation.
        imp: &'static str,
        /// Element type of the chain.
        ty: DataType,
    },
    /// Chain longer than [`fused::MAX_PREDICATES`].
    ChainTooLong(usize),
    /// The scheduler's admission budget rejected the work: the bounded
    /// wait queue was full, or the request's declared cost exceeds the
    /// configured budget outright (see
    /// [`AdmissionController`](crate::sched::AdmissionController)).
    Overloaded {
        /// Queries running when the request was rejected.
        running: usize,
        /// Requests already waiting in the bounded queue.
        queued: usize,
        /// `(cost, budget)` when the request alone exceeds the byte
        /// budget and could never be admitted; `None` for queue pressure.
        oversized: Option<(u64, u64)>,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::IsaUnavailable(i) => write!(f, "{} not available on this host", i.name()),
            EngineError::TypeUnsupported { imp, ty } => {
                write!(f, "{imp} has no kernel for element type {ty}")
            }
            EngineError::ChainTooLong(n) => {
                write!(f, "{n} predicates exceed the fused-kernel limit")
            }
            EngineError::Overloaded {
                running,
                queued,
                oversized,
            } => match oversized {
                Some((cost, budget)) => write!(
                    f,
                    "overloaded: request cost {cost} B exceeds the {budget} B admission budget"
                ),
                None => write!(
                    f,
                    "overloaded: admission queue full ({running} running, {queued} queued)"
                ),
            },
        }
    }
}

impl std::error::Error for EngineError {}

/// Element types that have hardware fused kernels. The other seven native
/// types run through the scalar engine or a dictionary-encoded `u32` scan.
pub trait ScanElem: NativeType {
    /// Run the AVX2 fused kernel, if one exists for this type.
    fn fused_avx2(preds: &[TypedPred<'_, Self>], mode: OutputMode) -> Option<ScanOutput> {
        let _ = (preds, mode);
        None
    }

    /// Run the AVX-512 fused kernel at `width`, if one exists for this type.
    fn fused_avx512(
        width: RegWidth,
        preds: &[TypedPred<'_, Self>],
        mode: OutputMode,
    ) -> Option<ScanOutput> {
        let _ = (width, preds, mode);
        None
    }
}

macro_rules! impl_scan_elem_32 {
    ($($t:ty),*) => {$(
        impl ScanElem for $t {
            #[cfg(target_arch = "x86_64")]
            fn fused_avx2(preds: &[TypedPred<'_, Self>], mode: OutputMode) -> Option<ScanOutput> {
                Some(fused::avx2::fused_scan(preds, mode))
            }

            #[cfg(target_arch = "x86_64")]
            fn fused_avx512(
                width: RegWidth,
                preds: &[TypedPred<'_, Self>],
                mode: OutputMode,
            ) -> Option<ScanOutput> {
                Some(fused::avx512::fused_scan(width, preds, mode))
            }
        }
    )*};
}

impl_scan_elem_32!(u32, i32, f32);

macro_rules! impl_scan_elem_64 {
    ($($t:ty),*) => {$(
        impl ScanElem for $t {
            #[cfg(target_arch = "x86_64")]
            fn fused_avx512(
                width: RegWidth,
                preds: &[TypedPred<'_, Self>],
                mode: OutputMode,
            ) -> Option<ScanOutput> {
                // 8-byte lanes exist at full zmm width only (8 lanes).
                match width {
                    RegWidth::W512 => Some(fused::w64::fused_scan(preds, mode)),
                    RegWidth::W128 | RegWidth::W256 => None,
                }
            }
        }
    )*};
}

impl_scan_elem_64!(u64, i64, f64);
impl ScanElem for u8 {}
impl ScanElem for u16 {}
impl ScanElem for i8 {}
impl ScanElem for i16 {}

fn positions_to_output(pl: PosList, mode: OutputMode) -> ScanOutput {
    match mode {
        OutputMode::Count => ScanOutput::Count(pl.len() as u64),
        OutputMode::Positions => ScanOutput::Positions(pl),
    }
}

/// Run `preds` with the chosen implementation.
///
/// ```
/// use fts_core::{run_scan, OutputMode, RegWidth, ScanImpl, TypedPred};
///
/// let a: Vec<u32> = (0..100).map(|i| i % 10).collect();
/// let b: Vec<u32> = (0..100).map(|i| i % 4).collect();
/// let preds = [TypedPred::eq(&a[..], 5), TypedPred::eq(&b[..], 1)];
/// // The portable engine runs on any machine; hardware kernels via
/// // ScanImpl::FusedAvx512(..) when available.
/// let out = run_scan(ScanImpl::FusedScalar(RegWidth::W512), &preds, OutputMode::Positions)
///     .unwrap();
/// assert_eq!(out.count(), 5);
/// ```
pub fn run_scan<T: ScanElem>(
    imp: ScanImpl,
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
) -> Result<ScanOutput, EngineError> {
    if preds.len() > fused::MAX_PREDICATES {
        return Err(EngineError::ChainTooLong(preds.len()));
    }
    if !imp.available() {
        return Err(EngineError::IsaUnavailable(imp));
    }
    Ok(match imp {
        ScanImpl::SisdBranching => match mode {
            OutputMode::Count => ScanOutput::Count(sisd::branching_count(preds)),
            OutputMode::Positions => ScanOutput::Positions(sisd::branching_positions(preds)),
        },
        ScanImpl::SisdAutoVec => match mode {
            OutputMode::Count => ScanOutput::Count(sisd::branchfree_count(preds)),
            OutputMode::Positions => ScanOutput::Positions(sisd::branchfree_positions(preds)),
        },
        ScanImpl::BlockBitmap => match mode {
            OutputMode::Count => ScanOutput::Count(blockwise::bitmap_scan_count(preds)),
            OutputMode::Positions => ScanOutput::Positions(blockwise::bitmap_scan(preds)),
        },
        ScanImpl::BlockSelVec => positions_to_output(
            blockwise::block_scan(preds, blockwise::DEFAULT_BLOCK_ROWS),
            mode,
        ),
        ScanImpl::FusedScalar(w) => match w {
            RegWidth::W128 => fused::scalar::fused_scan_model::<T, 4>(preds, mode),
            RegWidth::W256 => fused::scalar::fused_scan_model::<T, 8>(preds, mode),
            RegWidth::W512 => fused::scalar::fused_scan_model::<T, 16>(preds, mode),
        },
        ScanImpl::FusedAvx2 => T::fused_avx2(preds, mode).ok_or(EngineError::TypeUnsupported {
            imp: "AVX2 Fused",
            ty: T::DATA_TYPE,
        })?,
        ScanImpl::FusedAvx512(w) => {
            T::fused_avx512(w, preds, mode).ok_or(EngineError::TypeUnsupported {
                imp: "AVX-512 Fused",
                ty: T::DATA_TYPE,
            })?
        }
    })
}

/// Run `preds` with the chosen implementation and collect its
/// [`ScanTelemetry`]: the real kernel is timed, and its stage statistics
/// are collected afterwards (see [`crate::telemetry`] for the
/// replay/analytic strategy and its one-extra-pass cost).
pub fn run_scan_telemetered<T: ScanElem>(
    imp: ScanImpl,
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
) -> Result<(ScanOutput, ScanTelemetry), EngineError> {
    let started = std::time::Instant::now();
    let out = run_scan(imp, preds, mode)?;
    let wall = started.elapsed();
    let mut telemetry = crate::telemetry::collect(imp, preds);
    telemetry.wall = wall;
    Ok((out, telemetry))
}

/// The best fused implementation the host and element type support: the
/// first fused kernel of [`candidate_scan_impls`](crate::candidate_scan_impls)
/// (AVX-512 (512-bit), then AVX2), else the scalar model engine.
pub fn best_fused_impl<T: ScanElem>() -> ScanImpl {
    crate::adaptive::candidate_scan_impls::<T>()
        .into_iter()
        .find(|imp| matches!(imp, ScanImpl::FusedAvx2 | ScanImpl::FusedAvx512(_)))
        .unwrap_or(ScanImpl::FusedScalar(RegWidth::W512))
}

/// Run the chain with [`best_fused_impl`].
pub fn run_fused_auto<T: ScanElem>(preds: &[TypedPred<'_, T>], mode: OutputMode) -> ScanOutput {
    run_scan(best_fused_impl::<T>(), preds, mode).expect("auto impl is always available")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fts_storage::CmpOp;

    fn all_impls() -> Vec<ScanImpl> {
        let mut v = vec![
            ScanImpl::SisdBranching,
            ScanImpl::SisdAutoVec,
            ScanImpl::BlockBitmap,
            ScanImpl::BlockSelVec,
            ScanImpl::FusedScalar(RegWidth::W128),
            ScanImpl::FusedScalar(RegWidth::W256),
            ScanImpl::FusedScalar(RegWidth::W512),
        ];
        if ScanImpl::FusedAvx2.available() {
            v.push(ScanImpl::FusedAvx2);
        }
        for w in [RegWidth::W128, RegWidth::W256, RegWidth::W512] {
            if ScanImpl::FusedAvx512(w).available() {
                v.push(ScanImpl::FusedAvx512(w));
            }
        }
        v
    }

    #[test]
    fn every_impl_agrees_u32() {
        let a: Vec<u32> = (0..2000).map(|i| i % 17).collect();
        let b: Vec<u32> = (0..2000).map(|i| (i * 5) % 11).collect();
        let preds = [
            TypedPred::new(&a[..], CmpOp::Le, 8u32),
            TypedPred::new(&b[..], CmpOp::Ne, 3u32),
        ];
        let expected = reference::scan_positions(&preds);
        for imp in all_impls() {
            let got = run_scan(imp, &preds, OutputMode::Positions).unwrap();
            assert_eq!(got.positions().unwrap(), &expected, "{}", imp.name());
            let got = run_scan(imp, &preds, OutputMode::Count).unwrap();
            assert_eq!(got.count(), expected.len() as u64, "{} count", imp.name());
        }
    }

    #[test]
    fn unsupported_type_for_hw_kernels() {
        let a = [1u16, 2, 3];
        let preds = [TypedPred::eq(&a[..], 2u16)];
        if ScanImpl::FusedAvx2.available() {
            let err = run_scan(ScanImpl::FusedAvx2, &preds, OutputMode::Count).unwrap_err();
            assert!(matches!(err, EngineError::TypeUnsupported { .. }));
        }
        // 8-byte lanes only exist at 512 bits.
        if ScanImpl::FusedAvx512(RegWidth::W128).available() {
            let b = [1u64, 2, 3];
            let p64 = [TypedPred::eq(&b[..], 2u64)];
            let err = run_scan(
                ScanImpl::FusedAvx512(RegWidth::W128),
                &p64,
                OutputMode::Count,
            )
            .unwrap_err();
            assert!(matches!(err, EngineError::TypeUnsupported { .. }));
            let ok = run_scan(
                ScanImpl::FusedAvx512(RegWidth::W512),
                &p64,
                OutputMode::Count,
            );
            assert_eq!(ok.unwrap().count(), 1);
        }
        // But the scalar fused engine handles it.
        let got = run_scan(
            ScanImpl::FusedScalar(RegWidth::W512),
            &preds,
            OutputMode::Count,
        );
        assert_eq!(got.unwrap().count(), 1);
    }

    #[test]
    fn chain_length_guard() {
        let a = [1u32];
        let preds = vec![TypedPred::eq(&a[..], 1u32); fused::MAX_PREDICATES + 1];
        let err = run_scan(ScanImpl::SisdAutoVec, &preds, OutputMode::Count).unwrap_err();
        assert_eq!(err, EngineError::ChainTooLong(fused::MAX_PREDICATES + 1));
    }

    #[test]
    fn auto_dispatch_picks_an_available_impl() {
        let imp = best_fused_impl::<u32>();
        assert!(imp.available());
        let imp64 = best_fused_impl::<u64>();
        if fts_simd::detect() >= fts_simd::SimdLevel::Avx512 {
            assert_eq!(imp64, ScanImpl::FusedAvx512(RegWidth::W512));
        } else {
            assert!(matches!(imp64, ScanImpl::FusedScalar(_)));
        }
        // 8-bit types still use the scalar engine.
        assert!(matches!(best_fused_impl::<u8>(), ScanImpl::FusedScalar(_)));
    }

    #[test]
    fn names_and_availability() {
        assert_eq!(
            ScanImpl::FusedAvx512(RegWidth::W512).name(),
            "AVX-512 Fused (512)"
        );
        assert_eq!(RegWidth::W256.bits(), 256);
        assert_eq!(RegWidth::W128.lanes32(), 4);
        assert!(ScanImpl::SisdBranching.available());
        assert_eq!(ScanImpl::PAPER_FIG5.len(), 6);
    }
}
