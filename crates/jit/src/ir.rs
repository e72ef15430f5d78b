//! The scan-chain IR handed to the compilers — the "runtime parameters"
//! of paper §V: element type, comparison operator, literal and column
//! storage (plain, or bit-packed at some width, §VII) per predicate, which
//! adjacent predicates read one column (and so form one fused stage), and
//! whether the operator must emit a position list or only a count. The JIT
//! specializes all of them into the emitted code (needles become
//! immediates, operators become instruction immediates, a packed width
//! becomes its unpack sequence), which is why the number of static
//! instantiations would otherwise explode.

use fts_core::fused::Stages;
use fts_storage::{CmpOp, DataType};

use crate::kernel::JitRunElem;

/// Maximum chain length one compiled kernel supports (the paper evaluates
/// up to 5 predicates; the register allocation in the AVX-512 backend is
/// laid out for this bound).
pub const MAX_JIT_PREDICATES: usize = 5;

/// Element kinds with JIT backends (the 4- and 8-byte types; narrower
/// widths route through dictionary encoding to `u32`, see `fts-storage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JitElem {
    /// Unsigned 32-bit integers (`vpcmpud`).
    U32,
    /// Signed 32-bit integers (`vpcmpd`).
    I32,
    /// Single-precision floats (`vcmpps`, ordered predicates).
    F32,
    /// Unsigned 64-bit integers (`vpcmpuq`).
    U64,
    /// Signed 64-bit integers (`vpcmpq`).
    I64,
    /// Double-precision floats (`vcmppd`, ordered predicates).
    F64,
}

impl JitElem {
    /// The storage-level type tag.
    pub fn data_type(self) -> DataType {
        match self {
            JitElem::U32 => DataType::U32,
            JitElem::I32 => DataType::I32,
            JitElem::F32 => DataType::F32,
            JitElem::U64 => DataType::U64,
            JitElem::I64 => DataType::I64,
            JitElem::F64 => DataType::F64,
        }
    }

    /// Lanes per 512-bit value register (= rows per kernel block).
    pub fn lanes(self) -> usize {
        match self {
            JitElem::U32 | JitElem::I32 | JitElem::F32 => 16,
            JitElem::U64 | JitElem::I64 | JitElem::F64 => 8,
        }
    }

    /// Whether the element is 8 bytes wide.
    pub fn is_wide(self) -> bool {
        self.lanes() == 8
    }
}

/// How a predicate's column stores its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Storage {
    /// One element of the chain's kind per row.
    Plain,
    /// Bit-packed unsigned values, `bits` per row (legal only in a `u32`
    /// chain; a driver packs at most 16 bits, a follower at most 32).
    Packed {
        /// Bits per value.
        bits: u8,
    },
}

/// One predicate: operator, the literal's raw lane bits, the column's
/// storage and whether the column is the previous predicate's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JitPred {
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal bits (32-bit kinds use the low half; `f64::to_bits` etc.
    /// for the 8-byte kinds).
    pub needle_bits: u64,
    /// The column's storage.
    pub storage: Storage,
    /// Whether the predicate reads the previous predicate's column: it then
    /// joins that predicate's stage and compares the values the stage
    /// already loaded or gathered (see [`ScanSig::stages`]).
    pub same_column: bool,
}

impl JitPred {
    /// A predicate over a plain column.
    pub fn plain(op: CmpOp, needle_bits: u64) -> JitPred {
        JitPred {
            op,
            needle_bits,
            storage: Storage::Plain,
            same_column: false,
        }
    }

    /// A predicate over a `bits`-wide packed `u32` column. The needle must
    /// fit the width: resolve out-of-domain literals before building the
    /// signature, as `fts_core::fused::packed` does.
    pub fn packed(bits: u8, op: CmpOp, needle: u32) -> JitPred {
        JitPred {
            op,
            needle_bits: needle as u64,
            storage: Storage::Packed { bits },
            same_column: false,
        }
    }
}

/// A full scan-chain signature — also the kernel-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScanSig {
    /// Element kind shared by all columns of the chain.
    pub elem: JitElem,
    /// The predicates in evaluation order.
    pub preds: Vec<JitPred>,
    /// Whether the kernel writes matching positions (true) or only counts.
    pub emit_positions: bool,
}

impl ScanSig {
    /// Signature for a chain of plain columns of element type `T`.
    pub fn chain<T: JitRunElem>(preds: &[(CmpOp, T)], emit_positions: bool) -> ScanSig {
        ScanSig {
            elem: T::ELEM,
            preds: preds
                .iter()
                .map(|&(op, n)| JitPred::plain(op, n.to_bits()))
                .collect(),
            emit_positions,
        }
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Whether some predicate reads a bit-packed column.
    pub fn has_packed(&self) -> bool {
        self.preds.iter().any(|p| p.storage != Storage::Plain)
    }

    /// Mark the chain's same-column runs: `cols` yields each predicate's
    /// column identity (such as its data's address and length), and a
    /// predicate whose identity equals the previous one's reads that
    /// predicate's column.
    pub fn with_columns<I: PartialEq>(mut self, cols: impl IntoIterator<Item = I>) -> ScanSig {
        let mut prev = None;
        for (pred, col) in self.preds.iter_mut().zip(cols) {
            pred.same_column = prev.as_ref() == Some(&col);
            prev = Some(col);
        }
        self
    }

    /// The chain's fused stages: each maximal run of predicates on one
    /// column (per [`JitPred::same_column`]) is one stage, stage 0 drives.
    pub fn stages(&self) -> Stages {
        let mut column = 0usize;
        Stages::of(self.preds.iter().map(|p| {
            column += usize::from(!p.same_column);
            column
        }))
    }
}

/// The argument block passed to every compiled kernel (SysV: pointer in
/// `rdi`). Field offsets are part of the emitted code's ABI — keep in sync
/// with the compilers.
#[repr(C)]
#[derive(Debug)]
pub struct KernelArgs {
    /// Base pointer of each predicate's column (offset `8 * i`).
    pub cols: [*const u8; 8],
    /// Rows to process (offset 64). The AVX-512 backend expects this
    /// pre-truncated to a multiple of 16 (the wrapper owns the tail).
    pub rows: u64,
    /// Position output buffer (offset 72); must have `rows + 16` capacity.
    /// Null in count mode.
    pub out: *mut u32,
}

/// `extern "C"` signature of every compiled kernel: takes `&KernelArgs`,
/// returns the match count; positions (if any) are written to `args.out`.
pub type KernelFn = unsafe extern "C" fn(*const KernelArgs) -> u64;

/// Errors from the JIT pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// Chain longer than [`MAX_JIT_PREDICATES`] or empty.
    BadChainLength(usize),
    /// This backend does not support the element kind (e.g. `f32` in the
    /// scalar backend).
    ElemUnsupported(JitElem),
    /// One predicate's column cannot be compiled as specified (a packed
    /// width or needle the emitter cannot handle, or a packed column given
    /// to a backend or element kind that reads plain columns only).
    BadPredicate {
        /// The predicate's position in the chain.
        index: usize,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// The host lacks AVX-512 (or VBMI2, for chains with packed columns).
    IsaUnavailable,
    /// Mapping the code failed.
    Exec(crate::mem::ExecError),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::BadChainLength(n) => write!(f, "chain length {n} unsupported"),
            JitError::ElemUnsupported(e) => write!(f, "element kind {e:?} unsupported"),
            JitError::BadPredicate { index, reason } => write!(f, "predicate {index}: {reason}"),
            JitError::IsaUnavailable => write!(f, "AVX-512 (or VBMI2) unavailable on this host"),
            JitError::Exec(e) => write!(f, "exec memory: {e}"),
        }
    }
}

impl std::error::Error for JitError {}

impl From<crate::mem::ExecError> for JitError {
    fn from(e: crate::mem::ExecError) -> Self {
        JitError::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_capture_bits() {
        let s = ScanSig::chain::<u32>(&[(CmpOp::Eq, 5), (CmpOp::Ne, 2)], false);
        assert_eq!(s.len(), 2);
        assert_eq!(s.preds[0].needle_bits, 5);
        assert!(!s.emit_positions);

        let s = ScanSig::chain::<i32>(&[(CmpOp::Lt, -1)], true);
        assert_eq!(s.preds[0].needle_bits, u32::MAX as u64);

        let s = ScanSig::chain::<f32>(&[(CmpOp::Ge, 1.5)], true);
        assert_eq!(s.preds[0].needle_bits, 1.5f32.to_bits() as u64);

        let s = ScanSig::chain::<u64>(&[(CmpOp::Gt, u64::MAX - 1)], false);
        assert_eq!(s.preds[0].needle_bits, u64::MAX - 1);
        assert_eq!(s.elem.lanes(), 8);
        assert!(s.elem.is_wide());

        let s = ScanSig::chain::<f64>(&[(CmpOp::Le, -2.5)], false);
        assert_eq!(s.preds[0].needle_bits, (-2.5f64).to_bits());
    }

    #[test]
    fn same_column_runs_are_part_of_the_key() {
        let a = [1u32, 2];
        let b = [3u32, 4];
        let base = ScanSig::chain::<u32>(&[(CmpOp::Ge, 1), (CmpOp::Le, 2), (CmpOp::Eq, 3)], true);
        let range = base
            .clone()
            .with_columns([a.as_ptr(), a.as_ptr(), b.as_ptr()]);
        assert_eq!(
            range
                .preds
                .iter()
                .map(|p| p.same_column)
                .collect::<Vec<_>>(),
            [false, true, false]
        );
        let stages = range.stages();
        assert_eq!(
            (stages.len(), stages.preds(0), stages.preds(1)),
            (2, 0..2, 2..3)
        );
        assert_eq!(base.stages().len(), 3);
        assert_ne!(range, base);
        let distinct = base
            .clone()
            .with_columns([a.as_ptr(), b.as_ptr(), a.as_ptr()]);
        assert_eq!(distinct, base);
    }

    #[test]
    fn signature_is_hashable_cache_key() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ScanSig::chain::<u32>(&[(CmpOp::Eq, 5)], false));
        set.insert(ScanSig::chain::<u32>(&[(CmpOp::Eq, 5)], false));
        set.insert(ScanSig::chain::<u32>(&[(CmpOp::Eq, 6)], false));
        set.insert(ScanSig::chain::<u32>(&[(CmpOp::Eq, 5)], true));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn kernel_args_layout_is_stable() {
        assert_eq!(std::mem::offset_of!(KernelArgs, cols), 0);
        assert_eq!(std::mem::offset_of!(KernelArgs, rows), 64);
        assert_eq!(std::mem::offset_of!(KernelArgs, out), 72);
        assert_eq!(std::mem::size_of::<KernelArgs>(), 80);
    }
}
