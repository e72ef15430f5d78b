//! The Fused Table Scan — the paper's contribution (§III).
//!
//! A conjunctive chain of predicates is evaluated in one pass without
//! leaving SIMD mode and without materializing intermediate bitmasks:
//!
//! * the chain splits into **stages** ([`Stages`]): a maximal run of
//!   adjacent predicates on one column is one stage, so a `BETWEEN` is one
//!   stage and a chain over distinct columns has one stage per predicate
//!   (paper §III's shape). A stage reads its column once and compares the
//!   values against each needle of its run, each compare masked by the one
//!   before;
//! * stage 0 (the *driver*) compares whole blocks of its column and
//!   compresses the matching block offsets into a register-resident
//!   **position list**;
//! * every further stage owns a position-list register plus a length.
//!   Incoming positions are appended with a compress + permutex2var pair;
//!   when the list fills (or cannot take a whole batch) it is **flushed**:
//!   the stage's column is gathered once at the listed positions, compared
//!   under mask, and the surviving positions are compressed and passed to
//!   the next stage;
//! * the final stage emits positions (or bumps the match counter).
//!
//! Invariants shared by every engine (scalar model, AVX2, AVX-512, JIT):
//!
//! 1. position lists are left-aligned and **zero-padded** beyond their
//!    length (maskz-compress maintains this for free);
//! 2. a list never exceeds `LANES` entries; when an incoming batch does not
//!    fit, the *old* list is flushed first and the batch starts a new list
//!    (paper §III: "we first process the incomplete list and then start a
//!    new list");
//! 3. batches flow through stages in ascending row order, so emitted
//!    positions are ascending;
//! 4. at end of input, stages drain in ascending order.
//!
//! Modules:
//!
//! * [`scalar`] — the portable reference engine (any
//!   [`fts_storage::NativeType`], any lane count), which the telemetry also
//!   replays;
//! * `skeleton` — the one loop of the static hardware kernels, stamped per
//!   kernel family: `avx512` (4, 8 or 16 lanes of 32-bit values), `w64` (8
//!   lanes of 64-bit values), `avx2` (4 lanes, compress and append emulated
//!   with `vpshufb` tables) and [`packed`] (plain and bit-packed `u32`
//!   columns on AVX-512 + VBMI2);
//! * [`for_scan`] and [`bytesliced`] — the frame-of-reference and
//!   byte-sliced layouts' kernels.
//!
//! A chain mixing 32- and 64-bit columns runs as one typed driver plus a
//! survivor filter in `fts-query`'s executor, not as one kernel.

pub(crate) mod avx2;
pub(crate) mod avx512;
pub mod bytesliced;
pub mod for_scan;
pub mod packed;
pub mod scalar;
pub(crate) mod skeleton;
pub(crate) mod w64;

use crate::pred::TypedPred;

/// Merge-index table entry: lane `i` of `MERGE[count]` selects `plist[i]`
/// for `i < count` and `fresh[i - count]` (table index `N + i - count`)
/// otherwise — the permutex2var control that appends a compressed batch
/// behind an existing position list.
pub const fn merge_index<const N: usize>(count: usize) -> [u32; N] {
    let mut idx = [0u32; N];
    let mut i = 0;
    while i < N {
        idx[i] = if i < count {
            i as u32
        } else {
            (N + i - count) as u32
        };
        i += 1;
    }
    idx
}

/// Merge tables for the three hardware widths (index = current length).
pub static MERGE4: [[u32; 4]; 5] = {
    let mut t = [[0u32; 4]; 5];
    let mut c = 0;
    while c <= 4 {
        t[c] = merge_index::<4>(c);
        c += 1;
    }
    t
};

/// 8-lane merge table (256-bit registers).
pub static MERGE8: [[u32; 8]; 9] = {
    let mut t = [[0u32; 8]; 9];
    let mut c = 0;
    while c <= 8 {
        t[c] = merge_index::<8>(c);
        c += 1;
    }
    t
};

/// 16-lane merge table (512-bit registers).
pub static MERGE16: [[u32; 16]; 17] = {
    let mut t = [[0u32; 16]; 17];
    let mut c = 0;
    while c <= 16 {
        t[c] = merge_index::<16>(c);
        c += 1;
    }
    t
};

/// Maximum number of predicates a single fused kernel invocation supports.
/// Longer chains are split by the engine layer (two fused scans back to
/// back); the paper evaluates up to 5.
pub const MAX_PREDICATES: usize = 8;

/// A chain's fused-scan stages: stage 0 drives, and each later stage is
/// one gather. Adjacent predicates with one column identity share a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stages {
    /// One past each stage's last predicate.
    ends: [u8; MAX_PREDICATES],
    len: u8,
}

impl Stages {
    /// Split a chain wherever the column changes: `cols` yields one column
    /// identity per predicate (such as its data's address and length), and
    /// a predicate whose identity equals the previous one's joins that
    /// predicate's stage. Panics past [`MAX_PREDICATES`] predicates.
    pub fn of<I: PartialEq>(cols: impl IntoIterator<Item = I>) -> Stages {
        let mut stages = Stages {
            ends: [0; MAX_PREDICATES],
            len: 0,
        };
        let mut prev = None;
        for (i, col) in cols.into_iter().enumerate() {
            if prev.as_ref() != Some(&col) {
                stages.len += 1;
            }
            stages.ends[stages.len as usize - 1] = i as u8 + 1;
            prev = Some(col);
        }
        stages
    }

    /// Stages of a typed chain: predicates over one slice (address and
    /// length) share a stage.
    pub fn of_typed<T>(preds: &[TypedPred<'_, T>]) -> Stages {
        Stages::of(preds.iter().map(|p| (p.data.as_ptr(), p.data.len())))
    }

    /// Number of stages (0 for an empty chain).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The predicates stage `s` evaluates, in chain order.
    pub fn preds(&self, s: usize) -> std::ops::Range<usize> {
        let start = if s == 0 { 0 } else { self.ends[s - 1] as usize };
        start..self.ends[s] as usize
    }

    /// The stage that evaluates predicate `p`.
    pub fn stage_of(&self, p: usize) -> usize {
        self.ends[..self.len()]
            .iter()
            .position(|&end| p < end as usize)
            .expect("predicate within the chain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_split_where_the_column_changes() {
        let s = Stages::of(["a", "a", "b", "c", "c", "c", "a"]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.preds(0), 0..2);
        assert_eq!(s.preds(1), 2..3);
        assert_eq!(s.preds(2), 3..6);
        assert_eq!(s.preds(3), 6..7);
        assert_eq!(s.stage_of(4), 2);
        assert_eq!(s.stage_of(6), 3);
        // Distinct columns: one stage per predicate, the paper's shape.
        let s = Stages::of([1, 2, 3]);
        assert_eq!((s.len(), s.preds(2)), (3, 2..3));
        assert!(Stages::of(Vec::<u8>::new()).is_empty());
        // Typed chains compare slices by address and length.
        let a = [1u32, 2, 3, 4];
        let b = [1u32, 2, 3, 4];
        let chain = [
            TypedPred::eq(&a[..], 1),
            TypedPred::eq(&a[..], 2),
            TypedPred::eq(&b[..], 3),
            TypedPred::eq(&b[..3], 3),
        ];
        let s = Stages::of_typed(&chain);
        assert_eq!(s.len(), 3);
        assert_eq!(s.preds(0), 0..2);
    }

    #[test]
    fn merge_index_shape() {
        assert_eq!(merge_index::<4>(0), [4, 5, 6, 7]); // empty list: all fresh
        assert_eq!(merge_index::<4>(2), [0, 1, 4, 5]);
        assert_eq!(merge_index::<4>(4), [0, 1, 2, 3]); // full list: keep all
        assert_eq!(MERGE16[3][2], 2);
        assert_eq!(MERGE16[3][3], 16);
        assert_eq!(MERGE8[8], [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn merge_tables_match_const_fn() {
        for (c, row) in MERGE4.iter().enumerate() {
            assert_eq!(*row, merge_index::<4>(c));
        }
        for (c, row) in MERGE16.iter().enumerate() {
            assert_eq!(*row, merge_index::<16>(c));
        }
    }
}
