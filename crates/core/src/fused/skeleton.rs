//! The fused-scan loop of paper §III, written once for every static
//! hardware kernel.
//!
//! [`fused_skeleton!`] stamps the loop into the module that invokes it,
//! under one kernel family's `target_feature` set. A family supplies only
//! its registers and primitives: a [`Positions`] list register (iota,
//! compress, append, store), its elements' [`Lanes`] (splat, compare,
//! masked compare) and its column fetch through
//! [`Family`] (a load or unpack for the driver, a gather for a follower).
//! Each primitive is `#[inline(always)]` and carries no `target_feature`
//! of its own, so it inlines into the stamped loop and runs under the
//! loop's features, in unoptimized builds too. The loop branches on no
//! family:
//!
//! * the driver (stage 0) fetches a block of `LANES` rows, compares it
//!   against each needle of its run (each compare masked by the one
//!   before), compresses the matching row offsets into a position list and
//!   passes the list to stage 1, or to the output;
//! * a follower stage appends incoming positions to its list register.
//!   When the list fills, or cannot take a whole batch (it is then flushed
//!   first, paper §III), the stage fetches its column once at the listed
//!   positions, compares under mask and forwards the survivors;
//! * the last partial block runs through the same pipeline under a lane
//!   mask, and the stages then drain in ascending order, so positions are
//!   emitted in ascending row order.

#![cfg(target_arch = "x86_64")]

use fts_storage::{CmpOp, NativeType};

use crate::pred::TypedPred;

/// A column a fused stage reads.
pub(crate) trait Column: Copy {
    /// Rows in the column.
    fn rows(self) -> usize;
    /// The column's identity for [`crate::fused::Stages::of`]: its buffer's
    /// address and length.
    fn id(self) -> (usize, usize);
}

impl<T> Column for &[T] {
    fn rows(self) -> usize {
        self.len()
    }

    fn id(self) -> (usize, usize) {
        (self.as_ptr() as usize, self.len())
    }
}

/// A position-list register: `LANES` 32-bit row positions, left-aligned
/// and zero-padded.
///
/// # Safety
///
/// Every `unsafe fn` needs the target features of the family that uses the
/// register on the running host.
pub(crate) trait Positions: Copy {
    /// Lanes per register, and rows per driver block.
    const LANES: usize;
    /// The empty list.
    unsafe fn zero() -> Self;
    /// The positions `base..base + LANES`.
    unsafe fn iota(base: usize) -> Self;
    /// Pack the lanes of `list` set in `k` to the front, zeroing the rest.
    unsafe fn compress(k: u32, list: Self) -> Self;
    /// Append the zero-padded batch `fresh` behind the first `len` lanes of
    /// `list`.
    unsafe fn append(list: Self, len: usize, fresh: Self) -> Self;
    /// Store all `LANES` positions at `dst`.
    unsafe fn store(dst: *mut u32, list: Self);
}

/// An element kind held in value register `V`: its broadcast and compare.
///
/// # Safety
///
/// Every `unsafe fn` needs the target features of the family that uses the
/// register on the running host.
pub(crate) trait Lanes<V>: LaneBits {
    /// Broadcast `self` to every lane.
    unsafe fn splat(self) -> V;
    /// The lanes where `a OP b` holds, one bit per lane, lane 0 in bit 0.
    unsafe fn cmp(op: CmpOp, a: V, b: V) -> u32;
    /// The lanes of `k` where `a OP b` holds.
    #[inline(always)]
    unsafe fn mask_cmp(k: u32, op: CmpOp, a: V, b: V) -> u32 {
        // SAFETY: the caller holds the features `cmp` needs.
        k & unsafe { Self::cmp(op, a, b) }
    }
}

/// What one kernel family supplies to the skeleton besides its registers:
/// its column fetch.
///
/// # Safety
///
/// Every `unsafe fn` needs the family's target features on the running
/// host ([`Family::available`]). `load` reads rows `row..row + n` of `col`,
/// which must exist, and `gather` reads the rows that the lanes of `list`
/// set in `k` name, which must be rows of `col`.
pub(crate) trait Family {
    /// A column one stage reads.
    type Col<'a>: Column;
    /// A needle.
    type Elem: Lanes<Self::Vals>;
    /// A register of column values, one per position-list lane.
    type Vals: Copy;
    /// The position-list register.
    type List: Positions;

    /// Whether this host runs the family's instructions.
    fn available() -> bool;
    /// Fetch rows `row..row + n` of a driver column; `n <= LANES`, and the
    /// lanes from `n` on are not read.
    unsafe fn load(col: Self::Col<'_>, row: usize, n: usize) -> Self::Vals;
    /// Fetch the values at the positions of `list` in the lanes set in `k`.
    unsafe fn gather(col: Self::Col<'_>, list: Self::List, k: u32) -> Self::Vals;
}

/// An element type's raw lane bits, which a needle register broadcasts.
pub(crate) trait LaneBits: NativeType {
    /// The value's bits, zero-extended to 64.
    fn bits(self) -> u64;
}

macro_rules! lane_bits {
    ($($t:ty => |$v:ident| $bits:expr),* $(,)?) => {$(
        impl LaneBits for $t {
            #[inline(always)]
            fn bits(self) -> u64 {
                let $v = self;
                $bits
            }
        }
    )*};
}

lane_bits!(
    u32 => |v| v as u64,
    i32 => |v| v as u32 as u64,
    f32 => |v| v.to_bits() as u64,
    u64 => |v| v,
    i64 => |v| v as u64,
    f64 => |v| v.to_bits(),
);

/// Split a typed chain into the columns, operators and needles the stamped
/// `scan` takes.
pub(crate) fn split<'a, T: Copy>(preds: &[TypedPred<'a, T>]) -> (Vec<&'a [T]>, Vec<CmpOp>, Vec<T>) {
    (
        preds.iter().map(|p| p.data).collect(),
        preds.iter().map(|p| p.op).collect(),
        preds.iter().map(|p| p.needle).collect(),
    )
}

/// Stamp the fused-scan skeleton under one family's `target_feature` set
/// into a module `stamped` of the invoking module, and bring its entry
/// `scan::<F>` into scope: the per-stage list registers and counts,
/// `push`, `flush`, `emit`, and the driver loop with its drain.
macro_rules! fused_skeleton {
    ($features:literal) => {
        use stamped::scan;

        mod stamped {
            #![allow(unsafe_op_in_unsafe_fn)] // one kernel = one contiguous unsafe context

            use fts_simd::model::lane_mask;
            use fts_storage::{CmpOp, PosList};
            use $crate::fused::skeleton::{Column as _, Family, Lanes, Positions};
            use $crate::fused::{Stages, MAX_PREDICATES};
            use $crate::pred::{OutputMode, ScanOutput};

            /// One scan: the chain, its needle registers, each follower
            /// stage's position list and length, and the output.
            struct State<'a, 'c, F: Family> {
                cols: &'a [F::Col<'c>],
                ops: &'a [CmpOp],
                stages: Stages,
                nsplat: [F::Vals; MAX_PREDICATES],
                plists: [F::List; MAX_PREDICATES],
                counts: [usize; MAX_PREDICATES],
                out: Vec<u32>,
                total: u64,
            }

            /// Append `fresh` (`m` positions, left-aligned and zero-padded) to
            /// follower stage `s`.
            #[target_feature(enable = $features)]
            unsafe fn push<F: Family, const EMIT: bool, const RUN: bool>(
                st: &mut State<'_, '_, F>,
                s: usize,
                fresh: F::List,
                m: usize,
            ) {
                if st.counts[s] + m > F::List::LANES {
                    // Process the incomplete list first, then start a new list
                    // with the batch (paper §III).
                    flush::<F, EMIT, RUN>(st, s);
                    st.plists[s] = fresh;
                    st.counts[s] = m;
                } else {
                    st.plists[s] = F::List::append(st.plists[s], st.counts[s], fresh);
                    st.counts[s] += m;
                }
                if st.counts[s] == F::List::LANES {
                    flush::<F, EMIT, RUN>(st, s);
                }
            }

            /// Fetch stage `s`'s column once at its pending positions, compare
            /// the values against each predicate of its run under mask, and
            /// forward the survivors.
            #[target_feature(enable = $features)]
            unsafe fn flush<F: Family, const EMIT: bool, const RUN: bool>(
                st: &mut State<'_, '_, F>,
                s: usize,
            ) {
                let c = st.counts[s];
                if c == 0 {
                    return;
                }
                let plist = st.plists[s];
                st.plists[s] = F::List::zero();
                st.counts[s] = 0;

                let km = lane_mask(c);
                let run = if RUN { st.stages.preds(s) } else { s..s + 1 };
                let vals = F::gather(st.cols[run.start], plist, km);
                let mut k = F::Elem::mask_cmp(km, st.ops[run.start], vals, st.nsplat[run.start]);
                for p in run.start + 1..run.end {
                    k = F::Elem::mask_cmp(k, st.ops[p], vals, st.nsplat[p]);
                }
                forward::<F, EMIT, RUN>(st, s + 1 == st.stages.len(), s + 1, k, plist);
            }

            /// Pass the lanes of `list` set in `k` to stage `next`, or to the
            /// output when the stage that kept them is the `last`. Inlined
            /// into its callers, whose target features its primitives then
            /// inline under.
            #[inline(always)]
            unsafe fn forward<F: Family, const EMIT: bool, const RUN: bool>(
                st: &mut State<'_, '_, F>,
                last: bool,
                next: usize,
                k: u32,
                list: F::List,
            ) {
                let m = k.count_ones() as usize;
                if m == 0 {
                    return;
                }
                let fresh = F::List::compress(k, list);
                if last {
                    emit::<F, EMIT>(st, fresh, m);
                } else {
                    push::<F, EMIT, RUN>(st, next, fresh, m);
                }
            }

            #[target_feature(enable = $features)]
            unsafe fn emit<F: Family, const EMIT: bool>(
                st: &mut State<'_, '_, F>,
                fresh: F::List,
                m: usize,
            ) {
                st.total += m as u64;
                if EMIT {
                    let len = st.out.len();
                    st.out.reserve(F::List::LANES);
                    F::List::store(st.out.as_mut_ptr().add(len), fresh);
                    st.out.set_len(len + m);
                }
            }

            /// The driver stage, hoisted out of the scan loop.
            struct Driver<'c, F: Family> {
                col: F::Col<'c>,
                op: CmpOp,
                needle: F::Vals,
                /// One past the driver's last predicate.
                run_end: usize,
                /// Whether the driver is the only stage.
                alone: bool,
            }

            /// Run rows `row..row + n` of the driver through the pipeline.
            /// Inlined into the loop like `forward`.
            #[inline(always)]
            unsafe fn drive<F: Family, const EMIT: bool, const RUN: bool>(
                st: &mut State<'_, '_, F>,
                d: &Driver<'_, F>,
                row: usize,
                n: usize,
            ) {
                let v = F::load(d.col, row, n);
                let mut k = if n == F::List::LANES {
                    F::Elem::cmp(d.op, v, d.needle)
                } else {
                    F::Elem::mask_cmp(lane_mask(n), d.op, v, d.needle)
                };
                if RUN {
                    for p in 1..d.run_end {
                        k = F::Elem::mask_cmp(k, st.ops[p], v, st.nsplat[p]);
                    }
                }
                // Most blocks of a selective driver keep no row: skip them
                // before computing their row offsets.
                if k != 0 {
                    forward::<F, EMIT, RUN>(st, d.alone, 1, k, F::List::iota(row));
                }
            }

            /// The scan loop; `RUN` compiles in the further compares of
            /// same-column runs, so a run-free chain keeps one compare per
            /// stage.
            #[target_feature(enable = $features)]
            unsafe fn kernel<F: Family, const EMIT: bool, const RUN: bool>(
                cols: &[F::Col<'_>],
                ops: &[CmpOp],
                needles: &[F::Elem],
                stages: Stages,
            ) -> (u64, Vec<u32>) {
                let rows = cols[0].rows();
                let mut nsplat = [F::Elem::default().splat(); MAX_PREDICATES];
                for (slot, &needle) in nsplat.iter_mut().zip(needles) {
                    *slot = needle.splat();
                }
                let mut st = State::<F> {
                    cols,
                    ops,
                    stages,
                    nsplat,
                    plists: [F::List::zero(); MAX_PREDICATES],
                    counts: [0; MAX_PREDICATES],
                    out: Vec::new(),
                    total: 0,
                };
                let driver = Driver::<F> {
                    col: cols[0],
                    op: ops[0],
                    needle: nsplat[0],
                    run_end: stages.preds(0).end,
                    alone: stages.len() == 1,
                };

                let lanes = F::List::LANES;
                let full_blocks = rows / lanes;
                for blk in 0..full_blocks {
                    drive::<F, EMIT, RUN>(&mut st, &driver, blk * lanes, lanes);
                }
                let tail = rows % lanes;
                if tail != 0 {
                    drive::<F, EMIT, RUN>(&mut st, &driver, full_blocks * lanes, tail);
                }

                // Drain partial lists in ascending stage order.
                for s in 1..stages.len() {
                    flush::<F, EMIT, RUN>(&mut st, s);
                }
                (st.total, st.out)
            }

            /// Run a chain of `cols[i] ops[i] needles[i]` on family `F`: check
            /// it, split it into stages, and run the loop instantiated for the
            /// output mode and for whether any stage holds a run.
            ///
            /// Panics when the host lacks `F`'s instructions, or on an invalid
            /// chain: more than [`MAX_PREDICATES`] predicates, columns of
            /// unequal length, or more rows than a 32-bit gather index reaches.
            pub(crate) fn scan<F: Family>(
                cols: &[F::Col<'_>],
                ops: &[CmpOp],
                needles: &[F::Elem],
                mode: OutputMode,
            ) -> ScanOutput {
                assert!(
                    F::available(),
                    "kernel instructions not available on this host"
                );
                assert!(
                    cols.len() <= MAX_PREDICATES,
                    "chain too long for one fused kernel"
                );
                let Some(first) = cols.first() else {
                    return match mode {
                        OutputMode::Count => ScanOutput::Count(0),
                        OutputMode::Positions => ScanOutput::Positions(PosList::new()),
                    };
                };
                let rows = first.rows();
                for col in cols {
                    assert_eq!(col.rows(), rows, "chain columns must have equal length");
                }
                assert!(
                    rows <= i32::MAX as usize,
                    "chunk exceeds 32-bit gather index range"
                );
                let stages = Stages::of(cols.iter().map(|col| col.id()));
                // SAFETY: the host runs F's instructions, and every column
                // holds `rows` rows, each addressable by a 32-bit position.
                let (total, out) = unsafe {
                    match (mode, stages.len() < cols.len()) {
                        (OutputMode::Count, false) => {
                            kernel::<F, false, false>(cols, ops, needles, stages)
                        }
                        (OutputMode::Count, true) => {
                            kernel::<F, false, true>(cols, ops, needles, stages)
                        }
                        (OutputMode::Positions, false) => {
                            kernel::<F, true, false>(cols, ops, needles, stages)
                        }
                        (OutputMode::Positions, true) => {
                            kernel::<F, true, true>(cols, ops, needles, stages)
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

pub(crate) use fused_skeleton;
