//! Portable fused-scan engine built on the semantic models of
//! [`fts_simd::model`].
//!
//! This is the *executable specification* of the Fused Table Scan: it runs
//! the exact per-block algorithm of paper Fig. 3 — masked compare →
//! maskz-compress → permutex2var merge → masked gather — for any
//! [`NativeType`] and any lane count, on any architecture. The hardware
//! kernels are differential-tested against it; it is also the fallback
//! engine on machines without AVX2/AVX-512 and for data types that have no
//! dedicated hardware kernel yet.

use fts_simd::model;
use fts_storage::{NativeType, PosList};

use crate::fused::{merge_index, Stages, MAX_PREDICATES};
use crate::pred::{OutputMode, ScanOutput, TypedPred};

/// Observer for the engine's per-block events, used by
/// [`crate::telemetry`] to count flushes/gathers exactly. The default
/// methods are empty, so the [`NoSink`] instantiation compiles to the
/// uninstrumented engine — telemetry is zero-cost when disabled.
pub trait FusedSink {
    /// The driver loaded and compared one block.
    #[inline(always)]
    fn driver_block(&mut self) {}

    /// Stage `stage` (1-based) flushed: `gathered` live lanes were
    /// gathered once from its column.
    #[inline(always)]
    fn stage_flush(&mut self, stage: usize, gathered: usize) {
        let _ = (stage, gathered);
    }

    /// `survivors` lanes of the block or flush just reported passed
    /// predicate `pred` (and every predicate before it).
    #[inline(always)]
    fn survivors(&mut self, pred: usize, survivors: usize) {
        let _ = (pred, survivors);
    }
}

/// The do-nothing sink behind [`fused_scan_model`].
pub struct NoSink;

impl FusedSink for NoSink {}

impl<S: FusedSink> FusedSink for &mut S {
    #[inline(always)]
    fn driver_block(&mut self) {
        (**self).driver_block();
    }

    #[inline(always)]
    fn stage_flush(&mut self, stage: usize, gathered: usize) {
        (**self).stage_flush(stage, gathered);
    }

    #[inline(always)]
    fn survivors(&mut self, pred: usize, survivors: usize) {
        (**self).survivors(pred, survivors);
    }
}

/// One follower stage's state: the register-resident position list.
#[derive(Clone, Copy)]
struct Stage<const N: usize> {
    /// Left-aligned, zero-padded positions awaiting this stage's run.
    plist: [u32; N],
    /// Number of live entries in `plist`.
    count: usize,
}

impl<const N: usize> Stage<N> {
    fn empty() -> Self {
        Stage {
            plist: [0; N],
            count: 0,
        }
    }
}

/// Engine state for one scan: the lists of follower stages `1..` plus the
/// output accumulator.
struct Engine<'a, T, S, const N: usize> {
    preds: &'a [TypedPred<'a, T>],
    stages: Stages,
    lists: Vec<Stage<N>>,
    positions: PosList,
    count: u64,
    emit_positions: bool,
    sink: S,
}

impl<'a, T: NativeType, S: FusedSink, const N: usize> Engine<'a, T, S, N> {
    /// Compare `vals` against each predicate of stage `s` under `mask`,
    /// each compare masked by the one before.
    fn compare(&mut self, s: usize, mask: u32, vals: [T; N]) -> u32 {
        let mut k = mask;
        for p in self.stages.preds(s) {
            let pred = &self.preds[p];
            k = model::mask_cmp_mask(k, pred.op, vals, model::splat(pred.needle));
            self.sink.survivors(p, k.count_ones() as usize);
        }
        k
    }

    /// Append a compressed batch (`fresh[..m]`, zero-padded) to follower
    /// stage `s` (1-based). Flushes per invariant 2 of [`crate::fused`].
    fn push(&mut self, s: usize, fresh: [u32; N], m: usize) {
        debug_assert!(m > 0 && m <= N);
        let stage = &mut self.lists[s - 1];
        if stage.count + m > N {
            // Batch does not fit: process the incomplete list first, then
            // start a new list with the batch (paper §III).
            self.flush(s);
            let stage = &mut self.lists[s - 1];
            stage.plist = fresh;
            stage.count = m;
        } else {
            stage.plist = model::permutex2var(stage.plist, merge_index::<N>(stage.count), fresh);
            stage.count += m;
        }
        if self.lists[s - 1].count == N {
            self.flush(s);
        }
    }

    /// Evaluate stage `s`'s run on its pending positions and forward the
    /// survivors.
    fn flush(&mut self, s: usize) {
        let stage = &mut self.lists[s - 1];
        let c = stage.count;
        if c == 0 {
            return;
        }
        let plist = stage.plist;
        stage.plist = [0; N];
        stage.count = 0;

        let kmask = model::lane_mask(c);
        let col = self.preds[self.stages.preds(s).start].data;
        // Masked gather: inactive lanes are never dereferenced (their
        // indexes are zero-padding anyway).
        let vals = model::mask_gather([T::default(); N], kmask, plist, col);
        self.sink.stage_flush(s, c);
        let k2 = self.compare(s, kmask, vals);
        let m2 = k2.count_ones() as usize;
        if m2 == 0 {
            return;
        }
        let fresh2 = model::compress([0u32; N], k2, plist);
        if s == self.stages.len() - 1 {
            self.emit(fresh2, m2);
        } else {
            self.push(s + 1, fresh2, m2);
        }
    }

    fn emit(&mut self, positions: [u32; N], m: usize) {
        self.count += m as u64;
        if self.emit_positions {
            for &p in &positions[..m] {
                self.positions.push(p);
            }
        }
    }
}

/// Run the fused scan over a homogeneous predicate chain with `N` lanes.
///
/// Chains longer than [`MAX_PREDICATES`] and ragged columns panic (the
/// engine layer validates before calling).
pub fn fused_scan_model<T: NativeType, const N: usize>(
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
) -> ScanOutput {
    fused_scan_model_sink::<T, N, NoSink>(preds, mode, &mut NoSink)
}

/// [`fused_scan_model`] with an event sink observing every driver block,
/// stage flush and predicate's survivors (how [`crate::telemetry`] counts
/// exactly).
pub fn fused_scan_model_sink<T: NativeType, const N: usize, S: FusedSink>(
    preds: &[TypedPred<'_, T>],
    mode: OutputMode,
    sink: &mut S,
) -> ScanOutput {
    assert!(N >= 2 && N <= 32, "lane count must be in 2..=32");
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

    let stages = Stages::of_typed(preds);
    let mut eng: Engine<'_, T, &mut S, N> = Engine {
        preds,
        stages,
        lists: vec![Stage::empty(); stages.len() - 1],
        positions: PosList::new(),
        count: 0,
        emit_positions: mode == OutputMode::Positions,
        sink,
    };

    let mut base = 0usize;
    while base < rows {
        let tail = (rows - base).min(N);
        // Block load; the tail block is zero-filled beyond `tail` and its
        // compare is masked (mirrors `_mm512_maskz_loadu_epi32`).
        let block: [T; N] = std::array::from_fn(|i| {
            if i < tail {
                first.data[base + i]
            } else {
                T::default()
            }
        });
        eng.sink.driver_block();
        let k = eng.compare(0, model::lane_mask(tail), block);
        let m = k.count_ones() as usize;
        if m != 0 {
            let idx: [u32; N] = std::array::from_fn(|i| (base + i) as u32);
            let fresh = model::compress([0u32; N], k, idx);
            if stages.len() == 1 {
                eng.emit(fresh, m);
            } else {
                eng.push(1, fresh, m);
            }
        }
        base += N;
    }

    // Drain partial lists, ascending so survivors cascade forward.
    for s in 1..stages.len() {
        eng.flush(s);
    }

    match mode {
        OutputMode::Count => ScanOutput::Count(eng.count),
        OutputMode::Positions => ScanOutput::Positions(eng.positions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use fts_storage::CmpOp;

    fn check_all_widths<T: NativeType>(preds: &[TypedPred<'_, T>]) {
        let expected = reference::scan_positions(preds);
        macro_rules! check {
            ($($n:literal),*) => {$(
                let got = fused_scan_model::<T, $n>(preds, OutputMode::Positions);
                assert_eq!(
                    got.positions().unwrap(),
                    &expected,
                    "positions mismatch at N={}", $n
                );
                let got = fused_scan_model::<T, $n>(preds, OutputMode::Count);
                assert_eq!(got.count(), expected.len() as u64, "count mismatch at N={}", $n);
            )*};
        }
        check!(2, 4, 8, 16, 32);
    }

    #[test]
    fn figure3_worked_example() {
        // The exact 16-value columns of paper Fig. 3.
        let a = [2u32, 5, 4, 5, 6, 1, 5, 7, 6, 8, 5, 3, 5, 9, 9, 5];
        let b = [5u32, 2, 3, 1, 1, 3, 6, 0, 8, 7, 3, 3, 2, 9, 3, 2];
        let preds = [TypedPred::eq(&a[..], 5), TypedPred::eq(&b[..], 2)];
        let out = fused_scan_model::<u32, 4>(&preds, OutputMode::Positions);
        assert_eq!(out.positions().unwrap().as_slice(), &[1, 12, 15]);
        check_all_widths(&preds);
    }

    #[test]
    fn two_predicates_all_ops() {
        let a: Vec<u32> = (0..500).map(|i| i % 13).collect();
        let b: Vec<u32> = (0..500).map(|i| (i * 11) % 7).collect();
        for op0 in CmpOp::ALL {
            for op1 in [CmpOp::Eq, CmpOp::Ge] {
                let preds = [
                    TypedPred::new(&a[..], op0, 6u32),
                    TypedPred::new(&b[..], op1, 3u32),
                ];
                check_all_widths(&preds);
            }
        }
    }

    #[test]
    fn chains_up_to_five_predicates() {
        let cols: Vec<Vec<u32>> = (0..5u32)
            .map(|c| (0..700u32).map(|i| i.wrapping_mul(c + 7) % 3).collect())
            .collect();
        for p in 1..=5 {
            let preds: Vec<TypedPred<'_, u32>> =
                cols[..p].iter().map(|c| TypedPred::eq(&c[..], 1)).collect();
            check_all_widths(&preds);
        }
    }

    #[test]
    fn non_multiple_block_sizes_and_tails() {
        for rows in [0usize, 1, 3, 4, 5, 15, 16, 17, 31, 33, 100] {
            let a: Vec<u32> = (0..rows as u32).map(|i| i % 3).collect();
            let b: Vec<u32> = (0..rows as u32).map(|i| i % 2).collect();
            let preds = [TypedPred::eq(&a[..], 0), TypedPred::eq(&b[..], 1)];
            check_all_widths(&preds);
        }
    }

    #[test]
    fn extreme_selectivities() {
        let rows = 1000u32;
        // Everything matches predicate 1 — stresses the flush-on-full path.
        let all: Vec<u32> = vec![5; rows as usize];
        let none: Vec<u32> = vec![4; rows as usize];
        let half: Vec<u32> = (0..rows).map(|i| 4 + i % 2).collect();
        for (a, b) in [
            (&all, &half),
            (&half, &all),
            (&all, &none),
            (&none, &all),
            (&all, &all),
        ] {
            let preds = [TypedPred::eq(&a[..], 5u32), TypedPred::eq(&b[..], 5u32)];
            check_all_widths(&preds);
        }
    }

    #[test]
    fn other_native_types() {
        let a: Vec<i64> = (0..300).map(|i| (i % 9) - 4).collect();
        let b: Vec<i64> = (0..300).map(|i| (i % 5) - 2).collect();
        let preds = [
            TypedPred::new(&a[..], CmpOp::Lt, 0i64),
            TypedPred::new(&b[..], CmpOp::Ge, 0i64),
        ];
        check_all_widths(&preds);

        let a: Vec<f32> = (0..300).map(|i| (i % 7) as f32).collect();
        let preds = [TypedPred::new(&a[..], CmpOp::Le, 3.0f32)];
        check_all_widths(&preds);

        let a: Vec<u8> = (0..300).map(|i| (i % 11) as u8).collect();
        let b: Vec<u8> = (0..300).map(|i| (i % 4) as u8).collect();
        let preds = [
            TypedPred::new(&a[..], CmpOp::Gt, 5u8),
            TypedPred::new(&b[..], CmpOp::Ne, 2u8),
        ];
        check_all_widths(&preds);
    }

    #[test]
    fn nan_in_data_and_needle() {
        let mut a: Vec<f64> = (0..64).map(|i| (i % 4) as f64).collect();
        a[7] = f64::NAN;
        a[13] = f64::NAN;
        let b: Vec<f64> = (0..64).map(|i| (i % 2) as f64).collect();
        for op in CmpOp::ALL {
            let preds = [
                TypedPred::new(&a[..], op, 2.0f64),
                TypedPred::new(&b[..], CmpOp::Eq, 1.0f64),
            ];
            check_all_widths(&preds);
        }
    }

    #[test]
    fn empty_chain_returns_empty() {
        let out = fused_scan_model::<u32, 4>(&[], OutputMode::Count);
        assert_eq!(out.count(), 0);
        let out = fused_scan_model::<u32, 4>(&[], OutputMode::Positions);
        assert!(out.positions().unwrap().is_empty());
    }
}
