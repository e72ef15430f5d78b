//! Scan telemetry: what a scan did, not just what it returned.
//!
//! Every [`crate::ScanImpl`] run can produce a [`ScanTelemetry`] — blocks
//! scanned, per-stage flush/gather counts, per-predicate survivor counts
//! (hence observed selectivities), bytes touched, wall-clock time, and the
//! derived GB/s and values/µs. The query layer renders it as an
//! `EXPLAIN ANALYZE` block; the benchmark harness embeds it in JSON
//! reports.
//!
//! The kernels themselves contain no telemetry code: a plain
//! [`crate::run_scan`] is uninstrumented. [`crate::run_scan_telemetered`]
//! times the real kernel, and the stage statistics for the hardware fused
//! kernels come from replaying the portable scalar model engine
//! ([`crate::fused::scalar`]) at the matching lane count with a counting
//! sink: all fused implementations execute the identical per-block
//! algorithm (they are differential-tested against the model), so the
//! replay's flush/gather counts are exact, while the wall-clock time is
//! measured on the real kernel.

use std::time::Duration;

use crate::blockwise;
use crate::engine::{RegWidth, ScanImpl};
use crate::fused::scalar::{fused_scan_model_sink, FusedSink};
use crate::fused::Stages;
use crate::pred::{OutputMode, TypedPred};
use fts_storage::NativeType;

/// Counters for one follow-up stage (stage `1..`) of a fused scan: one
/// gather of its column, compared against each predicate of its run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTelemetry {
    /// Times this stage's register-resident position list was flushed
    /// (evaluated via masked gather + compare).
    pub flushes: u64,
    /// Live lanes gathered across all flushes — equals the rows that
    /// survived the previous stage.
    pub gathered: u64,
    /// Rows that survived this stage's last predicate.
    pub survivors: u64,
}

/// What one scan (or the merged morsels of one statement) did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScanTelemetry {
    /// Whether any scan was recorded: `false` only for the empty
    /// [`Default`] record (all fields zero), e.g. a statement whose every
    /// chunk was pruned.
    pub enabled: bool,
    /// The kernels that ran ([`ScanImpl::name`] or a query-layer kernel
    /// name), each with the morsels it ran, in first-run order: one entry
    /// unless a merged scan's morsels ran different kernels.
    pub kernels: Vec<(&'static str, u64)>,
    /// Rows scanned (summed over morsels).
    pub rows: u64,
    /// Predicates in the chain.
    pub predicates: usize,
    /// Vector lanes per block (1 for row-at-a-time implementations).
    pub lanes: usize,
    /// Blocks processed by the driver loop (for row-at-a-time
    /// implementations, rows; for the blockwise baselines, row-blocks).
    pub blocks: u64,
    /// Rows surviving predicates `0..=k`, one entry per predicate.
    pub pred_survivors: Vec<u64>,
    /// The fused stage that evaluated each predicate (0 = driver; fused
    /// implementations only).
    pub pred_stages: Vec<usize>,
    /// Flush/gather counters per follow-up stage, stage 1 first (fused
    /// implementations only).
    pub stages: Vec<StageTelemetry>,
    /// Column bytes the implementation actually touched (driver reads plus
    /// gathers/rescans; see [`collect`] for the per-implementation model).
    pub bytes_touched: u64,
    /// Wall-clock time of the real kernel, summed over merged morsels.
    pub wall: Duration,
    /// Morsels (chunks) merged into this record.
    pub morsels: u64,
    /// Threads that scanned those morsels.
    pub threads: usize,
}

/// The bandwidth-vs-compute verdict for a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundVerdict {
    /// The scan moved bytes at ≥ 60 % of the machine's peak sequential
    /// read bandwidth: it is limited by memory, not instructions.
    BandwidthBound,
    /// The scan ran well below peak bandwidth: instructions (or gather
    /// latency) limit it, so a better kernel could go faster.
    ComputeBound,
}

impl std::fmt::Display for BoundVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundVerdict::BandwidthBound => write!(f, "bandwidth-bound"),
            BoundVerdict::ComputeBound => write!(f, "compute-bound"),
        }
    }
}

impl ScanTelemetry {
    /// The first kernel that ran (the only one unless merged morsels ran
    /// different kernels).
    pub fn impl_name(&self) -> &'static str {
        self.kernels.first().map_or("", |&(name, _)| name)
    }

    /// The kernels for the `Scan [...]` line: the name alone for one
    /// kernel, else each with the morsels it ran.
    fn kernels_label(&self) -> String {
        match &self.kernels[..] {
            [(name, _)] => name.to_string(),
            kernels => kernels
                .iter()
                .map(|(name, n)| format!("{name}×{n}"))
                .collect::<Vec<_>>()
                .join(", "),
        }
    }

    /// Observed selectivity of each predicate: survivors of predicate `k`
    /// over the rows it evaluated (rows surviving `0..k`). Every entry is
    /// in `[0, 1]`.
    pub fn selectivities(&self) -> Vec<f64> {
        let mut prev = self.rows;
        self.pred_survivors
            .iter()
            .map(|&s| {
                let sel = if prev == 0 {
                    0.0
                } else {
                    s as f64 / prev as f64
                };
                prev = s;
                sel
            })
            .collect()
    }

    /// Fraction of all rows that survived the whole chain.
    pub fn overall_selectivity(&self) -> f64 {
        match (self.pred_survivors.last(), self.rows) {
            (Some(&s), rows) if rows > 0 => s as f64 / rows as f64,
            _ => 0.0,
        }
    }

    /// Achieved memory bandwidth in GB/s (`bytes_touched / wall`).
    pub fn gb_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.bytes_touched as f64 / secs / 1e9
        } else {
            0.0
        }
    }

    /// Scan throughput in values per microsecond (driver rows over wall
    /// time — the paper's Fig. 5 metric).
    pub fn values_per_us(&self) -> f64 {
        let us = self.wall.as_secs_f64() * 1e6;
        if us > 0.0 {
            self.rows as f64 / us
        } else {
            0.0
        }
    }

    /// Classify the scan against the machine's peak sequential read
    /// bandwidth (GB/s), e.g. from `fts_core::stride::peak_bandwidth`.
    pub fn verdict(&self, peak_gb_per_sec: f64) -> BoundVerdict {
        if peak_gb_per_sec > 0.0 && self.gb_per_sec() >= 0.6 * peak_gb_per_sec {
            BoundVerdict::BandwidthBound
        } else {
            BoundVerdict::ComputeBound
        }
    }

    /// Fold another record (e.g. one morsel's) into this one: counters
    /// add, structure fields must agree.
    pub fn merge(&mut self, other: &ScanTelemetry) {
        for &(name, n) in &other.kernels {
            match self.kernels.iter_mut().find(|(k, _)| *k == name) {
                Some((_, count)) => *count += n,
                None => self.kernels.push((name, n)),
            }
        }
        if self.pred_stages.is_empty() {
            self.pred_stages.clone_from(&other.pred_stages);
        }
        self.enabled |= other.enabled;
        self.rows += other.rows;
        self.blocks += other.blocks;
        self.bytes_touched += other.bytes_touched;
        self.wall += other.wall;
        self.morsels += other.morsels;
        self.predicates = self.predicates.max(other.predicates);
        self.lanes = self.lanes.max(other.lanes);
        self.threads = self.threads.max(other.threads);
        if self.pred_survivors.len() < other.pred_survivors.len() {
            self.pred_survivors.resize(other.pred_survivors.len(), 0);
        }
        for (a, b) in self.pred_survivors.iter_mut().zip(&other.pred_survivors) {
            *a += b;
        }
        if self.stages.len() < other.stages.len() {
            self.stages
                .resize(other.stages.len(), StageTelemetry::default());
        }
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.flushes += b.flushes;
            a.gathered += b.gathered;
            a.survivors += b.survivors;
        }
    }

    /// Render the `EXPLAIN ANALYZE` block for this scan.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let kernels = self.kernels_label();
        if !self.enabled {
            let _ = writeln!(out, "Scan [{kernels}]  (telemetry off)");
            return out;
        }
        let _ = writeln!(
            out,
            "Scan [{kernels}]  rows={}  preds={}  lanes={}  blocks={}",
            self.rows, self.predicates, self.lanes, self.blocks
        );
        let _ = writeln!(
            out,
            "  wall={:.3?}  throughput={:.1} values/µs  bandwidth={:.2} GB/s  bytes={}",
            self.wall,
            self.values_per_us(),
            self.gb_per_sec(),
            self.bytes_touched
        );
        if self.morsels > 1 || self.threads > 1 {
            let _ = writeln!(out, "  morsels={}  threads={}", self.morsels, self.threads);
        }
        let sels = self.selectivities();
        for (k, (&surv, sel)) in self.pred_survivors.iter().zip(&sels).enumerate() {
            let stage = self.pred_stages.get(k).copied();
            // A stage's first predicate reports the stage's gathers; the
            // rest of its run compared the same lanes.
            let (head, gathers) = match stage {
                _ if k == 0 || stage == Some(0) => (format!("pred {k} (driver)"), None),
                Some(s) if stage != self.pred_stages.get(k - 1).copied() => {
                    (format!("pred {k} (stage {s})"), self.stages.get(s - 1))
                }
                Some(s) => (format!("pred {k} (stage {s})"), None),
                None => (format!("pred {k}"), None),
            };
            let gathers = gathers.map_or(String::new(), |st| {
                format!("flushes={}  gathered={}  ", st.flushes, st.gathered)
            });
            let _ = writeln!(out, "  {head}: {gathers}survivors={surv}  sel={sel:.4}");
        }
        out
    }
}

/// Counting sink plugged into the scalar model engine for the replay.
#[derive(Default)]
struct StatsSink {
    blocks: u64,
    /// Survivors per predicate.
    survivors: Vec<u64>,
    /// Flushes and gathered lanes per follower stage (stage 1 first).
    stages: Vec<StageTelemetry>,
}

impl FusedSink for StatsSink {
    fn driver_block(&mut self) {
        self.blocks += 1;
    }

    fn stage_flush(&mut self, stage: usize, gathered: usize) {
        if self.stages.len() < stage {
            self.stages.resize(stage, StageTelemetry::default());
        }
        let st = &mut self.stages[stage - 1];
        st.flushes += 1;
        st.gathered += gathered as u64;
    }

    fn survivors(&mut self, pred: usize, survivors: usize) {
        if self.survivors.len() <= pred {
            self.survivors.resize(pred + 1, 0);
        }
        self.survivors[pred] += survivors as u64;
    }
}

/// Lane count the implementation processes per block for element type `T`
/// (`None` for row/block-at-a-time implementations).
fn fused_lanes<T: NativeType>(imp: ScanImpl) -> Option<usize> {
    match imp {
        // The portable engine maps a register width to 32-bit lane counts
        // regardless of T (see `run_scan`).
        ScanImpl::FusedScalar(w) => Some(w.lanes32()),
        ScanImpl::FusedAvx2 => Some(RegWidth::W128.bits() / (8 * std::mem::size_of::<T>())),
        ScanImpl::FusedAvx512(w) => Some(w.bits() / (8 * std::mem::size_of::<T>())),
        _ => None,
    }
}

/// Replay the chain through the instrumented scalar model engine at `N`
/// lanes and return the counting sink.
fn replay<T: NativeType, const N: usize>(preds: &[TypedPred<'_, T>]) -> StatsSink {
    let mut sink = StatsSink::default();
    fused_scan_model_sink::<T, N, _>(preds, OutputMode::Count, &mut sink);
    sink
}

/// Build the telemetry record for a scan that already ran (the caller
/// stamps `wall` with the real kernel's measured time).
///
/// Bytes-touched model per implementation family:
/// * SISD branching — predicate `k` reads only the rows surviving `0..k`
///   (short-circuit), so `Σ survivors[k-1] · size`.
/// * SISD auto-vec / blockwise — every predicate reads every row.
/// * Fused — the driver streams all rows once; each follow-up stage
///   gathers its column once at exactly the survivors of the previous
///   stage (a run of predicates on one column is one stage).
pub fn collect<T: NativeType>(imp: ScanImpl, preds: &[TypedPred<'_, T>]) -> ScanTelemetry {
    let size = std::mem::size_of::<T>() as u64;
    let rows = preds.first().map_or(0, |p| p.data.len()) as u64;
    let lanes = fused_lanes::<T>(imp);
    let mut t = ScanTelemetry {
        enabled: true,
        kernels: vec![(imp.name(), 1)],
        rows,
        predicates: preds.len(),
        lanes: lanes.unwrap_or(1),
        blocks: match imp {
            ScanImpl::BlockBitmap | ScanImpl::BlockSelVec => {
                rows.div_ceil(blockwise::DEFAULT_BLOCK_ROWS as u64)
            }
            _ => rows.div_ceil(lanes.unwrap_or(1).max(1) as u64),
        },
        bytes_touched: rows * size * preds.len() as u64,
        morsels: 1,
        threads: 1,
        ..ScanTelemetry::default()
    };
    if preds.is_empty() {
        return t;
    }

    match lanes {
        Some(n) => {
            let sink = match n {
                2 => replay::<T, 2>(preds),
                4 => replay::<T, 4>(preds),
                8 => replay::<T, 8>(preds),
                16 => replay::<T, 16>(preds),
                32 => replay::<T, 32>(preds),
                // Unreachable for combinations run_scan accepts; leave
                // stage stats empty rather than guess.
                _ => StatsSink::default(),
            };
            let stages = Stages::of_typed(preds);
            let mut sink = sink;
            sink.survivors.resize(preds.len(), 0);
            sink.stages
                .resize(stages.len() - 1, StageTelemetry::default());
            for (s, st) in sink.stages.iter_mut().enumerate() {
                st.survivors = sink.survivors[stages.preds(s + 1).end - 1];
            }
            t.blocks = sink.blocks.max(t.blocks);
            t.pred_survivors = sink.survivors;
            t.pred_stages = (0..preds.len()).map(|p| stages.stage_of(p)).collect();
            t.stages = sink.stages;
            t.bytes_touched = rows * size + t.stages.iter().map(|s| s.gathered * size).sum::<u64>();
        }
        None => {
            // Analytic prefix-survivor pass for the row/block baselines.
            let mut survivors = vec![0u64; preds.len()];
            for row in 0..rows as usize {
                for (k, p) in preds.iter().enumerate() {
                    if !p.matches(row) {
                        break;
                    }
                    survivors[k] += 1;
                }
            }
            if imp == ScanImpl::SisdBranching {
                let mut bytes = rows * size;
                for &s in &survivors[..preds.len() - 1] {
                    bytes += s * size;
                }
                t.bytes_touched = bytes;
            }
            t.pred_survivors = survivors;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_scan, run_scan_telemetered};
    use fts_storage::CmpOp;

    fn chain(rows: u32) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        (
            (0..rows).map(|i| i % 2).collect(),
            (0..rows).map(|i| i % 4).collect(),
            (0..rows).map(|i| i % 8).collect(),
        )
    }

    #[test]
    fn fused_stage_counters_are_exact() {
        let (a, b, c) = chain(4096);
        let preds = [
            TypedPred::eq(&a[..], 1u32),
            TypedPred::new(&b[..], CmpOp::Le, 1u32),
            TypedPred::eq(&c[..], 1u32),
        ];
        let imp = ScanImpl::FusedScalar(RegWidth::W512);
        let (out, t) = run_scan_telemetered(imp, &preds, OutputMode::Count).unwrap();
        assert!(t.enabled);
        assert_eq!(t.rows, 4096);
        assert_eq!(t.lanes, 16);
        assert_eq!(t.blocks, 4096 / 16);
        // i%2==1 → 2048; of those i%4<=1 → the i%4==1 half → 1024; of
        // those i%8==1 → 512.
        assert_eq!(t.pred_survivors, vec![2048, 1024, 512]);
        assert_eq!(out.count(), 512);
        // Stage 1 gathers exactly the driver survivors, stage 2 exactly
        // stage 1's survivors.
        assert_eq!(t.stages[0].gathered, 2048);
        assert_eq!(t.stages[1].gathered, 1024);
        assert!(t.stages[0].flushes >= 2048 / 16);
        let sels = t.selectivities();
        assert!((sels[0] - 0.5).abs() < 1e-9, "{sels:?}");
        assert!((sels[1] - 0.5).abs() < 1e-9);
        assert!((sels[2] - 0.5).abs() < 1e-9);
        assert!(sels.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn a_same_column_run_is_one_stage() {
        let (a, b, _) = chain(4096);
        // b ∈ [1, 2] drives as one stage; a = 1 is then gathered once.
        let preds = [
            TypedPred::new(&b[..], CmpOp::Ge, 1u32),
            TypedPred::new(&b[..], CmpOp::Le, 2u32),
            TypedPred::eq(&a[..], 1u32),
        ];
        let imp = ScanImpl::FusedScalar(RegWidth::W512);
        let (out, t) = run_scan_telemetered(imp, &preds, OutputMode::Count).unwrap();
        // i%4 ≥ 1 → 3072; ≤ 2 → 2048; of those i odd (i%4 == 1) → 1024.
        assert_eq!(out.count(), 1024);
        assert_eq!(t.pred_survivors, vec![3072, 2048, 1024]);
        assert_eq!(t.pred_stages, vec![0, 0, 1]);
        assert_eq!(t.stages.len(), 1);
        assert_eq!((t.stages[0].gathered, t.stages[0].survivors), (2048, 1024));
        assert_eq!(t.bytes_touched, (4096 + 2048) * 4);
        let text = t.render();
        assert!(text.contains("pred 1 (driver): survivors=2048"), "{text}");
        assert!(text.contains("pred 2 (stage 1): flushes="), "{text}");
        // A lone BETWEEN gathers nothing and reads one column.
        let (_, t) = run_scan_telemetered(imp, &preds[..2], OutputMode::Count).unwrap();
        assert!(t.stages.is_empty());
        assert_eq!(t.bytes_touched, 4096 * 4);
        assert!(!t.render().contains("gathered"), "{}", t.render());
    }

    #[test]
    fn merge_counts_morsels_per_kernel() {
        let morsel = |name| ScanTelemetry {
            enabled: true,
            kernels: vec![(name, 1)],
            morsels: 1,
            ..ScanTelemetry::default()
        };
        let mut t = morsel("x");
        for name in ["y", "x", "z", "x"] {
            t.merge(&morsel(name));
        }
        assert_eq!(t.kernels, vec![("x", 3), ("y", 1), ("z", 1)]);
        assert_eq!(t.impl_name(), "x");
        assert!(
            t.render().starts_with("Scan [x×3, y×1, z×1]"),
            "{}",
            t.render()
        );
        // One kernel renders by name alone.
        assert!(morsel("x").render().starts_with("Scan [x]"));
    }

    #[test]
    fn survivors_match_across_impl_families() {
        let (a, b, _) = chain(3000);
        let preds = [
            TypedPred::eq(&a[..], 1u32),
            TypedPred::new(&b[..], CmpOp::Ne, 3u32),
        ];
        let expected = run_scan(ScanImpl::SisdBranching, &preds, OutputMode::Count)
            .unwrap()
            .count();
        for imp in [
            ScanImpl::SisdBranching,
            ScanImpl::SisdAutoVec,
            ScanImpl::BlockBitmap,
            ScanImpl::BlockSelVec,
            ScanImpl::FusedScalar(RegWidth::W128),
            crate::engine::best_fused_impl::<u32>(),
        ] {
            let (out, t) = run_scan_telemetered(imp, &preds, OutputMode::Count).unwrap();
            assert_eq!(out.count(), expected, "{}", imp.name());
            assert_eq!(
                *t.pred_survivors.last().unwrap(),
                expected,
                "{} survivors",
                imp.name()
            );
            assert!(t.bytes_touched > 0);
            assert!(t.selectivities().iter().all(|s| (0.0..=1.0).contains(s)));
        }
    }

    #[test]
    fn merge_sums_counters() {
        let (a, b, _) = chain(1024);
        let preds = [TypedPred::eq(&a[..], 1u32), TypedPred::eq(&b[..], 1u32)];
        let imp = ScanImpl::FusedScalar(RegWidth::W256);
        let (_, whole) = run_scan_telemetered(imp, &preds, OutputMode::Count).unwrap();
        let half = [
            TypedPred::eq(&a[..512], 1u32),
            TypedPred::eq(&b[..512], 1u32),
        ];
        let other = [
            TypedPred::eq(&a[512..], 1u32),
            TypedPred::eq(&b[512..], 1u32),
        ];
        let (_, mut m0) = run_scan_telemetered(imp, &half, OutputMode::Count).unwrap();
        let (_, m1) = run_scan_telemetered(imp, &other, OutputMode::Count).unwrap();
        m0.merge(&m1);
        assert_eq!(m0.rows, whole.rows);
        assert_eq!(
            m0.blocks, whole.blocks,
            "512 is lane-aligned: block sums must agree"
        );
        assert_eq!(m0.pred_survivors, whole.pred_survivors);
        assert_eq!(m0.morsels, 2);
    }

    #[test]
    fn verdict_and_render() {
        let (a, _, _) = chain(1 << 16);
        let preds = [TypedPred::eq(&a[..], 1u32)];
        let (_, t) = run_scan_telemetered(
            crate::engine::best_fused_impl::<u32>(),
            &preds,
            OutputMode::Count,
        )
        .unwrap();
        assert!(t.gb_per_sec() > 0.0);
        assert!(t.values_per_us() > 0.0);
        // Against an absurdly high peak the scan is compute-bound; against
        // a tiny peak it is bandwidth-bound.
        assert_eq!(t.verdict(1e12), BoundVerdict::ComputeBound);
        assert_eq!(t.verdict(1e-9), BoundVerdict::BandwidthBound);
        let text = t.render();
        assert!(text.contains("values/µs"), "{text}");
        assert!(text.contains("pred 0"), "{text}");
        let off = ScanTelemetry::default();
        assert!(off.render().contains("telemetry off"));
    }
}
