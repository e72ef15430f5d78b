//! Adaptive kernel selection: plan-time cost model + runtime calibration.
//!
//! The paper's fused AVX-512 scan wins most selectivity × chain-length
//! configurations — but not all of them (Fig. 5 shows SISD auto-vec ahead
//! on long low-selectivity chains, and narrower registers ahead when the
//! gather stages dominate). A static kernel choice is therefore wrong in a
//! minority of configurations. This module closes the loop in two stages:
//!
//! 1. **Plan-time cost model** ([`rank_scan_impls`]): from a
//!    [`ChainProfile`] (estimated per-predicate selectivity, column width
//!    and encoding — the query layer seeds this from catalog stats) and
//!    the measured peak bandwidth ([`crate::stride::peak_bandwidth_gbps`]),
//!    estimate each candidate kernel's bytes-over-the-bus and instruction
//!    cost, and rank by the max of the two (a scan runs at the speed of
//!    whichever resource saturates first — the decode-throughput law).
//! 2. **Runtime calibration** ([`Calibrator`]): the first few morsels are
//!    distributed round-robin across the top-ranked candidates with
//!    per-morsel timing; the fastest observed kernel then runs the
//!    remainder. If the observed chain selectivity drifts from the
//!    estimate by more than a threshold, the calibrator re-probes.
//!
//! The [`Calibrator`] is a pure state machine — timings are injected via
//! [`Calibrator::observe`], so the protocol is deterministic and unit
//! testable without a clock. The query executor drives it with real
//! measurements, one chunk per morsel.

use crate::engine::{RegWidth, ScanElem, ScanImpl};
use crate::parallel::DEFAULT_MORSEL_ROWS;
use crate::telemetry::BoundVerdict;
use fts_simd::{detect, SimdLevel};
use fts_storage::DataType;

/// Physical encoding of a scanned column, as seen by the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Encoding {
    /// Uncompressed native values.
    Plain,
    /// Dictionary-encoded: the scan runs over 4-byte value ids.
    Dict,
    /// Bit-packed value ids at `bits` bits per value (the compressed-domain
    /// kernel streams `bits/8` bytes per value instead of 4).
    Packed {
        /// Bits per packed value id.
        bits: u8,
    },
}

impl Encoding {
    /// Bytes the driver loop streams per value under this encoding when
    /// the logical value width is `width_bytes`.
    pub fn bytes_per_value(self, width_bytes: u32) -> f64 {
        match self {
            Encoding::Plain => width_bytes as f64,
            Encoding::Dict => 4.0,
            Encoding::Packed { bits } => bits as f64 / 8.0,
        }
    }
}

/// Cost-model view of one predicate in a scan chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredProfile {
    /// Estimated selectivity of this predicate alone, in `[0, 1]`.
    pub selectivity: f64,
    /// Width of the scanned element in bytes (4 for the u32 kernels).
    pub width_bytes: u32,
    /// Physical encoding of the column.
    pub encoding: Encoding,
}

impl PredProfile {
    /// A plain 4-byte predicate with the given selectivity estimate.
    pub fn plain_u32(selectivity: f64) -> PredProfile {
        PredProfile {
            selectivity: selectivity.clamp(0.0, 1.0),
            width_bytes: 4,
            encoding: Encoding::Plain,
        }
    }
}

/// Cost-model view of a whole scan chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainProfile {
    /// Rows the chain scans.
    pub rows: u64,
    /// Per-predicate profiles, in evaluation order.
    pub preds: Vec<PredProfile>,
}

impl ChainProfile {
    /// A chain of `n` plain 4-byte predicates, each at selectivity `sel`.
    pub fn uniform_u32(rows: u64, n: usize, sel: f64) -> ChainProfile {
        ChainProfile {
            rows,
            preds: vec![PredProfile::plain_u32(sel); n.max(1)],
        }
    }

    /// Expected rows surviving predicates `0..=k` (cumulative product of
    /// the selectivity estimates).
    pub fn prefix_survivors(&self) -> Vec<f64> {
        let mut acc = self.rows as f64;
        self.preds
            .iter()
            .map(|p| {
                acc *= p.selectivity.clamp(0.0, 1.0);
                acc
            })
            .collect()
    }

    /// Expected fraction of rows surviving the whole chain.
    pub fn expected_selectivity(&self) -> f64 {
        self.preds
            .iter()
            .map(|p| p.selectivity.clamp(0.0, 1.0))
            .product()
    }
}

/// Cost-model constants: rough per-value instruction costs in nanoseconds,
/// calibrated to the shapes of paper Fig. 5 rather than to any particular
/// machine — the runtime calibration corrects the absolute numbers, the
/// model only has to get the *ranking* roughly right.
mod ns {
    /// Branching SISD compare (unpredictable-branch loop, never
    /// auto-vectorized).
    pub const SISD_BRANCH: f64 = 1.0;
    /// Extra cost of one mispredicted branch.
    pub const BRANCH_MISS: f64 = 8.0;
    /// Branch-free auto-vectorized compare, per value per predicate.
    pub const SISD_AUTOVEC: f64 = 0.25;
    /// Block-at-a-time compare plus intermediate materialization.
    pub const BLOCKWISE: f64 = 0.35;
    /// Interpreted scalar model engine (per driver value / per gathered
    /// survivor).
    pub const FUSED_SCALAR: f64 = 1.5;
    /// AVX2 fused driver per value (emulated compress).
    pub const AVX2_DRIVER: f64 = 0.12;
    /// AVX-512 fused driver per value at 512-bit width; narrower widths
    /// scale inversely with lane count.
    pub const AVX512_DRIVER_W512: f64 = 0.04;
    /// Masked gather + compare per surviving row (follow-up stages).
    pub const GATHER: f64 = 0.35;
    /// Compressed-domain unpack + compare per value.
    pub const PACKED: f64 = 0.10;
}

/// A cost estimate for running one kernel over one [`ChainProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated wall time in nanoseconds: `max(memory_ns, compute_ns)`.
    pub est_ns: f64,
    /// Bytes the kernel is modeled to move over the memory bus.
    pub bytes: f64,
    /// Time to move [`CostEstimate::bytes`] at peak bandwidth.
    pub memory_ns: f64,
    /// Modeled instruction cost.
    pub compute_ns: f64,
}

impl CostEstimate {
    fn from_parts(bytes: f64, compute_ns: f64, peak_gbps: f64) -> CostEstimate {
        // 1 GB/s = 1 byte/ns, so bytes / GB/s is already nanoseconds.
        let memory_ns = bytes / peak_gbps.max(1e-3);
        CostEstimate {
            est_ns: memory_ns.max(compute_ns),
            bytes,
            memory_ns,
            compute_ns,
        }
    }

    /// Which resource the model predicts will saturate first.
    pub fn verdict(&self) -> BoundVerdict {
        if self.memory_ns >= self.compute_ns {
            BoundVerdict::BandwidthBound
        } else {
            BoundVerdict::ComputeBound
        }
    }
}

/// Estimate the cost of one [`ScanImpl`] over `profile` against a machine
/// whose peak sequential read bandwidth is `peak_gbps`.
///
/// Bytes model (consistent with [`crate::telemetry::collect`]):
/// * branching SISD — predicate `k` reads only the survivors of `0..k`;
/// * auto-vec / blockwise — every predicate reads every row;
/// * fused — the driver streams all rows once, each follow-up stage
///   gathers exactly the previous predicate's survivors.
pub fn estimate_cost(imp: ScanImpl, profile: &ChainProfile, peak_gbps: f64) -> CostEstimate {
    let rows = profile.rows as f64;
    let survivors = profile.prefix_survivors();
    let first = profile.preds.first().copied().unwrap_or(PredProfile {
        selectivity: 1.0,
        width_bytes: 4,
        encoding: Encoding::Plain,
    });
    let width = first.encoding.bytes_per_value(first.width_bytes);
    // Rows evaluated by predicate k: all rows for k = 0, then the
    // survivors of the prefix before it.
    let evaluated = |k: usize| -> f64 {
        if k == 0 {
            rows
        } else {
            survivors[k - 1]
        }
    };
    let all_pred_bytes: f64 = profile
        .preds
        .iter()
        .map(|p| rows * p.encoding.bytes_per_value(p.width_bytes))
        .sum();

    match imp {
        ScanImpl::SisdBranching => {
            let mut bytes = 0.0;
            let mut compute = 0.0;
            for (k, p) in profile.preds.iter().enumerate() {
                let n = evaluated(k);
                let s = p.selectivity.clamp(0.0, 1.0);
                bytes += n * p.encoding.bytes_per_value(p.width_bytes);
                // Short-circuit branch per evaluated value; mispredict
                // probability 2·s·(1−s) for a branch taken with rate s.
                compute += n * (ns::SISD_BRANCH + 2.0 * s * (1.0 - s) * ns::BRANCH_MISS);
            }
            CostEstimate::from_parts(bytes, compute, peak_gbps)
        }
        ScanImpl::SisdAutoVec => CostEstimate::from_parts(
            all_pred_bytes,
            rows * profile.preds.len() as f64 * ns::SISD_AUTOVEC,
            peak_gbps,
        ),
        ScanImpl::BlockBitmap | ScanImpl::BlockSelVec => CostEstimate::from_parts(
            // Bitmask / selection-vector intermediates add one byte-ish
            // per row per predicate on top of the column reads.
            all_pred_bytes + rows * profile.preds.len() as f64,
            rows * profile.preds.len() as f64 * ns::BLOCKWISE,
            peak_gbps,
        ),
        ScanImpl::FusedScalar(_) | ScanImpl::FusedAvx2 | ScanImpl::FusedAvx512(_) => {
            let (driver_ns, gather_ns) = match imp {
                ScanImpl::FusedScalar(_) => (ns::FUSED_SCALAR, ns::FUSED_SCALAR),
                ScanImpl::FusedAvx2 => (ns::AVX2_DRIVER, ns::GATHER),
                ScanImpl::FusedAvx512(w) => (
                    ns::AVX512_DRIVER_W512 * (RegWidth::W512.lanes32() as f64)
                        / (w.lanes32() as f64),
                    ns::GATHER,
                ),
                _ => unreachable!(),
            };
            let mut bytes = rows * width;
            let mut compute = rows * driver_ns;
            for (k, p) in profile.preds.iter().enumerate().skip(1) {
                let n = evaluated(k);
                bytes += n * p.encoding.bytes_per_value(p.width_bytes);
                compute += n * gather_ns;
            }
            CostEstimate::from_parts(bytes, compute, peak_gbps)
        }
    }
}

/// Estimate the cost of the compressed-domain (bit-packed) fused kernel
/// over `profile`. Meaningful when the chain's columns are
/// [`Encoding::Packed`]: the driver streams `bits/8` bytes per value, so
/// the kernel trades extra unpack instructions for a fraction of the
/// memory traffic.
pub fn estimate_packed_cost(profile: &ChainProfile, peak_gbps: f64) -> CostEstimate {
    let rows = profile.rows as f64;
    let survivors = profile.prefix_survivors();
    let mut bytes = 0.0;
    let mut compute = 0.0;
    for (k, p) in profile.preds.iter().enumerate() {
        let n = if k == 0 { rows } else { survivors[k - 1] };
        bytes += n * p.encoding.bytes_per_value(p.width_bytes);
        compute += n * if k == 0 { ns::PACKED } else { ns::GATHER };
    }
    CostEstimate::from_parts(bytes, compute, peak_gbps)
}

/// A kernel with its plan-time cost estimate, as produced by
/// [`rank_scan_impls`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedKernel<C> {
    /// The candidate kernel.
    pub kernel: C,
    /// Its modeled cost.
    pub cost: CostEstimate,
}

/// The [`ScanImpl`]s the selector considers for element type `T` on this
/// host: SISD auto-vec always; the AVX2 backport and the AVX-512 widths
/// when the ISA ([`fts_simd::detect()`]) and the element type support them;
/// the portable scalar engine only when no hardware kernel exists.
pub fn candidate_scan_impls<T: ScanElem>() -> Vec<ScanImpl> {
    let kernels_32 = matches!(T::DATA_TYPE, DataType::U32 | DataType::I32 | DataType::F32);
    let kernels_64 = matches!(T::DATA_TYPE, DataType::U64 | DataType::I64 | DataType::F64);
    let mut v = vec![ScanImpl::SisdBranching, ScanImpl::SisdAutoVec];
    if detect() >= SimdLevel::Avx2 && kernels_32 {
        v.push(ScanImpl::FusedAvx2);
    }
    if detect() >= SimdLevel::Avx512 {
        if kernels_32 {
            v.push(ScanImpl::FusedAvx512(RegWidth::W128));
            v.push(ScanImpl::FusedAvx512(RegWidth::W256));
        }
        if kernels_32 || kernels_64 {
            v.push(ScanImpl::FusedAvx512(RegWidth::W512));
        }
    }
    if v.len() == 2 && !kernels_32 && !kernels_64 {
        // No hardware kernel for this type: the portable fused engine is
        // still a candidate (it skips follow-up columns like the real one).
        v.push(ScanImpl::FusedScalar(RegWidth::W512));
    }
    v
}

/// Rank `candidates` by modeled cost, cheapest first.
pub fn rank_scan_impls(
    candidates: &[ScanImpl],
    profile: &ChainProfile,
    peak_gbps: f64,
) -> Vec<RankedKernel<ScanImpl>> {
    let mut ranked: Vec<RankedKernel<ScanImpl>> = candidates
        .iter()
        .map(|&imp| RankedKernel {
            kernel: imp,
            cost: estimate_cost(imp, profile, peak_gbps),
        })
        .collect();
    // Bandwidth-bound profiles tie every vector kernel at `memory_ns`;
    // break those ties by compute headroom so the calibrator still probes
    // the compute-fastest kernels first (a stable sort would otherwise
    // freeze the enumeration order and can push the best kernel out of
    // the probed top-K entirely).
    ranked.sort_by(|a, b| {
        a.cost
            .est_ns
            .total_cmp(&b.cost.est_ns)
            .then(a.cost.compute_ns.total_cmp(&b.cost.compute_ns))
    });
    ranked
}

/// Tuning knobs for the calibration protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Morsels each candidate is timed on before a winner is picked.
    pub probes_per_candidate: usize,
    /// How many of the top-ranked kernels enter calibration.
    pub top_candidates: usize,
    /// Relative selectivity drift that triggers a re-probe
    /// (`|observed − expected| > max(threshold · expected, floor)`).
    pub drift_threshold: f64,
    /// Absolute drift floor, so near-zero estimates don't re-probe on
    /// noise.
    pub drift_floor: f64,
    /// Rows of steady-state scanning between drift checks.
    pub recheck_rows: u64,
}

impl Default for CalibrationConfig {
    fn default() -> CalibrationConfig {
        CalibrationConfig {
            probes_per_candidate: 1,
            top_candidates: 3,
            drift_threshold: 0.5,
            drift_floor: 0.02,
            recheck_rows: 32 * DEFAULT_MORSEL_ROWS as u64,
        }
    }
}

/// Measured probe statistics for one candidate kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateStats<C> {
    /// The kernel.
    pub kernel: C,
    /// Probe morsels timed on it.
    pub morsels: u64,
    /// Rows those morsels covered.
    pub rows: u64,
    /// Summed wall time of those morsels in nanoseconds.
    pub wall_ns: u64,
}

impl<C> CandidateStats<C> {
    /// Measured scan throughput in values per microsecond.
    pub fn values_per_us(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.rows as f64 * 1e3 / self.wall_ns as f64
        }
    }
}

/// Everything the calibrator learned, for `EXPLAIN ANALYZE` and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationReport<C> {
    /// Per-candidate probe measurements, in ranked order.
    pub candidates: Vec<CandidateStats<C>>,
    /// The kernel that won calibration (None if the scan ended mid-probe).
    pub winner: Option<C>,
    /// Times drift forced calibration to restart.
    pub reprobes: u32,
    /// The selectivity estimate the calibrator currently holds.
    pub expected_selectivity: f64,
    /// Overall observed selectivity across everything scanned so far.
    pub observed_selectivity: f64,
}

/// Which kernel the calibrator wants next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase<C> {
    /// Still probing: run the next morsel on this candidate, timed.
    Calibrating(C),
    /// A winner is chosen: run the remainder on it.
    Steady(C),
}

/// The calibration state machine. Generic over the kernel handle `C` so
/// the query layer can calibrate across JIT and engine kernels with one
/// protocol; deterministic because all timings arrive via
/// [`Calibrator::observe`].
#[derive(Debug, Clone)]
pub struct Calibrator<C: Copy + PartialEq> {
    candidates: Vec<CandidateStats<C>>,
    cfg: CalibrationConfig,
    expected_selectivity: f64,
    winner: Option<usize>,
    /// Each candidate must reach this many probe morsels before a winner
    /// is picked; re-probes raise it.
    probe_target: u64,
    window_rows: u64,
    window_matches: u64,
    total_rows: u64,
    total_matches: u64,
    reprobes: u32,
}

impl<C: Copy + PartialEq> Calibrator<C> {
    /// Build a calibrator over `ranked` kernels (best-estimate first; only
    /// the first [`CalibrationConfig::top_candidates`] are probed).
    /// `expected_selectivity` is the plan-time estimate of the fraction of
    /// rows surviving the whole chain.
    pub fn new(ranked: &[C], expected_selectivity: f64, cfg: CalibrationConfig) -> Calibrator<C> {
        assert!(!ranked.is_empty(), "calibrator needs at least one kernel");
        let candidates: Vec<CandidateStats<C>> = ranked
            .iter()
            .take(cfg.top_candidates.max(1))
            .map(|&kernel| CandidateStats {
                kernel,
                morsels: 0,
                rows: 0,
                wall_ns: 0,
            })
            .collect();
        let single = candidates.len() == 1 || cfg.probes_per_candidate == 0;
        Calibrator {
            winner: single.then_some(0),
            probe_target: cfg.probes_per_candidate as u64,
            candidates,
            cfg,
            expected_selectivity: expected_selectivity.clamp(0.0, 1.0),
            window_rows: 0,
            window_matches: 0,
            total_rows: 0,
            total_matches: 0,
            reprobes: 0,
        }
    }

    /// What to run next: a probe candidate (fewest probe morsels so far,
    /// ties broken by rank) or the steady-state winner.
    pub fn phase(&self) -> Phase<C> {
        match self.winner {
            Some(i) => Phase::Steady(self.candidates[i].kernel),
            None => {
                let i = self
                    .candidates
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.morsels)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                Phase::Calibrating(self.candidates[i].kernel)
            }
        }
    }

    /// The chosen kernel, once calibration has converged.
    pub fn winner(&self) -> Option<C> {
        self.winner.map(|i| self.candidates[i].kernel)
    }

    /// Feed back what one unit of scanning did: `rows` scanned by
    /// `kernel` in `wall_ns`, of which `matches` survived the chain.
    ///
    /// During probing the measurement updates the candidate's stats and,
    /// once every candidate reached the probe target, picks the winner
    /// (highest measured values/µs). In steady state the rows/matches
    /// feed the drift window; when the window covers
    /// [`CalibrationConfig::recheck_rows`], a drift beyond the threshold
    /// resets the protocol to probing with the observed selectivity as
    /// the new expectation.
    pub fn observe(&mut self, kernel: C, rows: u64, wall_ns: u64, matches: u64) {
        self.total_rows += rows;
        self.total_matches += matches;
        self.window_rows += rows;
        self.window_matches += matches;
        match self.winner {
            None => {
                if let Some(c) = self.candidates.iter_mut().find(|c| c.kernel == kernel) {
                    c.morsels += 1;
                    c.rows += rows;
                    c.wall_ns += wall_ns;
                }
                if self
                    .candidates
                    .iter()
                    .all(|c| c.morsels >= self.probe_target)
                {
                    let best = self
                        .candidates
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| a.values_per_us().total_cmp(&b.values_per_us()))
                        .map(|(i, _)| i);
                    self.winner = best;
                    // Calibration just measured the real selectivity;
                    // adopt it and restart the drift window.
                    if self.window_rows > 0 {
                        self.expected_selectivity =
                            self.window_matches as f64 / self.window_rows as f64;
                    }
                    self.window_rows = 0;
                    self.window_matches = 0;
                }
            }
            Some(_) => {
                if self.window_rows >= self.cfg.recheck_rows {
                    let observed = self.window_matches as f64 / self.window_rows as f64;
                    let drift = (observed - self.expected_selectivity).abs();
                    let allowed = (self.cfg.drift_threshold * self.expected_selectivity)
                        .max(self.cfg.drift_floor);
                    if drift > allowed {
                        self.winner = None;
                        self.probe_target += self.cfg.probes_per_candidate.max(1) as u64;
                        self.expected_selectivity = observed;
                        self.reprobes += 1;
                    }
                    self.window_rows = 0;
                    self.window_matches = 0;
                }
            }
        }
    }

    /// Snapshot of what calibration learned so far.
    pub fn report(&self) -> CalibrationReport<C> {
        CalibrationReport {
            candidates: self.candidates.clone(),
            winner: self.winner(),
            reprobes: self.reprobes,
            expected_selectivity: self.expected_selectivity,
            observed_selectivity: if self.total_rows > 0 {
                self.total_matches as f64 / self.total_rows as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_probe(k: usize, top: usize) -> CalibrationConfig {
        CalibrationConfig {
            probes_per_candidate: k,
            top_candidates: top,
            drift_threshold: 0.5,
            drift_floor: 0.02,
            recheck_rows: 100,
        }
    }

    #[test]
    fn cost_model_prefers_wide_registers_on_simple_chains() {
        if detect() < SimdLevel::Avx512 {
            return;
        }
        let profile = ChainProfile::uniform_u32(1 << 20, 2, 0.1);
        let ranked = rank_scan_impls(&candidate_scan_impls::<u32>(), &profile, 20.0);
        // Top pick is a hardware fused kernel, and the interpreted scalar
        // engine is never ranked first.
        assert!(
            matches!(
                ranked[0].kernel,
                ScanImpl::FusedAvx512(_) | ScanImpl::FusedAvx2 | ScanImpl::SisdAutoVec
            ),
            "{:?}",
            ranked[0]
        );
        for r in &ranked {
            assert!(r.cost.est_ns > 0.0);
            assert!(r.cost.est_ns >= r.cost.memory_ns.max(r.cost.compute_ns) - 1e-9);
        }
        // Ranking is sorted.
        for pair in ranked.windows(2) {
            assert!(pair[0].cost.est_ns <= pair[1].cost.est_ns);
        }
    }

    #[test]
    fn packed_cost_wins_on_bandwidth_bound_chains() {
        // 9-bit packed values stream ~4.4× fewer bytes; in a
        // bandwidth-bound regime (low peak) the packed kernel must beat a
        // plain 4-byte scan.
        let packed = ChainProfile {
            rows: 1 << 24,
            preds: vec![PredProfile {
                selectivity: 0.1,
                width_bytes: 4,
                encoding: Encoding::Packed { bits: 9 },
            }],
        };
        let plain = ChainProfile::uniform_u32(1 << 24, 1, 0.1);
        let peak = 10.0;
        let c_packed = estimate_packed_cost(&packed, peak);
        let c_plain = estimate_cost(ScanImpl::FusedAvx512(RegWidth::W512), &plain, peak);
        assert!(c_packed.est_ns < c_plain.est_ns, "{c_packed:?} {c_plain:?}");
        assert_eq!(c_plain.verdict(), BoundVerdict::BandwidthBound);
    }

    #[test]
    fn branching_model_penalizes_unpredictable_selectivity() {
        let coin_flip = ChainProfile::uniform_u32(1 << 20, 2, 0.5);
        let skewed = ChainProfile::uniform_u32(1 << 20, 2, 0.001);
        let c_flip = estimate_cost(ScanImpl::SisdBranching, &coin_flip, 1e6);
        let c_skew = estimate_cost(ScanImpl::SisdBranching, &skewed, 1e6);
        assert!(c_flip.compute_ns > c_skew.compute_ns * 2.0);
    }

    #[test]
    fn calibration_winner_sticks() {
        // Fake timings: kernel B is twice as fast as A and C.
        let mut cal = Calibrator::new(&["A", "B", "C"], 0.1, cfg_probe(2, 3));
        for _ in 0..6 {
            let Phase::Calibrating(k) = cal.phase() else {
                panic!("should still be probing");
            };
            let wall = if k == "B" { 500 } else { 1000 };
            cal.observe(k, 100, wall, 10);
        }
        assert_eq!(cal.winner(), Some("B"));
        for _ in 0..50 {
            assert_eq!(cal.phase(), Phase::Steady("B"));
            cal.observe("B", 10, 0, 1);
        }
        let report = cal.report();
        assert_eq!(report.winner, Some("B"));
        assert_eq!(report.reprobes, 0);
        assert_eq!(report.candidates.len(), 3);
        let b = report.candidates.iter().find(|c| c.kernel == "B").unwrap();
        assert_eq!(b.morsels, 2);
        assert!(b.values_per_us() > 0.0);
    }

    #[test]
    fn drift_triggers_reprobe_and_new_winner() {
        let mut cal = Calibrator::new(&["A", "B"], 0.10, cfg_probe(1, 2));
        // Probe: A fast, B slow → A wins. Observed selectivity ~0.10.
        cal.observe("A", 100, 100, 10);
        cal.observe("B", 100, 400, 10);
        assert_eq!(cal.winner(), Some("A"));

        // Steady at the expected selectivity: no re-probe.
        cal.observe("A", 100, 0, 10);
        assert_eq!(cal.winner(), Some("A"));
        assert_eq!(cal.report().reprobes, 0);

        // Selectivity jumps to 0.9: window of ≥100 rows triggers drift.
        cal.observe("A", 100, 0, 90);
        assert_eq!(cal.winner(), None, "drift must force re-probe");
        let report = cal.report();
        assert_eq!(report.reprobes, 1);
        assert!((report.expected_selectivity - 0.9).abs() < 0.3);

        // Second probe round: now B is fast → B becomes the winner.
        for _ in 0..2 {
            let Phase::Calibrating(k) = cal.phase() else {
                panic!("should be re-probing");
            };
            let wall = if k == "B" { 100 } else { 400 };
            cal.observe(k, 100, wall, 90);
        }
        assert_eq!(cal.winner(), Some("B"));
    }

    #[test]
    fn small_drift_does_not_reprobe() {
        let mut cal = Calibrator::new(&["A", "B"], 0.10, cfg_probe(1, 2));
        cal.observe("A", 100, 100, 10);
        cal.observe("B", 100, 200, 10);
        assert_eq!(cal.winner(), Some("A"));
        // 0.10 → 0.12 is inside the 50% relative threshold.
        for _ in 0..10 {
            cal.observe("A", 100, 0, 12);
        }
        assert_eq!(cal.winner(), Some("A"));
        assert_eq!(cal.report().reprobes, 0);
    }

    #[test]
    fn single_candidate_skips_probing() {
        let cal = Calibrator::new(&["only"], 0.5, cfg_probe(2, 3));
        assert_eq!(cal.winner(), Some("only"));
        assert_eq!(cal.phase(), Phase::Steady("only"));
    }

    #[test]
    fn top_candidates_truncates() {
        let cal = Calibrator::new(&["A", "B", "C", "D"], 0.5, cfg_probe(1, 2));
        assert_eq!(cal.report().candidates.len(), 2);
    }

    #[test]
    fn profile_helpers() {
        let p = ChainProfile::uniform_u32(1000, 2, 0.5);
        assert_eq!(p.prefix_survivors(), vec![500.0, 250.0]);
        assert!((p.expected_selectivity() - 0.25).abs() < 1e-12);
        assert_eq!(Encoding::Packed { bits: 8 }.bytes_per_value(4), 1.0);
        assert_eq!(Encoding::Dict.bytes_per_value(8), 4.0);
    }
}
