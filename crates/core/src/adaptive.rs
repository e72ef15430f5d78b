//! Adaptive kernel selection by measurement: a fixed preference order
//! and runtime calibration.
//!
//! The paper's Fig. 5 ordering holds at every selectivity on the hosts
//! this reproduction measures (EXPERIMENTS.md): the 512-bit fused scan
//! beats every narrower width and both SISD scans. So no plan-time model
//! decides which kernels deserve a probe. [`candidate_scan_impls`] lists
//! the host's kernels in one fixed order, widest fused kernel first, and
//! the [`Calibrator`] times the leading ones on real morsels:
//!
//! * the first few morsels are distributed round-robin across the top
//!   [`CalibrationConfig::top_candidates`] kernels with per-morsel
//!   timing, and the fastest observed kernel then runs the remainder;
//! * if the observed chain selectivity drifts from the expectation by
//!   more than a threshold, the calibrator re-probes.
//!
//! The [`Calibrator`] is a pure state machine — timings are injected via
//! [`Calibrator::observe`], so the protocol is deterministic and unit
//! testable without a clock. The query executor drives it with real
//! measurements, one chunk per morsel.

use crate::engine::{RegWidth, ScanElem, ScanImpl};
use fts_simd::{detect, SimdLevel};
use fts_storage::DataType;

/// The [`ScanImpl`]s the selector considers for element type `T` on this
/// host, in preference order: AVX-512 fused at 512 and 256 bits, the AVX2
/// backport, AVX-512 fused at 128 bits, SISD auto-vec and SISD no-vec. A
/// fused kernel appears only when the ISA ([`fts_simd::detect()`]) and the
/// element type support it; the two SISD scans always do.
pub fn candidate_scan_impls<T: ScanElem>() -> Vec<ScanImpl> {
    let kernels_32 = matches!(T::DATA_TYPE, DataType::U32 | DataType::I32 | DataType::F32);
    let kernels_64 = matches!(T::DATA_TYPE, DataType::U64 | DataType::I64 | DataType::F64);
    let (avx2, avx512) = (detect() >= SimdLevel::Avx2, detect() >= SimdLevel::Avx512);
    [
        (
            ScanImpl::FusedAvx512(RegWidth::W512),
            avx512 && (kernels_32 || kernels_64),
        ),
        (ScanImpl::FusedAvx512(RegWidth::W256), avx512 && kernels_32),
        (ScanImpl::FusedAvx2, avx2 && kernels_32),
        (ScanImpl::FusedAvx512(RegWidth::W128), avx512 && kernels_32),
        (ScanImpl::SisdAutoVec, true),
        (ScanImpl::SisdBranching, true),
    ]
    .into_iter()
    .filter_map(|(imp, runs)| runs.then_some(imp))
    .collect()
}

/// Tuning knobs for the calibration protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Morsels each candidate is timed on before a winner is picked.
    pub probes_per_candidate: usize,
    /// How many of the leading candidates enter calibration.
    pub top_candidates: usize,
    /// Relative selectivity drift that triggers a re-probe
    /// (`|observed − expected| > max(threshold · expected, floor)`).
    pub drift_threshold: f64,
    /// Absolute drift floor, so near-zero estimates don't re-probe on
    /// noise.
    pub drift_floor: f64,
    /// Rows of steady-state scanning between drift checks (2 Mi by
    /// default).
    pub recheck_rows: u64,
}

impl Default for CalibrationConfig {
    fn default() -> CalibrationConfig {
        CalibrationConfig {
            probes_per_candidate: 1,
            top_candidates: 3,
            drift_threshold: 0.5,
            drift_floor: 0.02,
            recheck_rows: 2 << 20,
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
    /// Per-candidate probe measurements, in preference order.
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
    /// Build a calibrator over `kernels` in preference order (only the
    /// first [`CalibrationConfig::top_candidates`] are probed).
    /// `expected_selectivity` is the plan-time estimate of the fraction of
    /// rows surviving the whole chain.
    pub fn new(kernels: &[C], expected_selectivity: f64, cfg: CalibrationConfig) -> Calibrator<C> {
        assert!(!kernels.is_empty(), "calibrator needs at least one kernel");
        let candidates: Vec<CandidateStats<C>> = kernels
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
    /// ties broken by preference order) or the steady-state winner.
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
    fn candidates_follow_the_preference_order() {
        let order = [
            ScanImpl::FusedAvx512(RegWidth::W512),
            ScanImpl::FusedAvx512(RegWidth::W256),
            ScanImpl::FusedAvx2,
            ScanImpl::FusedAvx512(RegWidth::W128),
            ScanImpl::SisdAutoVec,
            ScanImpl::SisdBranching,
        ];
        let (fused, fused_64): (&[ScanImpl], &[ScanImpl]) = match detect() {
            SimdLevel::Avx512 => (&order[..4], &order[..1]),
            SimdLevel::Avx2 => (&order[2..3], &[]),
            SimdLevel::Scalar => (&[], &[]),
        };
        let sisd = &order[4..];
        assert_eq!(candidate_scan_impls::<u32>(), [fused, sisd].concat());
        assert_eq!(candidate_scan_impls::<u64>(), [fused_64, sisd].concat());
        // A type without a fused kernel gets the two SISD scans.
        assert_eq!(candidate_scan_impls::<u8>(), sisd);
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
}
