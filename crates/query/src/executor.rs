//! Physical execution (paper Fig. 9: LQP Translator → Physical Query Plan
//! → Executor).
//!
//! Per chunk, the scan translator rewrites each bound predicate once into
//! its per-layout form, keeping the optimizer's ascending-selectivity
//! order:
//!
//! * a plain segment keeps its native type;
//! * a **dictionary** segment of *any* type rewrites into a `u32` value-id
//!   predicate (paper assumption 3);
//! * bit-packed, frame-of-reference and byte-sliced segments keep their
//!   encoded form.
//!
//! Then **one driver scan** runs per chunk: among the groups a kernel
//! evaluates in one pass — a plain chain of one element type (dictionary
//! ids count as `u32`), packed + `u32`, FoR + `u32`, all byte-sliced
//! predicates — the one with the lowest estimated selectivity drives. A
//! plain chain runs the JIT kernel or the adaptively calibrated static
//! kernels at any of the six types with kernels (`u32`, `i32`, `f32`,
//! `u64`, `i64`, `f64`); `u8`/`u16`/`i8`/`i16` columns never drive and
//! only filter survivors. A driver covering the whole chain runs in the
//! caller's mode (count or positions); otherwise it emits positions and
//! every other predicate **filters the survivors** in chain order with one
//! typed loop per layout, the paper's gather step.
//!
//! A WHERE clause with an OR runs the same way, as **one driver plus a
//! filter tree** (`TreeNode`, DESIGN.md §6.3): the root's leaf conjuncts
//! drive, and the rest of the tree filters the driver's survivors. An OR
//! runs each child only over the candidates no earlier child accepted,
//! marks what they accept in a per-chunk bitmap and compacts the
//! candidates by it, so position order holds without a merge. A root OR
//! has no driver of its own: each child drives over the whole chunk. A
//! conjunctive chain is the tree's simplest case, a lone driver.
//!
//! Aggregates consume a chunk's survivors **one column at a time**: per
//! aggregate, the argument segment's layout and type are matched once and
//! one typed loop folds its values at the survivor positions into the
//! running state (exact `i128` integer sums, `f64` float sums in position
//! order, MIN/MAX continuing from the running best). A lone `COUNT(*)`
//! never leaves count mode.
//!
//! Every statement's chunks run through **one chunk loop**, the
//! process-wide scan pool's [`ScanPool::fan_out`]: while a core is idle,
//! pool workers join the calling thread as helpers, each claiming chunks
//! from one cursor and scanning them with its own compiled trees, and the
//! calling thread folds the chunk outputs in chunk order, so every answer
//! is the serial loop's. A shared pass (several aggregate statements over
//! one table) is the same loop with one tree per statement. Projections
//! and `EXPLAIN ANALYZE` enlist no helper: a LIMIT projection stops at the
//! chunk that fills it.

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fts_core::adaptive::{candidate_scan_impls, CalibrationConfig, Calibrator, Phase};
use fts_core::blockwise::Bitmap;
use fts_core::fused::packed::{fused_scan_packed, packed_kernel_available, PackedPred};
use fts_core::{
    best_fused_impl, run_scan, run_scan_telemetered, value_key_bits, BoolExpr, OutputMode,
    RegWidth, ScanElem, ScanImpl, ScanOutput, ScanPool, ScanTelemetry, TypedPred,
};
use fts_core::{fused_scan_for, scan_bytesliced, ByteSlicedPred, ForPred};
use fts_jit::kernel::JitRunElem;
use fts_jit::{CacheStats, JitBackend, JitCol, JitPred, KernelCache, ScanSig};
use fts_simd::SimdLevel;
use fts_storage::{
    with_native, ByteSlicedColumn, Chunk, CmpOp, Column, DataType, ForColumn, IdPredicate,
    NativeType, PackedColumn, PosList, Segment, Value,
};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::ast::AggFunc;
use crate::catalog::CatalogEntry;
use crate::lqp::{
    chain_text, conjunction_selectivity, disjunction_selectivity, leaf, pred_text, BoundAgg,
    BoundPred, Lqp,
};

/// How scans execute their fused portion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitMode {
    /// Pre-monomorphized kernels from `fts-core` (the "static" path).
    Off,
    /// Machine-code kernels from the `fts-jit` cache when applicable
    /// (plain chains of ≤ 5 predicates at any element type with kernels,
    /// and packed chains, on AVX-512 hosts), falling back to the static
    /// kernels otherwise.
    On,
}

/// Execution context shared across queries.
pub struct ExecContext {
    /// JIT policy.
    pub jit: JitMode,
    /// Compiled-kernel cache (used when `jit == On`).
    pub kernels: Arc<KernelCache>,
    /// Compiled-kernel cache for chains that read a bit-packed column
    /// (`jit == On`): the same cache type as `kernels`, kept apart so the
    /// packed kernels can be counted on their own.
    pub packed_kernels: Arc<KernelCache>,
    /// Shared adaptive-calibration state, keyed by (table, sub-chain
    /// signature, driver element type) — concurrent statements on the same
    /// chain feed one calibrator instead of each re-probing from scratch.
    pub calibration: Arc<CalibrationRegistry>,
    /// Chunks skipped by min/max pruning (observability + tests).
    pub chunks_pruned: AtomicU64,
    /// Chunks actually scanned.
    pub chunks_scanned: AtomicU64,
    /// Chunks of `chunks_scanned` that a scan-pool helper scanned for a
    /// statement's calling thread: an aggregate or a shared pass (one per
    /// statement).
    pub chunks_helped: AtomicU64,
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext {
            jit: if avx512_enabled() {
                JitMode::On
            } else {
                JitMode::Off
            },
            kernels: Arc::new(KernelCache::new(JitBackend::Avx512)),
            packed_kernels: Arc::new(KernelCache::new(JitBackend::Avx512)),
            calibration: Arc::new(CalibrationRegistry::new()),
            chunks_pruned: AtomicU64::new(0),
            chunks_scanned: AtomicU64::new(0),
            chunks_helped: AtomicU64::new(0),
        }
    }
}

impl ExecContext {
    /// The plain and packed kernel caches' activity, summed: one cache
    /// implementation, reported as one.
    pub fn jit_stats(&self) -> CacheStats {
        let (plain, packed) = (self.kernels.stats(), self.packed_kernels.stats());
        CacheStats {
            hits: plain.hits + packed.hits,
            misses: plain.misses + packed.misses,
            evictions: plain.evictions + packed.evictions,
            compile_time: plain.compile_time + packed.compile_time,
        }
    }
}

/// Whether the AVX-512 execution paths (JIT included) may run: the host
/// must have the ISA *and* `FTS_FORCE_SIMD` must not cap the level below
/// it — so forcing `scalar`/`avx2` disables machine-code kernels too.
fn avx512_enabled() -> bool {
    fts_simd::detect() >= SimdLevel::Avx512
}

/// Whether the JIT runs a plain chain of `preds` predicates (any element
/// type with kernels): JIT on, an enabled AVX-512 backend and a chain the
/// emitter supports.
fn jit_covers(ctx: &ExecContext, preds: usize) -> bool {
    ctx.jit == JitMode::On && avx512_enabled() && preds <= fts_jit::MAX_JIT_PREDICATES
}

/// Can `OP literal` match any value of a chunk with the given min/max?
/// Conservative under f64 rounding: only prunes when impossibility is
/// certain under the monotone int→f64 map (so `Ne` never prunes).
fn range_can_match(range: Option<(f64, f64)>, op: CmpOp, literal: Value) -> bool {
    let Some((min, max)) = range else {
        // Empty chunk or no orderable values: nothing to find.
        return false;
    };
    let Some(lit) = literal.as_f64() else {
        return true;
    };
    match op {
        CmpOp::Eq => lit >= min && lit <= max,
        CmpOp::Ne => true,
        CmpOp::Lt | CmpOp::Le => min <= lit,
        CmpOp::Gt | CmpOp::Ge => max >= lit,
    }
}

/// A query result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// `COUNT(*)` result.
    Count(u64),
    /// Materialized rows.
    Rows {
        /// Column headers.
        columns: Vec<String>,
        /// Row-major values.
        rows: Vec<Vec<Value>>,
    },
    /// The optimized plan of an `EXPLAIN` statement.
    Explain(String),
}

impl QueryResult {
    /// The count, for count results.
    pub fn count(&self) -> Option<u64> {
        match self {
            QueryResult::Count(n) => Some(*n),
            QueryResult::Rows { .. } | QueryResult::Explain(_) => None,
        }
    }

    /// Number of result rows (count results report 1 logical row).
    pub fn num_rows(&self) -> usize {
        match self {
            QueryResult::Count(_) => 1,
            QueryResult::Rows { rows, .. } => rows.len(),
            QueryResult::Explain(text) => text.lines().count(),
        }
    }
}

/// Everything an `EXPLAIN ANALYZE` statement observed while executing:
/// merged phase-1 (driver) scan telemetry, chunk pruning, phase-2
/// survivor-filter traffic and JIT kernel-cache activity.
#[derive(Debug, Clone, Default)]
pub struct AnalyzeReport {
    /// Phase-1 scan telemetry merged across all scanned chunks (`morsels`
    /// counts the chunks that contributed).
    pub scan: ScanTelemetry,
    /// Chunks skipped by min/max pruning.
    pub chunks_pruned: u64,
    /// Chunks actually scanned.
    pub chunks_scanned: u64,
    /// Positions entering phase 2: the driver's survivors that the
    /// chain's other predicates, or the rest of a boolean tree, filter
    /// (every row of the chunk when no predicate has a kernel).
    pub phase2_rows_in: u64,
    /// Positions surviving phase 2.
    pub phase2_rows_out: u64,
    /// Aggregate folds over the survivors (a lone `COUNT(*)` counts in the
    /// scan and folds nothing).
    pub aggregate: PostScanReport,
    /// Projection materialization of the survivors.
    pub materialize: PostScanReport,
    /// Frame-of-reference blocks whose payload was decoded and compared.
    pub for_blocks_scanned: u64,
    /// Frame-of-reference blocks resolved from the header alone (the
    /// compressed-domain rewrite proved the whole chain on them).
    pub for_blocks_pruned: u64,
    /// Byte-sliced 64-row × plane units actually compared.
    pub bs_plane_groups_read: u64,
    /// Byte-sliced plane units skipped by the most-significant-first
    /// early exit.
    pub bs_plane_groups_skipped: u64,
    /// JIT kernel-cache hits during the statement (plain and packed
    /// kernels).
    pub jit_hits: u64,
    /// JIT kernel-cache misses (fresh compilations) during the statement.
    pub jit_misses: u64,
    /// JIT kernel-cache evictions during the statement.
    pub jit_evictions: u64,
    /// Time spent compiling machine-code kernels during the statement.
    pub jit_compile_time: Duration,
    /// Packed kernels resident after the statement.
    pub packed_kernels: usize,
    /// What the adaptive kernel selector decided (None when no chunk's
    /// whole chain ran a plain driver; the first element type's decision
    /// when a column's chunks differ in layout).
    /// For a boolean tree the per-driver decisions live in
    /// [`AnalyzeReport::bool_scan`] instead.
    pub adaptive: Option<AdaptiveDecision>,
    /// Rows in and out per node of a boolean tree (`FilterTree`; None for
    /// conjunctive chains).
    pub bool_scan: Option<BoolScanReport>,
    /// End-to-end execution wall time (planning excluded).
    pub wall: Duration,
}

/// One kind of post-scan work (`EXPLAIN ANALYZE`), summed over the
/// chunks: rows processed, expressions per row and wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct PostScanReport {
    /// Rows folded or materialized.
    pub rows: u64,
    /// Aggregates folded, or columns materialized, per row.
    pub exprs: usize,
    /// Wall time.
    pub wall: Duration,
}

impl PostScanReport {
    fn note(&mut self, rows: usize, exprs: usize, wall: Duration) {
        self.rows += rows as u64;
        self.exprs = exprs;
        self.wall += wall;
    }
}

/// What a boolean tree did, per node (`EXPLAIN ANALYZE`), in execution
/// order.
#[derive(Debug, Clone, Default)]
pub struct BoolScanReport {
    /// The root's driver: its leaf conjuncts as one fused chain (None when
    /// the root has no leaf conjunct, e.g. a root OR).
    pub prefix: Option<SubChainReport>,
    /// Every other node below the root, depth first: the nodes that filter
    /// the driver's survivors, and the children of a root OR, which each
    /// drive over the whole chunk.
    pub disjuncts: Vec<SubChainReport>,
}

/// One node of a boolean tree.
#[derive(Debug, Clone, Default)]
pub struct SubChainReport {
    /// The node: a chain `b = 1 AND c = 2`, a one-column OR
    /// `a = 3 OR a = 7`, or `∧` / `∨` for an inner node.
    pub label: String,
    /// Whether the node is a driver: its chain scans the whole chunk with
    /// a fused kernel instead of filtering candidates.
    pub drives: bool,
    /// Depth below the root (0 for the root's children).
    pub depth: usize,
    /// Plan-time selectivity estimate of the node.
    pub expected_selectivity: f64,
    /// Positions the node examined across the scanned chunks: every row
    /// for a driver, the still-undecided candidates for a filter.
    pub rows_in: u64,
    /// Positions the node accepted.
    pub rows_out: u64,
    /// A driver's own adaptive decision. Calibration state is keyed per
    /// chain signature, so probe statistics are never mixed across the
    /// drivers of one tree.
    pub adaptive: Option<AdaptiveDecision>,
}

impl AnalyzeReport {
    /// Fold one chunk's scan telemetry into the report.
    fn note_scan(&mut self, t: &ScanTelemetry) {
        if self.scan.morsels == 0 {
            self.scan = t.clone();
        } else {
            self.scan.merge(t);
        }
    }

    /// Render the `EXPLAIN ANALYZE` block. `peak_gb_per_sec` is the
    /// machine's peak sequential read bandwidth (e.g.
    /// `fts_core::stride::peak_bandwidth_gbps()`); it anchors the
    /// bandwidth-bound-vs-compute-bound verdict.
    pub fn render(&self, peak_gb_per_sec: f64) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "wall={:.3?}  chunks: scanned={}  pruned={}",
            self.wall, self.chunks_scanned, self.chunks_pruned
        );
        out.push_str(&self.scan.render());
        if self.phase2_rows_in > 0 {
            let _ = writeln!(
                out,
                "phase 2 (survivor filter): rows_in={}  rows_out={}",
                self.phase2_rows_in, self.phase2_rows_out
            );
        }
        let (agg, mat) = (&self.aggregate, &self.materialize);
        if agg.exprs > 0 {
            let _ = writeln!(
                out,
                "aggregate: rows={}  aggregates={}  wall={:.3?}",
                agg.rows, agg.exprs, agg.wall
            );
        }
        if mat.exprs > 0 {
            let _ = writeln!(
                out,
                "materialize: rows={}  columns={}  wall={:.3?}",
                mat.rows, mat.exprs, mat.wall
            );
        }
        if self.for_blocks_scanned + self.for_blocks_pruned > 0 {
            let _ = writeln!(
                out,
                "for scan: blocks_scanned={}  blocks_pruned={}",
                self.for_blocks_scanned, self.for_blocks_pruned
            );
        }
        if self.bs_plane_groups_read + self.bs_plane_groups_skipped > 0 {
            let _ = writeln!(
                out,
                "bytesliced scan: plane_groups_read={}  skipped={}",
                self.bs_plane_groups_read, self.bs_plane_groups_skipped
            );
        }
        if self.jit_hits + self.jit_misses > 0 || self.packed_kernels > 0 {
            let _ = writeln!(
                out,
                "jit: hits={}  misses={}  evictions={}  compile={:.3?}  packed_kernels={}",
                self.jit_hits,
                self.jit_misses,
                self.jit_evictions,
                self.jit_compile_time,
                self.packed_kernels
            );
        }
        if let Some(a) = &self.adaptive {
            let _ = writeln!(
                out,
                "adaptive: winner={}  reprobes={}  selectivity expected={:.4} observed={:.4}",
                a.winner.unwrap_or("(calibrating)"),
                a.reprobes,
                a.expected_selectivity,
                a.observed_selectivity
            );
            for (name, morsels, vpu) in &a.probed {
                let _ = writeln!(
                    out,
                    "  probed {name}: {morsels} morsels, {vpu:.0} values/µs"
                );
            }
        }
        if let Some(b) = &self.bool_scan {
            let _ = writeln!(
                out,
                "bool scan: {} nodes",
                b.prefix.iter().count() + b.disjuncts.len()
            );
            for s in b.prefix.iter().chain(&b.disjuncts) {
                let pad = "  ".repeat(s.depth + 1);
                let label = match s.drives {
                    true => format!("ꔖ[{}]", s.label),
                    false => s.label.clone(),
                };
                let _ = writeln!(
                    out,
                    "{pad}{label}: sel≈{:.4}  rows {} -> {}",
                    s.expected_selectivity, s.rows_in, s.rows_out
                );
                if let Some(a) = &s.adaptive {
                    let _ = writeln!(
                        out,
                        "{pad}  adaptive: winner={}  observed_sel={:.4}",
                        a.winner.unwrap_or("(calibrating)"),
                        a.observed_selectivity
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "peak read bandwidth={:.2} GB/s -> {}",
            peak_gb_per_sec,
            self.scan.verdict(peak_gb_per_sec)
        );
        out
    }
}

/// A kernel the query-layer adaptive selector can pick for a plain chain:
/// the JIT'd machine-code kernel or one of the static engines.
#[derive(Debug, Clone, Copy, PartialEq)]
enum QueryKernel {
    /// Machine-code kernel from the `fts-jit` cache (AVX-512 backend).
    Jit,
    /// A pre-monomorphized engine from `fts-core`.
    Static(ScanImpl),
}

impl QueryKernel {
    fn name(self) -> &'static str {
        match self {
            QueryKernel::Jit => "jit-avx512(w512)",
            QueryKernel::Static(imp) => imp.name(),
        }
    }
}

/// A chain's calibrator: every chunk a statement scans is one
/// calibration morsel.
type ChainCalibrator = Calibrator<QueryKernel>;

/// A chain's calibration identity across statements: the table it scans,
/// its per-predicate signature and the element type its plain driver runs
/// at. A column can be plain in one chunk and dictionary-encoded (`u32`
/// ids) in another, so one chain can drive at two types, and each type
/// calibrates among the kernels it runs.
type CalKey = (String, SubChainKey, DataType);

/// Most chains [`CalibrationRegistry`] keeps state for; past it, adding a
/// chain evicts the least recently used one.
pub(crate) const CALIBRATION_CAPACITY: usize = 1024;

/// Cross-statement calibration state, keyed by (table, chain signature)
/// and bounded at 1,024 chains, least recently used out first.
///
/// The calibrator for a chain is a little state machine (probe →
/// winner → drift re-probe) whose transitions assume its observations
/// arrive one at a time, and whose probe timings assume a quiet kernel
/// run. The registry therefore hands out each chain's state behind its
/// own `Mutex`. While the chain calibrates, a scan holds the lock from
/// the phase read across the kernel run to the observation, so probes
/// run one at a time; in steady state it locks only to read the phase
/// and again to observe, so the threads of one statement, and
/// concurrent statements, scan the chain's chunks without waiting on
/// each other. Different chains — and different tables — calibrate
/// fully in parallel. Sharing the
/// state is also what makes a server warm: the second connection to ask
/// the same question starts in steady state instead of re-probing. A
/// statement holds its chains' states through their `Arc`s, so an
/// eviction never pulls state from under a running scan; the chain just
/// calibrates afresh the next time it runs.
pub struct CalibrationRegistry {
    states: Mutex<Registry>,
}

/// The registry's map plus its logical LRU clock.
#[derive(Default)]
struct Registry {
    chains: HashMap<CalKey, (Arc<Mutex<ChainCalibrator>>, u64)>,
    tick: u64,
}

impl CalibrationRegistry {
    /// Empty registry.
    pub fn new() -> CalibrationRegistry {
        CalibrationRegistry {
            states: Mutex::new(Registry::default()),
        }
    }

    /// The calibrator at `key`, building it with `build` on first use.
    fn get_or_build(
        &self,
        key: CalKey,
        build: impl FnOnce() -> ChainCalibrator,
    ) -> Arc<Mutex<ChainCalibrator>> {
        let mut registry = lock_plain(&self.states);
        registry.tick += 1;
        let tick = registry.tick;
        if let Some((state, last_used)) = registry.chains.get_mut(&key) {
            *last_used = tick;
            return Arc::clone(state);
        }
        let state = Arc::new(Mutex::new(build()));
        if registry.chains.len() >= CALIBRATION_CAPACITY {
            if let Some(lru) = registry
                .chains
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(key, _)| key.clone())
            {
                registry.chains.remove(&lru);
            }
        }
        registry.chains.insert(key, (Arc::clone(&state), tick));
        state
    }

    /// Mean observed selectivity across calibrated chains of `table` that
    /// mention `column` — the layout advisor's scan-behaviour signal.
    /// `None` until some chain over the column has observed rows.
    pub fn observed_selectivity(&self, table: &str, column: usize) -> Option<f64> {
        let registry = lock_plain(&self.states);
        let (mut acc, mut n) = (0.0f64, 0u32);
        for ((t, key, _), (state, _)) in registry.chains.iter() {
            if t == table && key.iter().any(|&(c, _, _)| c == column) {
                let sel = lock_plain(state).report().observed_selectivity;
                if sel > 0.0 {
                    acc += sel;
                    n += 1;
                }
            }
        }
        (n > 0).then(|| acc / n as f64)
    }

    /// Number of chains with live calibration state.
    pub fn len(&self) -> usize {
        lock_plain(&self.states).chains.len()
    }

    /// Whether no chain has calibration state yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CalibrationRegistry {
    fn default() -> Self {
        CalibrationRegistry::new()
    }
}

impl std::fmt::Debug for CalibrationRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalibrationRegistry")
            .field("chains", &self.len())
            .finish()
    }
}

/// Lock with poison recovery: calibration state is advisory (it only
/// picks kernels), so a panicking statement must not wedge the server.
fn lock_plain<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What the adaptive selector decided for one statement, for
/// `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveDecision {
    /// Candidates runtime calibration timed: name, probe morsels,
    /// measured values/µs.
    pub probed: Vec<(&'static str, u64, f64)>,
    /// The winning kernel (None while still calibrating).
    pub winner: Option<&'static str>,
    /// Selectivity-drift re-probes triggered during the statement.
    pub reprobes: u32,
    /// Plan-time estimate of the chain's selectivity.
    pub expected_selectivity: f64,
    /// Selectivity actually observed across all scanned rows.
    pub observed_selectivity: f64,
}

impl AdaptiveDecision {
    /// What `cal` has learned so far.
    fn of(cal: &ChainCalibrator) -> AdaptiveDecision {
        let report = cal.report();
        AdaptiveDecision {
            probed: report
                .candidates
                .iter()
                .map(|c| (c.kernel.name(), c.morsels, c.values_per_us()))
                .collect(),
            winner: report.winner.map(QueryKernel::name),
            reprobes: report.reprobes,
            expected_selectivity: report.expected_selectivity,
            observed_selectivity: report.observed_selectivity,
        }
    }
}

/// The calibrators a driver chain has taken from the registry, one per
/// element type its chunks drove the whole chain at.
type Calibrators = Vec<(DataType, Arc<Mutex<ChainCalibrator>>)>;

/// Where a driver chain finds its calibrators during one statement: the
/// table and chain that key them in the registry, and the ones taken so
/// far. A calibrator is taken at the first chunk whose whole chain drives
/// at its element type, so a chain whose every chunk is pruned registers
/// none.
struct Calibration<'s> {
    table: &'s str,
    chain: &'s [BoundPred],
    taken: &'s mut Calibrators,
}

impl Calibration<'_> {
    /// The chain's calibrator at element type `T`, whose chunks translate
    /// to `preds` predicates. Its candidates are the JIT kernel where it
    /// runs the chain, then [`candidate_scan_impls`] for `T` in its
    /// preference order, so it never offers a kernel `T` cannot run; its
    /// expected selectivity is the product of the predicates' estimates.
    fn calibrator<T: PlainElem>(
        &mut self,
        ctx: &ExecContext,
        preds: usize,
    ) -> Arc<Mutex<ChainCalibrator>> {
        if let Some((_, state)) = self.taken.iter().find(|(ty, _)| *ty == T::DATA_TYPE) {
            return Arc::clone(state);
        }
        let key = (
            self.table.to_string(),
            sub_chain_key(self.chain),
            T::DATA_TYPE,
        );
        let state = ctx.calibration.get_or_build(key, || {
            let kernels: Vec<QueryKernel> = jit_covers(ctx, preds)
                .then_some(QueryKernel::Jit)
                .into_iter()
                .chain(
                    candidate_scan_impls::<T>()
                        .into_iter()
                        .map(QueryKernel::Static),
                )
                .collect();
            let expected = self
                .chain
                .iter()
                .map(|p| p.selectivity.clamp(0.0, 1.0))
                .product();
            Calibrator::new(&kernels, expected, CalibrationConfig::default())
        });
        self.taken.push((T::DATA_TYPE, Arc::clone(&state)));
        state
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The plan has a shape the executor does not support (internal).
    UnsupportedPlan(String),
    /// A predicate's literal/type combination failed at runtime (internal —
    /// the binder should have rejected it).
    PredicateTypeError,
    /// An integer `SUM`'s exact total does not fit its `i64` result.
    SumOverflow {
        /// The aggregate's label, e.g. `sum(big)`.
        aggregate: String,
        /// The exact total.
        exact: i128,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnsupportedPlan(s) => write!(f, "unsupported plan: {s}"),
            ExecError::PredicateTypeError => write!(f, "predicate type error"),
            ExecError::SumOverflow { aggregate, exact } => {
                write!(f, "{aggregate} overflows i64: the exact sum is {exact}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// One predicate of a chunk's chain in its per-layout form.
#[derive(Debug, Clone, Copy)]
enum LayoutPred<'c> {
    /// Plain `u32` values or dictionary value ids.
    U32(&'c [u32], CmpOp, u32),
    /// Bit-packed `u32` column.
    Packed(&'c PackedColumn, CmpOp, u32),
    /// Frame-of-reference `u32` column.
    For(&'c ForColumn, CmpOp, u32),
    /// Byte-sliced `u32` column.
    ByteSliced(&'c ByteSlicedColumn, CmpOp, u32),
    /// Plain non-`u32` column (`u8`/`u16`/`i8`/`i16` have no scan kernel
    /// and only filter survivors).
    Typed(&'c Column, CmpOp, Value),
}

/// An element type with fused kernels, static ([`ScanElem`]) and JIT
/// ([`JitRunElem`]): the types a plain chain drives at.
trait PlainElem: ScanElem + JitRunElem {
    /// `form` as a predicate over this type's plain values, if it is one.
    fn plain<'c>(form: &LayoutPred<'c>) -> Option<TypedPred<'c, Self>> {
        match *form {
            LayoutPred::Typed(col, op, needle) => Some(TypedPred::new(
                col.as_native()?,
                op,
                Self::from_value(needle)?,
            )),
            _ => None,
        }
    }
}

/// Plain `u32` values and dictionary ids.
impl PlainElem for u32 {
    fn plain<'c>(form: &LayoutPred<'c>) -> Option<TypedPred<'c, u32>> {
        match *form {
            LayoutPred::U32(data, op, needle) => Some(TypedPred::new(data, op, needle)),
            _ => None,
        }
    }
}
impl PlainElem for i32 {}
impl PlainElem for f32 {}
impl PlainElem for u64 {}
impl PlainElem for i64 {}
impl PlainElem for f64 {}

/// A translated predicate plus what the driver choice needs from its
/// bound form (column, logical operator, selectivity estimate).
struct ChunkPred<'c, 'p> {
    form: LayoutPred<'c>,
    bound: &'p BoundPred,
}

/// A predicate in its per-layout form for one chunk, or the constant a
/// dictionary rewrite proved it to be on every row of the chunk.
enum Translated<'c> {
    Form(LayoutPred<'c>),
    /// `MatchAll` (true) or `MatchNone` (false).
    Const(bool),
}

/// Translate one predicate into its per-layout form for `chunk`:
/// dictionary predicates become value-id predicates (or a constant).
fn translate_pred<'c>(chunk: &'c Chunk, p: &BoundPred) -> Result<Translated<'c>, ExecError> {
    let u32_needle = || match p.value {
        Value::U32(n) => Ok(n),
        _ => Err(ExecError::PredicateTypeError),
    };
    Ok(Translated::Form(match chunk.segment(p.column) {
        Segment::Dict(d) => match d
            .translate(p.op, p.value)
            .ok_or(ExecError::PredicateTypeError)?
        {
            IdPredicate::MatchNone => return Ok(Translated::Const(false)),
            IdPredicate::MatchAll => return Ok(Translated::Const(true)),
            IdPredicate::Cmp(op, id) => LayoutPred::U32(d.value_ids(), op, id),
        },
        Segment::Packed(col) => LayoutPred::Packed(col, p.op, u32_needle()?),
        Segment::For(col) => LayoutPred::For(col, p.op, u32_needle()?),
        Segment::ByteSliced(col) => LayoutPred::ByteSliced(col, p.op, u32_needle()?),
        Segment::Plain(col) => match col.data_type() {
            DataType::U32 => LayoutPred::U32(
                col.as_native::<u32>()
                    .ok_or(ExecError::PredicateTypeError)?,
                p.op,
                u32_needle()?,
            ),
            _ => LayoutPred::Typed(col, p.op, p.value),
        },
    }))
}

/// Translate each predicate once into its per-layout form for `chunk`,
/// in chain order. Dictionary predicates become value-id predicates;
/// `MatchAll` ones vanish. Returns `None` when a dictionary rewrite
/// proves that nothing in the chunk matches.
fn translate_chain<'c, 'p>(
    chunk: &'c Chunk,
    preds: &'p [BoundPred],
) -> Result<Option<Vec<ChunkPred<'c, 'p>>>, ExecError> {
    let mut out = Vec::with_capacity(preds.len());
    for p in preds {
        match translate_pred(chunk, p)? {
            Translated::Form(form) => out.push(ChunkPred { form, bound: p }),
            Translated::Const(true) => {}
            Translated::Const(false) => return Ok(None),
        }
    }
    Ok(Some(out))
}

/// A group of predicates one existing kernel evaluates in a single pass
/// over the chunk — a candidate driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// Plain chain of one element type, dictionary ids counting as `u32`
    /// ([`run_plain_chain`]: JIT + calibration).
    Plain(DataType),
    /// Bit-packed + `u32` chain ([`run_packed_chain`]; needs VBMI2).
    Packed,
    /// Frame-of-reference + `u32` chain ([`fused_scan_for`]).
    For,
    /// Byte-sliced conjunction ([`scan_bytesliced`]).
    ByteSliced,
}

impl Driver {
    /// The group a predicate anchors (None: it can only filter).
    fn anchored_by(form: &LayoutPred<'_>) -> Option<Driver> {
        match form {
            LayoutPred::U32(..) => Some(Driver::Plain(DataType::U32)),
            LayoutPred::Packed(..) => packed_kernel_available().then_some(Driver::Packed),
            LayoutPred::For(..) => Some(Driver::For),
            LayoutPred::ByteSliced(..) => Some(Driver::ByteSliced),
            LayoutPred::Typed(col, ..) => match col.data_type() {
                DataType::U8 | DataType::U16 | DataType::I8 | DataType::I16 => None,
                ty => Some(Driver::Plain(ty)),
            },
        }
    }

    /// Most predicates the group's kernel takes in one pass; the rest
    /// filter survivors.
    fn limit(self) -> usize {
        match self {
            Driver::ByteSliced => usize::MAX,
            _ => fts_core::fused::MAX_PREDICATES,
        }
    }

    /// Whether this group's kernel evaluates `form` in its pass.
    fn admits(self, form: &LayoutPred<'_>) -> bool {
        match form {
            // Plain u32 predicates fuse into the packed and FoR chains.
            LayoutPred::U32(..) => matches!(
                self,
                Driver::Plain(DataType::U32) | Driver::Packed | Driver::For
            ),
            other => Driver::anchored_by(other) == Some(self),
        }
    }
}

/// Pick the chunk's driver: among the groups an existing kernel runs in
/// one pass (each capped at its kernel's predicate limit, in chain
/// order), the one with the lowest estimated selectivity; ties go to the
/// group covering more predicates. Returns the group and its members'
/// chain indices, or None when no predicate has a kernel.
fn choose_driver(chain: &[ChunkPred<'_, '_>]) -> Option<(Driver, Vec<usize>)> {
    let mut kinds: Vec<Driver> = Vec::new();
    for p in chain {
        if let Some(k) = Driver::anchored_by(&p.form) {
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
    }
    let mut best: Option<(f64, Driver, Vec<usize>)> = None;
    for kind in kinds {
        let members: Vec<usize> = (0..chain.len())
            .filter(|&i| kind.admits(&chain[i].form))
            .take(kind.limit())
            .collect();
        // A packed/FoR group capped down to its plain u32 predicates is
        // the u32 group already.
        if !members
            .iter()
            .any(|&i| Driver::anchored_by(&chain[i].form) == Some(kind))
        {
            continue;
        }
        let sel = conjunction_selectivity(members.iter().map(|&i| chain[i].bound));
        let better = match &best {
            None => true,
            Some((best_sel, _, best_members)) => {
                sel < *best_sel || (sel == *best_sel && members.len() > best_members.len())
            }
        };
        if better {
            best = Some((sel, kind, members));
        }
    }
    best.map(|(_, kind, members)| (kind, members))
}

/// Evaluate the predicate chain over one chunk, returning matching
/// positions (chunk-relative) or their count.
///
/// One **driver** scan per chunk: the cheapest single-pass group (see
/// [`choose_driver`]) runs its kernel. When it covers the whole chain it
/// runs in the caller's mode (so `COUNT(*)` keeps its popcount paths);
/// otherwise it emits positions and every other predicate **filters its
/// survivors** in chain order — the paper's gather step, proportional to
/// the rows that survive rather than to the chunk.
fn scan_chunk(
    chunk: &Chunk,
    preds: &[BoundPred],
    ctx: &ExecContext,
    mode: OutputMode,
    mut analyze: Option<&mut AnalyzeReport>,
    calibration: Option<&mut Calibration<'_>>,
) -> Result<ScanOutput, ExecError> {
    let rows = chunk.rows() as u32;
    let Some(chain) = translate_chain(chunk, preds)? else {
        return Ok(match mode {
            OutputMode::Count => ScanOutput::Count(0),
            OutputMode::Positions => ScanOutput::Positions(PosList::new()),
        });
    };
    if chain.is_empty() {
        return Ok(match mode {
            OutputMode::Count => ScanOutput::Count(rows as u64),
            OutputMode::Positions => ScanOutput::Positions((0..rows).collect()),
        });
    }

    let (positions, members) = match choose_driver(&chain) {
        Some((driver, members)) => {
            let whole = members.len() == chain.len();
            let driver_mode = if whole { mode } else { OutputMode::Positions };
            // The one place that decides which chains calibrate: a plain
            // driver that is the whole chain.
            let calibration = calibration.filter(|_| whole && matches!(driver, Driver::Plain(_)));
            let group: Vec<&LayoutPred<'_>> = members.iter().map(|&i| &chain[i].form).collect();
            let out = run_driver(
                driver,
                &group,
                rows as u64,
                ctx,
                driver_mode,
                analyze.as_deref_mut(),
                calibration,
            )?;
            if whole {
                return Ok(out);
            }
            let ScanOutput::Positions(pl) = out else {
                unreachable!("positions requested from a partial driver")
            };
            (pl, members)
        }
        // No predicate has a kernel: every row is a candidate.
        None => ((0..rows).collect(), Vec::new()),
    };

    // The followers in chain order, one pass per run of adjacent
    // predicates on one column (the optimizer keeps a column's conjuncts
    // adjacent), so a run reads each surviving row's value once.
    let followers: Vec<&ChunkPred<'_, '_>> = chain
        .iter()
        .enumerate()
        .filter(|(i, _)| !members.contains(i))
        .map(|(_, p)| p)
        .collect();
    let mut survivors = positions.into_vec();
    let rows_in = survivors.len() as u64;
    for run in followers.chunk_by(|a, b| a.bound.column == b.bound.column) {
        if survivors.is_empty() {
            break;
        }
        let forms: Vec<LayoutPred<'_>> = run.iter().map(|p| p.form).collect();
        filter_survivors(&mut survivors, &forms, false)?;
    }
    if let Some(r) = analyze {
        r.phase2_rows_in += rows_in;
        r.phase2_rows_out += survivors.len() as u64;
    }
    Ok(survivors_output(survivors, mode))
}

/// A chunk's surviving positions in the caller's output mode.
fn survivors_output(survivors: Vec<u32>, mode: OutputMode) -> ScanOutput {
    match mode {
        OutputMode::Count => ScanOutput::Count(survivors.len() as u64),
        OutputMode::Positions => ScanOutput::Positions(PosList::from_vec(survivors)),
    }
}

/// Run one driver group's kernel over a chunk of `rows` rows.
fn run_driver(
    driver: Driver,
    group: &[&LayoutPred<'_>],
    rows: u64,
    ctx: &ExecContext,
    mode: OutputMode,
    analyze: Option<&mut AnalyzeReport>,
    calibration: Option<&mut Calibration<'_>>,
) -> Result<ScanOutput, ExecError> {
    let started = analyze.is_some().then(Instant::now);
    match driver {
        Driver::Plain(ty) => match ty {
            DataType::U32 => run_plain_chain::<u32>(group, ctx, mode, analyze, calibration),
            DataType::I32 => run_plain_chain::<i32>(group, ctx, mode, analyze, calibration),
            DataType::F32 => run_plain_chain::<f32>(group, ctx, mode, analyze, calibration),
            DataType::U64 => run_plain_chain::<u64>(group, ctx, mode, analyze, calibration),
            DataType::I64 => run_plain_chain::<i64>(group, ctx, mode, analyze, calibration),
            DataType::F64 => run_plain_chain::<f64>(group, ctx, mode, analyze, calibration),
            _ => unreachable!("kernel-less types never drive"),
        },
        Driver::Packed => {
            let plain: Vec<TypedPred<'_, u32>> =
                group.iter().filter_map(|p| u32::plain(p)).collect();
            let packed: Vec<(&PackedColumn, CmpOp, u32)> = group
                .iter()
                .filter_map(|p| match **p {
                    LayoutPred::Packed(c, op, n) => Some((c, op, n)),
                    _ => None,
                })
                .collect();
            run_packed_chain(&plain, &packed, ctx, mode, analyze)
        }
        Driver::For => {
            let chain: Vec<ForPred<'_>> = group
                .iter()
                .filter_map(|p| match **p {
                    LayoutPred::U32(d, op, n) => Some(ForPred::Plain(TypedPred::new(d, op, n))),
                    LayoutPred::For(col, op, needle) => Some(ForPred::For { col, op, needle }),
                    _ => None,
                })
                .collect();
            let (out, stats) = fused_scan_for(&chain, mode)
                .map_err(|e| ExecError::UnsupportedPlan(e.to_string()))?;
            if let (Some(r), Some(started)) = (analyze, started) {
                r.for_blocks_scanned += stats.blocks_scanned;
                r.for_blocks_pruned += stats.blocks_pruned;
                // Plain columns at 4 B/row, FoR columns at their payload
                // and header bytes.
                let bytes = group
                    .iter()
                    .map(|p| match **p {
                        LayoutPred::U32(..) => rows * 4,
                        LayoutPred::For(col, ..) => col.heap_bytes() as u64,
                        _ => 0,
                    })
                    .sum();
                r.note_scan(&timing_record(
                    "fused-for",
                    rows,
                    group.len(),
                    fts_storage::FOR_BLOCK_LEN,
                    bytes,
                    started.elapsed(),
                ));
            }
            Ok(out)
        }
        Driver::ByteSliced => {
            let chain: Vec<ByteSlicedPred<'_>> = group
                .iter()
                .filter_map(|p| match **p {
                    LayoutPred::ByteSliced(col, op, needle) => {
                        Some(ByteSlicedPred { col, op, needle })
                    }
                    _ => None,
                })
                .collect();
            let (out, stats) = scan_bytesliced(&chain, mode);
            if let (Some(r), Some(started)) = (analyze, started) {
                r.bs_plane_groups_read += stats.plane_groups_read;
                r.bs_plane_groups_skipped += stats.plane_groups_skipped;
                // Each plane group read is 64 bytes.
                r.note_scan(&timing_record(
                    "bytesliced",
                    rows,
                    group.len(),
                    64,
                    stats.plane_groups_read * 64,
                    started.elapsed(),
                ));
            }
            Ok(out)
        }
    }
}

/// A timing-only scan record (rows, a bytes model and the measured wall
/// time) for kernels whose stage statistics are not replayable: the
/// packed, FoR and byte-sliced drivers.
fn timing_record(
    impl_name: &'static str,
    rows: u64,
    predicates: usize,
    lanes: usize,
    bytes_touched: u64,
    wall: Duration,
) -> ScanTelemetry {
    ScanTelemetry {
        enabled: true,
        kernels: vec![(impl_name, 1)],
        rows,
        predicates,
        lanes,
        blocks: rows.div_ceil(lanes as u64),
        bytes_touched,
        wall,
        morsels: 1,
        threads: 1,
        ..ScanTelemetry::default()
    }
}

/// Keep the positions whose row satisfies every predicate of `preds` (or,
/// with `any`, at least one), which all read one column: one typed loop per
/// layout reads each surviving row's value once (`data[p]` for plain,
/// dictionary-id and typed columns, `get(p)` for packed, FoR and
/// byte-sliced ones), so a `BETWEEN` or a one-column OR is one pass, and
/// builds no `Value` per row.
fn filter_survivors(
    positions: &mut Vec<u32>,
    preds: &[LayoutPred<'_>],
    any: bool,
) -> Result<(), ExecError> {
    let u32_tests = || -> Vec<(CmpOp, u32)> {
        preds
            .iter()
            .filter_map(|p| match *p {
                LayoutPred::U32(_, op, n)
                | LayoutPred::Packed(_, op, n)
                | LayoutPred::For(_, op, n)
                | LayoutPred::ByteSliced(_, op, n) => Some((op, n)),
                _ => None,
            })
            .collect()
    };
    match preds[0] {
        LayoutPred::U32(data, ..) => keep_matching(positions, &u32_tests(), any, |r| data[r]),
        LayoutPred::Packed(col, ..) => keep_matching(positions, &u32_tests(), any, |r| col.get(r)),
        LayoutPred::For(col, ..) => keep_matching(positions, &u32_tests(), any, |r| col.get(r)),
        LayoutPred::ByteSliced(col, ..) => {
            keep_matching(positions, &u32_tests(), any, |r| col.get(r))
        }
        LayoutPred::Typed(col, ..) => {
            fn typed<T: NativeType>(
                positions: &mut Vec<u32>,
                data: &[T],
                preds: &[LayoutPred<'_>],
                any: bool,
            ) -> Result<(), ExecError> {
                let tests = preds
                    .iter()
                    .map(|p| match *p {
                        LayoutPred::Typed(_, op, needle) => T::from_value(needle).map(|n| (op, n)),
                        _ => None,
                    })
                    .collect::<Option<Vec<(CmpOp, T)>>>()
                    .ok_or(ExecError::PredicateTypeError)?;
                keep_matching(positions, &tests, any, |r| data[r]);
                Ok(())
            }
            return with_native!(col, data => typed(positions, data, preds, any));
        }
    }
    Ok(())
}

/// Compact `positions` to the rows where `get(row) OP needle` holds for
/// every `(OP, needle)` of `tests`, or with `any` for at least one
/// ([`NativeType::cmp_op`], so float NaN semantics match the kernels).
/// Both folds are branch-free.
#[inline]
fn keep_matching<T: NativeType>(
    positions: &mut Vec<u32>,
    tests: &[(CmpOp, T)],
    any: bool,
    get: impl Fn(usize) -> T,
) {
    if any {
        compact(positions, |r| {
            let v = get(r);
            tests
                .iter()
                .fold(false, |ok, &(op, n)| ok | v.cmp_op(op, n))
        });
    } else {
        compact(positions, |r| {
            let v = get(r);
            tests.iter().fold(true, |ok, &(op, n)| ok & v.cmp_op(op, n))
        });
    }
}

/// Branch-free in-place compaction of `positions` to the rows `keep`
/// accepts (order preserved).
#[inline]
fn compact(positions: &mut Vec<u32>, keep: impl Fn(usize) -> bool) {
    let mut kept = 0;
    for i in 0..positions.len() {
        let pos = positions[i];
        positions[kept] = pos;
        kept += usize::from(keep(pos as usize));
    }
    positions.truncate(kept);
}

/// Run a mixed plain/packed chain: the JIT packed backend when possible,
/// otherwise the static packed kernel.
fn run_packed_chain(
    u32_preds: &[TypedPred<'_, u32>],
    packed_preds: &[(&PackedColumn, CmpOp, u32)],
    ctx: &ExecContext,
    mode: OutputMode,
    analyze: Option<&mut AnalyzeReport>,
) -> Result<ScanOutput, ExecError> {
    let total = u32_preds.len() + packed_preds.len();
    let started = analyze.is_some().then(Instant::now);
    let (out, impl_name): (ScanOutput, &'static str) = 'run: {
        // JIT path: driver must be a plain column or a ≤16-bit packed
        // column; ordering puts the plain predicates first, which satisfies
        // that when any plain predicate exists.
        if ctx.jit == JitMode::On && total <= fts_jit::MAX_JIT_PREDICATES {
            let driver_ok = !u32_preds.is_empty() || packed_preds[0].0.bits() <= 16;
            let in_domain = packed_preds
                .iter()
                .all(|&(pc, _, n)| n <= fts_storage::mask_of(pc.bits()));
            if driver_ok && in_domain {
                if let Some((out, _)) = run_jit(&ctx.packed_kernels, u32_preds, packed_preds, mode)
                {
                    break 'run (out, "jit-packed");
                }
            }
        }
        let chain: Vec<PackedPred<'_>> = u32_preds
            .iter()
            .map(|&p| PackedPred::Plain(p))
            .chain(packed_preds.iter().map(|&(pc, op, n)| PackedPred::Packed {
                col: pc,
                op,
                needle: n,
            }))
            .collect();
        (
            fused_scan_packed(&chain, mode)
                .map_err(|e| ExecError::UnsupportedPlan(e.to_string()))?,
            "fused-packed",
        )
    };
    if let (Some(r), Some(started)) = (analyze, started) {
        // Plain columns at 4 B/row, packed columns at bits/8 B/row.
        let rows = u32_preds
            .first()
            .map(|p| p.data.len())
            .unwrap_or_else(|| packed_preds[0].0.len()) as u64;
        let bytes = u32_preds.len() as u64 * rows * 4
            + packed_preds
                .iter()
                .map(|&(pc, _, _)| (rows * pc.bits() as u64).div_ceil(8))
                .sum::<u64>();
        r.note_scan(&timing_record(
            impl_name,
            rows,
            total,
            16,
            bytes,
            started.elapsed(),
        ));
    }
    Ok(out)
}

/// The JIT half of a chain scan: fetch (or compile) from `cache` the
/// kernel for the plain predicates followed by the packed ones (which occur
/// only in `u32` chains), and run it over their columns. Adjacent
/// predicates on one column share a stage (the signature marks them).
/// Returns the output and the kernel's own run time (compilation excluded,
/// so calibration compares kernels, not compiles); `None` when the kernel
/// cannot compile or run here, and the caller falls back to a static
/// kernel.
fn run_jit<T: JitRunElem>(
    cache: &KernelCache,
    plain: &[TypedPred<'_, T>],
    packed: &[(&PackedColumn, CmpOp, u32)],
    mode: OutputMode,
) -> Option<(ScanOutput, Duration)> {
    let cols: Vec<JitCol<'_, T>> = plain
        .iter()
        .map(|p| JitCol::Plain(p.data))
        .chain(packed.iter().map(|&(pc, _, _)| JitCol::Packed(pc)))
        .collect();
    let sig = ScanSig {
        elem: T::ELEM,
        preds: plain
            .iter()
            .map(|p| JitPred::plain(p.op, p.needle.to_bits()))
            .chain(
                packed
                    .iter()
                    .map(|&(pc, op, n)| JitPred::packed(pc.bits(), op, n)),
            )
            .collect(),
        emit_positions: mode == OutputMode::Positions,
    }
    .with_columns(cols.iter().map(|c| match c {
        JitCol::Plain(d) => (d.as_ptr().cast::<u8>(), d.len()),
        JitCol::Packed(pc) => (pc.words().as_ptr().cast::<u8>(), pc.words().len()),
    }));
    let kernel = cache.get_or_compile(&sig).ok()?;
    let started = Instant::now();
    let out = kernel.run_cols(&cols).ok()?;
    Some((out, started.elapsed()))
}

/// Run a plain chain of element type `T` — `group` holds at most
/// [`fts_core::fused::MAX_PREDICATES`] plain or dictionary-id predicates —
/// through the best available engine. `calibration` is set for a whole
/// chain: its calibrator at `T` picks the kernel, a probe candidate while
/// calibrating and the winner in steady state. Without one the static
/// policy applies: the JIT when it runs the chain, else the best
/// pre-monomorphized fused kernel for `T`.
fn run_plain_chain<T: PlainElem>(
    group: &[&LayoutPred<'_>],
    ctx: &ExecContext,
    mode: OutputMode,
    analyze: Option<&mut AnalyzeReport>,
    calibration: Option<&mut Calibration<'_>>,
) -> Result<ScanOutput, ExecError> {
    let preds: Vec<TypedPred<'_, T>> = group
        .iter()
        .map(|p| T::plain(p))
        .collect::<Option<_>>()
        .ok_or(ExecError::PredicateTypeError)?;
    let state = calibration.map(|c| c.calibrator::<T>(ctx, preds.len()));
    let adaptive = state.as_deref().map(ChainLock::new);
    let picked = adaptive.as_ref().map(|held| held.kernel);
    let rows = preds[0].data.len() as u64;
    let use_jit = match picked {
        Some(kernel) => kernel == QueryKernel::Jit,
        None => jit_covers(ctx, preds.len()),
    };
    if use_jit {
        // One cache key per kernel: a calibrated chain and the same chain
        // driving a longer one share the compiled code.
        if let Some((out, wall)) = run_jit(&ctx.kernels, &preds, &[], mode) {
            if let Some(held) = adaptive {
                held.observe(QueryKernel::Jit, rows, wall, out.count());
            }
            if let Some(r) = analyze {
                // The JIT kernel implements the same per-block fused
                // algorithm as the 512-bit AVX-512 engine, so the
                // scalar-model replay at `T`'s lane count yields its exact
                // stage counters; only the wall time comes from the
                // machine-code run.
                let mut t =
                    fts_core::telemetry::collect(ScanImpl::FusedAvx512(RegWidth::W512), &preds);
                t.kernels = vec![(QueryKernel::Jit.name(), 1)];
                t.wall = wall;
                r.note_scan(&t);
            }
            return Ok(out);
        }
    }
    let imp = match picked {
        Some(QueryKernel::Static(imp)) => imp,
        // Adaptive picked JIT but compilation/run failed: fall back.
        _ => best_fused_impl::<T>(),
    };
    // Calibration uses the kernel's own wall time: `run_scan_telemetered`
    // times the real run before its stage-replay pass, so EXPLAIN ANALYZE
    // does not bias the probe timings.
    let engine_error = |e: fts_core::EngineError| ExecError::UnsupportedPlan(e.to_string());
    let (out, wall) = if let Some(r) = analyze {
        let (out, t) = run_scan_telemetered(imp, &preds, mode).map_err(engine_error)?;
        let wall = t.wall;
        r.note_scan(&t);
        (out, wall)
    } else {
        let started = Instant::now();
        let out = run_scan(imp, &preds, mode).map_err(engine_error)?;
        (out, started.elapsed())
    };
    if let Some(held) = adaptive {
        held.observe(QueryKernel::Static(imp), rows, wall, out.count());
    }
    Ok(out)
}

/// A chain's calibrator as one chunk scan holds it. While the chain
/// calibrates, the lock is held from the phase read across the kernel run
/// to the observation, so probes run one at a time and time a quiet
/// kernel. A steady chain is locked only to read the phase and again to
/// observe, so the threads scanning its chunks never wait on each other.
struct ChainLock<'s> {
    state: &'s Mutex<ChainCalibrator>,
    /// The lock, while probing.
    probing: Option<MutexGuard<'s, ChainCalibrator>>,
    /// The kernel the phase picked: a probe candidate or the winner.
    kernel: QueryKernel,
}

impl<'s> ChainLock<'s> {
    fn new(state: &'s Mutex<ChainCalibrator>) -> ChainLock<'s> {
        let cal = lock_plain(state);
        match cal.phase() {
            Phase::Calibrating(kernel) => ChainLock {
                state,
                probing: Some(cal),
                kernel,
            },
            Phase::Steady(kernel) => ChainLock {
                state,
                probing: None,
                kernel,
            },
        }
    }

    /// Feed the calibrator what the chunk's kernel run did.
    fn observe(self, kernel: QueryKernel, rows: u64, wall: Duration, matches: u64) {
        let mut cal = self.probing.unwrap_or_else(|| lock_plain(self.state));
        cal.observe(kernel, rows, wall.as_nanos() as u64, matches);
    }
}

/// Execute an optimized logical plan. An aggregate's chunks fan out over
/// the scan pool's idle cores; a projection's stay on the calling thread.
pub fn execute(plan: &Lqp, ctx: &ExecContext) -> Result<QueryResult, ExecError> {
    execute_with(plan, ctx, None)
}

/// Execute a plan on the calling thread and collect an [`AnalyzeReport`]
/// — the `EXPLAIN ANALYZE` path. Each chunk's scan collects its
/// telemetry, which costs one extra instrumented pass per chunk; plain
/// [`execute`] stays uninstrumented.
pub fn execute_analyzed(
    plan: &Lqp,
    ctx: &ExecContext,
) -> Result<(QueryResult, AnalyzeReport), ExecError> {
    let mut report = AnalyzeReport::default();
    let jit0 = ctx.jit_stats();
    let pruned0 = ctx.chunks_pruned.load(Ordering::Relaxed);
    let scanned0 = ctx.chunks_scanned.load(Ordering::Relaxed);
    let started = Instant::now();
    let result = execute_with(plan, ctx, Some(&mut report))?;
    report.wall = started.elapsed();
    let jit1 = ctx.jit_stats();
    report.jit_hits = jit1.hits.saturating_sub(jit0.hits);
    report.jit_misses = jit1.misses.saturating_sub(jit0.misses);
    report.jit_evictions = jit1.evictions.saturating_sub(jit0.evictions);
    report.jit_compile_time = jit1.compile_time.saturating_sub(jit0.compile_time);
    report.packed_kernels = ctx.packed_kernels.len();
    report.chunks_pruned = ctx
        .chunks_pruned
        .load(Ordering::Relaxed)
        .saturating_sub(pruned0);
    report.chunks_scanned = ctx
        .chunks_scanned
        .load(Ordering::Relaxed)
        .saturating_sub(scanned0);
    Ok((result, report))
}

/// Execute several aggregate statements over the *same* stored table as
/// one chunk-major shared pass (cooperative scan): the pass walks the
/// table's chunks once, and every statement evaluates its predicate chain
/// against the chunk while it is hot in cache. With K compatible
/// statements this reads each chunk from memory once instead of K times —
/// the win that makes concurrent-scan batching pay in the bandwidth-bound
/// regime. The pass is a solo aggregate's chunk loop with K statements,
/// so its chunks fan out over idle cores like a solo statement's.
///
/// Returns `None` (caller falls back to per-statement execution) unless
/// every plan is an `Aggregate` whose scan bottoms out in the same table.
/// Each statement keeps its own pruning, adaptive state, aggregation and
/// errors, so per-statement results are bit-identical to solo execution.
pub fn execute_shared(
    plans: &[&Lqp],
    ctx: &ExecContext,
) -> Option<Vec<Result<QueryResult, ExecError>>> {
    let statements = plans
        .iter()
        .map(|plan| match plan {
            Lqp::Aggregate { input, aggs } => Some((input.as_ref(), aggs.as_slice())),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    if statements.is_empty() {
        return None;
    }
    aggregate(&statements, ctx, None).ok()
}

fn execute_with(
    plan: &Lqp,
    ctx: &ExecContext,
    analyze: Option<&mut AnalyzeReport>,
) -> Result<QueryResult, ExecError> {
    match plan {
        Lqp::Aggregate { input, aggs } => aggregate(&[(input.as_ref(), aggs)], ctx, analyze)?
            .pop()
            .expect("a pass of one statement has one answer"),
        Lqp::Limit { input, n } => {
            // A projection stops once `n` rows are materialized; anything
            // else (an aggregate's single row) truncates afterwards.
            if let Lqp::Project {
                input,
                columns,
                names,
            } = input.as_ref()
            {
                let limit = usize::try_from(*n).unwrap_or(usize::MAX);
                return project(input, columns, names, limit, ctx, analyze);
            }
            let inner = execute_with(input, ctx, analyze)?;
            Ok(match inner {
                QueryResult::Rows { columns, mut rows } => {
                    rows.truncate(*n as usize);
                    QueryResult::Rows { columns, rows }
                }
                other => other,
            })
        }
        Lqp::Project {
            input,
            columns,
            names,
        } => project(input, columns, names, usize::MAX, ctx, analyze),
        other => Err(ExecError::UnsupportedPlan(format!("{other:?}"))),
    }
}

/// Ends a pass's chunk loop before its last chunk: a fold broke, or every
/// statement has failed.
struct Stop;

/// One thread's share of a pass's chunk loop: its own compiled tree per
/// statement (a tree holds per-thread row counters and the calibrators it
/// took), and on the calling thread the `EXPLAIN ANALYZE` report.
struct PassWorker<'a, 'r> {
    scans: Vec<StatementScan<'a>>,
    analyze: Option<&'r mut AnalyzeReport>,
    helper: bool,
}

/// The one chunk loop of every statement ([`ScanPool::fan_out`]): scan
/// `chunks` for each statement of a pass, in the statement's output mode,
/// and hand the outputs to `fold(statement, chunk, output, report)` in
/// chunk order. The calling thread and up to `helpers` pool helpers each
/// claim a chunk and prune or scan it for every statement; the calling
/// thread folds.
///
/// A statement whose scan or fold fails is scanned no further and takes
/// its first error, the lowest failing chunk's, as its answer; the other
/// statements go on. The loop ends when a fold breaks or every statement
/// has failed. Returns each statement's error, if it failed.
fn scan_pass(
    statements: Vec<(StatementScan<'_>, OutputMode)>,
    chunks: &[Arc<Chunk>],
    ctx: &ExecContext,
    analyze: Option<&mut AnalyzeReport>,
    helpers: usize,
    mut fold: impl FnMut(
        usize,
        &Chunk,
        &ScanOutput,
        Option<&mut AnalyzeReport>,
    ) -> Result<ControlFlow<()>, ExecError>,
) -> Vec<Option<ExecError>> {
    let (scans, modes): (Vec<_>, Vec<_>) = statements.into_iter().unzip();
    let plans: Vec<&Lqp> = scans.iter().map(|s| s.plan).collect();
    // Per statement, the lowest chunk it failed on: no later chunk is
    // scanned for it.
    let stops: Vec<AtomicUsize> = modes.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
    let mut failed: Vec<Option<ExecError>> = modes.iter().map(|_| None).collect();
    let mut own = PassWorker {
        scans,
        analyze,
        helper: false,
    };
    // The pass's loop fails only to stop early; statements keep their own
    // errors in `failed`.
    let (Ok(()) | Err(Stop)) = ScanPool::global().fan_out(
        chunks.len(),
        helpers,
        &mut own,
        || {
            let scans = plans.iter().map(|p| StatementScan::build(p).ok());
            Some(PassWorker {
                scans: scans.collect::<Option<_>>()?,
                analyze: None,
                helper: true,
            })
        },
        |w, ci| {
            let mut outs = Vec::with_capacity(modes.len());
            for ((scan, &mode), stop) in w.scans.iter_mut().zip(&modes).zip(&stops) {
                if ci > stop.load(Ordering::Relaxed) {
                    outs.push(Ok(None));
                    continue;
                }
                if scan.prune(ci) {
                    ctx.chunks_pruned.fetch_add(1, Ordering::Relaxed);
                    outs.push(Ok(None));
                    continue;
                }
                ctx.chunks_scanned.fetch_add(1, Ordering::Relaxed);
                if w.helper {
                    ctx.chunks_helped.fetch_add(1, Ordering::Relaxed);
                }
                let out = scan.scan(ci, &chunks[ci], ctx, mode, w.analyze.as_deref_mut());
                if out.is_err() {
                    stop.fetch_min(ci, Ordering::Relaxed);
                }
                outs.push(out.map(Some));
            }
            Ok(outs)
        },
        |w, ci, outs| {
            for (s, out) in outs.into_iter().enumerate() {
                if failed[s].is_some() {
                    continue;
                }
                let flow = match out {
                    Ok(None) => continue,
                    Ok(Some(out)) => fold(s, &chunks[ci], &out, w.analyze.as_deref_mut()),
                    Err(e) => Err(e),
                };
                match flow {
                    Ok(ControlFlow::Continue(())) => {}
                    Ok(ControlFlow::Break(())) => return Err(Stop),
                    Err(e) => {
                        stops[s].fetch_min(ci, Ordering::Relaxed);
                        failed[s] = Some(e);
                    }
                }
            }
            if failed.iter().all(Option::is_some) {
                return Err(Stop);
            }
            Ok(())
        },
    );
    for scan in &own.scans {
        scan.finish(own.analyze.as_deref_mut());
    }
    failed
}

/// Answer the aggregate statements of one pass over their table, each
/// `(scan input, aggregates)`; a solo statement is a pass of one. Each
/// statement folds its chunk outputs in chunk order, so its answer is the
/// serial loop's. `EXPLAIN ANALYZE` enlists no helper: its one report and
/// its per-chunk replay stay on the calling thread. Fails as a whole only
/// when a statement cannot be set up or the statements read different
/// tables.
fn aggregate(
    statements: &[(&Lqp, &[BoundAgg])],
    ctx: &ExecContext,
    analyze: Option<&mut AnalyzeReport>,
) -> Result<Vec<Result<QueryResult, ExecError>>, ExecError> {
    let mut pass = Vec::with_capacity(statements.len());
    let mut aggs = Vec::with_capacity(statements.len());
    for &(input, bound) in statements {
        let scan = StatementScan::build(input)?;
        let agg = Aggregation::new(bound)?;
        pass.push((scan, agg.mode()));
        aggs.push(agg);
    }
    let entry = pass[0].0.entry;
    if pass
        .iter()
        .any(|(s, _)| !Arc::ptr_eq(&s.entry.table, &entry.table))
    {
        return Err(ExecError::UnsupportedPlan(
            "a shared pass reads one table".into(),
        ));
    }
    let helpers = if analyze.is_some() { 0 } else { usize::MAX };
    let failed = scan_pass(
        pass,
        entry.table.chunks(),
        ctx,
        analyze,
        helpers,
        |s, chunk, out, analyze| aggs[s].fold(chunk, out, analyze).map(ControlFlow::Continue),
    );
    Ok(failed
        .into_iter()
        .zip(aggs)
        .map(|(failed, agg)| match failed {
            Some(e) => Err(e),
            None => agg.finish(),
        })
        .collect())
}

/// Materialize `columns` of the rows the scan under `input` keeps, in
/// chunk order and ascending position within a chunk, stopping once
/// `limit` rows are materialized. A projection enlists no helper, so no
/// chunk past the one that fills the limit is scanned; LIMIT 0 scans
/// nothing.
fn project(
    input: &Lqp,
    columns: &[usize],
    names: &[String],
    limit: usize,
    ctx: &ExecContext,
    analyze: Option<&mut AnalyzeReport>,
) -> Result<QueryResult, ExecError> {
    let scan = StatementScan::build(input)?;
    let chunks = scan.entry.table.chunks();
    let chunks = if limit == 0 { &chunks[..0] } else { chunks };
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let failed = scan_pass(
        vec![(scan, OutputMode::Positions)],
        chunks,
        ctx,
        analyze,
        0,
        |_, chunk, out, analyze| {
            let positions = out.positions().expect("positions requested");
            let take = positions.len().min(limit - rows.len());
            let started = analyze.is_some().then(Instant::now);
            for &pos in &positions.as_slice()[..take] {
                rows.push(
                    columns
                        .iter()
                        .map(|&c| chunk.segment(c).value_at(pos as usize))
                        .collect(),
                );
            }
            if let (Some(r), Some(started)) = (analyze, started) {
                r.materialize.note(take, columns.len(), started.elapsed());
            }
            if rows.len() >= limit {
                return Ok(ControlFlow::Break(()));
            }
            Ok(ControlFlow::Continue(()))
        },
    );
    match failed.into_iter().next().flatten() {
        Some(e) => Err(e),
        None => Ok(QueryResult::Rows {
            columns: names.to_vec(),
            rows,
        }),
    }
}

/// Run `$body` with `$get: impl Fn(usize) -> T` reading one row of the
/// segment, monomorphized per layout and native type: `data[p]` for plain
/// columns, `dict[ids[p]]` for dictionary columns, `col.get(p)` for
/// packed, FoR and byte-sliced ones.
macro_rules! with_values {
    ($seg:expr, $get:ident => $body:expr) => {
        match $seg {
            Segment::Plain(col) => with_native!(col, data => {
                let $get = |p: usize| data[p];
                $body
            }),
            Segment::Dict(d) => {
                let ids = d.value_ids();
                with_native!(d.dictionary(), dict => {
                    let $get = |p: usize| dict[ids[p] as usize];
                    $body
                })
            }
            Segment::Packed(col) => {
                let $get = |p: usize| col.get(p);
                $body
            }
            Segment::For(col) => {
                let $get = |p: usize| col.get(p);
                $body
            }
            Segment::ByteSliced(col) => {
                let $get = |p: usize| col.get(p);
                $body
            }
        }
    };
}

/// The aggregates of one statement and their running states, fed one
/// chunk at a time by [`aggregate`].
struct Aggregation<'p> {
    aggs: &'p [BoundAgg],
    states: Vec<AggState>,
}

impl<'p> Aggregation<'p> {
    fn new(aggs: &'p [BoundAgg]) -> Result<Aggregation<'p>, ExecError> {
        Ok(Aggregation {
            aggs,
            states: aggs.iter().map(AggState::new).collect::<Result<_, _>>()?,
        })
    }

    /// The scan mode the statement needs: a lone `COUNT(*)` gathers no
    /// values, so it counts end to end (popcount paths included).
    fn mode(&self) -> OutputMode {
        match self.states[..] {
            [AggState::Count(_)] => OutputMode::Count,
            _ => OutputMode::Positions,
        }
    }

    /// Fold one chunk's scan output into every aggregate: per aggregate,
    /// one typed loop over the chunk's survivors. `analyze` gets the rows
    /// folded and the wall time (two clock reads per chunk).
    fn fold(
        &mut self,
        chunk: &Chunk,
        out: &ScanOutput,
        analyze: Option<&mut AnalyzeReport>,
    ) -> Result<(), ExecError> {
        let positions = match out {
            ScanOutput::Positions(pl) => pl.as_slice(),
            // Count mode: the statement is a lone COUNT(*).
            ScanOutput::Count(n) => {
                if let [AggState::Count(total)] = &mut self.states[..] {
                    *total += n;
                }
                return Ok(());
            }
        };
        let started = analyze.is_some().then(Instant::now);
        for state in &mut self.states {
            state.fold(chunk, positions)?;
        }
        if let (Some(r), Some(started)) = (analyze, started) {
            r.aggregate
                .note(positions.len(), self.aggs.len(), started.elapsed());
        }
        Ok(())
    }

    fn finish(self) -> Result<QueryResult, ExecError> {
        if let [AggState::Count(n)] = self.states[..] {
            return Ok(QueryResult::Count(n));
        }
        Ok(QueryResult::Rows {
            columns: self.aggs.iter().map(|a| a.label.clone()).collect(),
            rows: vec![self
                .states
                .into_iter()
                .zip(self.aggs)
                .map(|(st, agg)| st.finish(agg))
                .collect::<Result<_, _>>()?],
        })
    }
}

/// Running state of one aggregate expression.
enum AggState {
    Count(u64),
    /// SUM/AVG of `column`: integers exactly in `i128`, floats in `f64`
    /// added in ascending position order.
    Sum {
        column: usize,
        ints: i128,
        floats: f64,
        n: u64,
        is_float: bool,
    },
    /// MIN/MAX of `column`: the running best, from which each chunk's
    /// fold starts.
    MinMax {
        column: usize,
        best: Option<Value>,
        want_max: bool,
    },
}

impl AggState {
    fn new(agg: &BoundAgg) -> Result<AggState, ExecError> {
        let column = || {
            agg.column
                .ok_or_else(|| ExecError::UnsupportedPlan(format!("{} binds no column", agg.label)))
        };
        Ok(match agg.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum | AggFunc::Avg => AggState::Sum {
                column: column()?,
                ints: 0,
                floats: 0.0,
                n: 0,
                is_float: false,
            },
            AggFunc::Min | AggFunc::Max => AggState::MinMax {
                column: column()?,
                best: None,
                want_max: agg.func == AggFunc::Max,
            },
        })
    }

    /// Fold one chunk's survivors: match the argument segment's layout
    /// and type once, then run one monomorphic loop over `positions`.
    fn fold(&mut self, chunk: &Chunk, positions: &[u32]) -> Result<(), ExecError> {
        match self {
            AggState::Count(n) => *n += positions.len() as u64,
            AggState::Sum {
                column,
                ints,
                floats,
                n,
                is_float,
            } => {
                with_values!(chunk.segment(*column), get => {
                    sum_values(positions, get, ints, floats, is_float)
                });
                *n += positions.len() as u64;
            }
            AggState::MinMax {
                column,
                best,
                want_max,
            } => {
                *best = with_values!(chunk.segment(*column), get => {
                    best_value(positions, get, *best, *want_max)
                })?;
            }
        }
        Ok(())
    }

    fn finish(self, agg: &BoundAgg) -> Result<Value, ExecError> {
        Ok(match self {
            AggState::Count(n) => Value::U64(n),
            AggState::Sum {
                ints,
                floats,
                n,
                is_float,
                ..
            } => {
                if agg.func == AggFunc::Avg {
                    let total = floats + ints as f64;
                    return Ok(Value::F64(if n == 0 { 0.0 } else { total / n as f64 }));
                }
                if is_float {
                    Value::F64(floats + ints as f64)
                } else {
                    Value::I64(i64::try_from(ints).map_err(|_| ExecError::SumOverflow {
                        aggregate: agg.label.clone(),
                        exact: ints,
                    })?)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::I64(0)),
        })
    }
}

/// A native type's contribution to an exact running sum.
trait Summable: NativeType {
    const IS_FLOAT: bool;

    /// Add the values `get` reads at `positions` into the running sums:
    /// integers exactly into `ints`, floats into `floats` one at a time in
    /// position order.
    fn sum_into(positions: &[u32], get: impl Fn(usize) -> Self, ints: &mut i128, floats: &mut f64);
}

/// Integers sum exactly: types of 32 bits or fewer add up a chunk in a
/// 64-bit accumulator first (a chunk holds at most 2³² rows, so it cannot
/// overflow), `i64` and `u64` add up in `i128`.
macro_rules! impl_summable_int {
    ($acc:ty => $($t:ty),*) => {$(
        impl Summable for $t {
            const IS_FLOAT: bool = false;
            #[inline]
            fn sum_into(positions: &[u32], get: impl Fn(usize) -> Self, ints: &mut i128, _: &mut f64) {
                let chunk: $acc = positions.iter().map(|&p| <$acc>::from(get(p as usize))).sum();
                *ints += chunk as i128;
            }
        }
    )*};
}
impl_summable_int!(i64 => i8, i16, i32);
impl_summable_int!(u64 => u8, u16, u32);
impl_summable_int!(i128 => i64, u64);

macro_rules! impl_summable_float {
    ($($t:ty),*) => {$(
        impl Summable for $t {
            const IS_FLOAT: bool = true;
            #[inline]
            fn sum_into(positions: &[u32], get: impl Fn(usize) -> Self, _: &mut i128, floats: &mut f64) {
                *floats = positions
                    .iter()
                    .fold(*floats, |acc, &p| acc + f64::from(get(p as usize)));
            }
        }
    )*};
}
impl_summable_float!(f32, f64);

fn sum_values<T: Summable>(
    positions: &[u32],
    get: impl Fn(usize) -> T,
    ints: &mut i128,
    floats: &mut f64,
    is_float: &mut bool,
) {
    T::sum_into(positions, get, ints, floats);
    *is_float |= T::IS_FLOAT && !positions.is_empty();
}

/// The running best after folding the values `get` reads at `positions`
/// into `best`. Strict comparisons keep the earliest of tied values
/// (`-0.0` vs `0.0` included), and a NaN neither replaces a value nor,
/// once it is the first value, is replaced.
fn best_value<T: NativeType>(
    positions: &[u32],
    get: impl Fn(usize) -> T,
    best: Option<Value>,
    want_max: bool,
) -> Result<Option<Value>, ExecError> {
    let mut values = positions.iter().map(|&p| get(p as usize));
    let start = match best {
        Some(v) => T::from_value(v).ok_or_else(|| {
            ExecError::UnsupportedPlan("aggregate column changes type across chunks".into())
        })?,
        None => match values.next() {
            Some(v) => v,
            None => return Ok(None),
        },
    };
    let best = if want_max {
        values.fold(start, |b, v| if v > b { v } else { b })
    } else {
        values.fold(start, |b, v| if v < b { v } else { b })
    };
    Ok(Some(best.to_value()))
}

/// Resolve a scan subtree (fused chain | σ tree | single filter | bare
/// table) directly over a stored table into its table and its WHERE
/// clause: a chain's predicates, or a tree.
fn scan_root(plan: &Lqp) -> Result<(&str, &CatalogEntry, Where<'_>), ExecError> {
    let (input, clause) = match plan {
        Lqp::StoredTable { name, entry, .. } => return Ok((name, entry, Where::Chain(&[]))),
        Lqp::Filter { input, pred } => (input, Where::Chain(std::slice::from_ref(pred))),
        Lqp::FusedFilterChain { input, preds } => (input, Where::Chain(preds)),
        Lqp::FilterTree { input, expr } => (input, Where::Tree(expr)),
        other => return Err(ExecError::UnsupportedPlan(format!("{other:?}"))),
    };
    match input.as_ref() {
        Lqp::StoredTable { name, entry, .. } => Ok((name, entry, clause)),
        other => Err(ExecError::UnsupportedPlan(format!("filter over {other:?}"))),
    }
}

/// A statement's WHERE clause as the plan holds it.
enum Where<'a> {
    /// A conjunctive chain (possibly empty — bare table scan).
    Chain(&'a [BoundPred]),
    /// An ordered NNF tree with an OR somewhere.
    Tree(&'a BoolExpr<BoundPred>),
}

/// A chain's identity for adaptive-calibration bookkeeping: one entry per
/// predicate — (column, operator, literal bits). Two chains with the same
/// key scan the same data with the same predicates, so they may share
/// probe statistics; any difference means separate calibrators.
type SubChainKey = Vec<(usize, u8, u64)>;

fn sub_chain_key(preds: &[BoundPred]) -> SubChainKey {
    preds
        .iter()
        .map(|p| (p.column, p.op as u8, value_key_bits(p.value)))
        .collect()
}

/// Where one chunk's tree evaluation runs.
#[derive(Clone, Copy)]
struct At<'c> {
    table: &'c str,
    entry: &'c CatalogEntry,
    chunk_idx: usize,
    chunk: &'c Chunk,
    ctx: &'c ExecContext,
}

/// One node of a statement's WHERE clause as the executor runs it
/// (DESIGN.md §6.3), with the rows it examined and accepted summed over the
/// chunks.
struct TreeNode<'a> {
    op: TreeOp<'a>,
    rows_in: u64,
    rows_out: u64,
}

enum TreeOp<'a> {
    /// Leaf conjuncts in driver position: one [`scan_chunk`] over the whole
    /// chunk, with the calibrators a standalone chain of the same predicates
    /// uses ([`Calibration`]).
    Drive {
        chain: Cow<'a, [BoundPred]>,
        adaptive: Calibrators,
    },
    /// Leaves on one column, all of which (a `BETWEEN`) or any of which
    /// (`a = 3 OR a = 7`) must hold: one typed loop over the candidates.
    Column {
        preds: Vec<&'a BoundPred>,
        any: bool,
    },
    /// Children in sequence, each filtering what the previous one kept; in
    /// driver position the first child drives.
    And(Vec<TreeNode<'a>>),
    /// Children that each see only the candidates no earlier child
    /// accepted; in driver position each child drives.
    Or(Vec<TreeNode<'a>>),
}

impl<'a> TreeNode<'a> {
    fn new(op: TreeOp<'a>) -> TreeNode<'a> {
        TreeNode {
            op,
            rows_in: 0,
            rows_out: 0,
        }
    }

    /// A driver over `chain`.
    fn driver(chain: Cow<'a, [BoundPred]>) -> TreeNode<'a> {
        TreeNode::new(TreeOp::Drive {
            chain,
            adaptive: Calibrators::new(),
        })
    }

    /// Compile an ordered NNF tree. A node in driver position (`drives`:
    /// the root, an OR's children when the OR drives, an AND's first child
    /// when the AND has no leaf conjunct) runs its leaf conjuncts as one
    /// driver; every other node filters, its leaves grouped by column into
    /// one loop each.
    fn compile(expr: &'a BoolExpr<BoundPred>, drives: bool) -> Result<TreeNode<'a>, ExecError> {
        let (cs, is_and) = match expr {
            BoolExpr::Pred(p) if drives => return Ok(Self::driver(Cow::Owned(vec![p.clone()]))),
            BoolExpr::Pred(p) => {
                return Ok(TreeNode::new(TreeOp::Column {
                    preds: vec![p],
                    any: false,
                }))
            }
            BoolExpr::And(cs) => (cs, true),
            BoolExpr::Or(cs) => (cs, false),
            BoolExpr::Not(_) => {
                return Err(ExecError::UnsupportedPlan(
                    "NOT survived normalization".into(),
                ))
            }
        };
        let mut children = Vec::with_capacity(cs.len());
        if drives && is_and {
            let chain: Vec<BoundPred> = cs.iter().filter_map(leaf).cloned().collect();
            let first_drives = chain.is_empty();
            if !first_drives {
                children.push(Self::driver(Cow::Owned(chain)));
            }
            for (i, c) in cs.iter().filter(|c| leaf(c).is_none()).enumerate() {
                children.push(Self::compile(c, first_drives && i == 0)?);
            }
        } else {
            for c in cs {
                match leaf(c) {
                    Some(p) if !drives => {
                        // Join only a group with this node's connective: a
                        // compound child can also compile to one column loop
                        // (a `BETWEEN` under an OR), with the other one.
                        let same_column = children.iter_mut().find_map(|n| match &mut n.op {
                            TreeOp::Column { preds, any }
                                if *any != is_and && preds[0].column == p.column =>
                            {
                                Some(preds)
                            }
                            _ => None,
                        });
                        match same_column {
                            Some(preds) => preds.push(p),
                            None => children.push(TreeNode::new(TreeOp::Column {
                                preds: vec![p],
                                any: !is_and,
                            })),
                        }
                    }
                    _ => children.push(Self::compile(c, drives)?),
                }
            }
        }
        Ok(match children.len() {
            1 => children.pop().expect("one child"),
            _ if is_and => TreeNode::new(TreeOp::And(children)),
            _ => TreeNode::new(TreeOp::Or(children)),
        })
    }

    /// Whether min/max pruning leaves the node any chance on the chunk: a
    /// conjunction can match only if every part can, a disjunction if any
    /// part can.
    fn can_match(&self, entry: &CatalogEntry, chunk_idx: usize) -> bool {
        let leaf =
            |p: &BoundPred| range_can_match(entry.chunk_ranges[chunk_idx][p.column], p.op, p.value);
        match &self.op {
            TreeOp::Drive { chain, .. } => chain.iter().all(leaf),
            TreeOp::Column { preds, any: false } => preds.iter().all(|p| leaf(p)),
            TreeOp::Column { preds, any: true } => preds.iter().any(|p| leaf(p)),
            TreeOp::And(cs) => cs.iter().all(|c| c.can_match(entry, chunk_idx)),
            TreeOp::Or(cs) => cs.iter().any(|c| c.can_match(entry, chunk_idx)),
        }
    }

    /// Run the node in driver position over the whole chunk. `decided`
    /// holds the positions earlier children of a driving OR accepted: an
    /// AND drops them from its driver's survivors before its filters run.
    fn scan(
        &mut self,
        at: &At<'_>,
        mode: OutputMode,
        decided: Option<&Bitmap>,
        mut analyze: Option<&mut AnalyzeReport>,
    ) -> Result<ScanOutput, ExecError> {
        let rows = at.chunk.rows();
        let out = match &mut self.op {
            TreeOp::Drive { chain, adaptive } => {
                let chain: &[BoundPred] = chain;
                let mut calibration = Calibration {
                    table: at.table,
                    chain,
                    taken: adaptive,
                };
                scan_chunk(
                    at.chunk,
                    chain,
                    at.ctx,
                    mode,
                    analyze,
                    Some(&mut calibration),
                )?
            }
            TreeOp::And(children) => {
                let (first, rest) = children.split_first_mut().expect("an AND has children");
                let ScanOutput::Positions(pl) =
                    first.scan(at, OutputMode::Positions, None, analyze.as_deref_mut())?
                else {
                    unreachable!("positions requested")
                };
                let mut survivors = pl.into_vec();
                if let Some(decided) = decided {
                    compact(&mut survivors, |p| !decided.get(p));
                }
                let rows_in = survivors.len() as u64;
                for c in rest {
                    if survivors.is_empty() {
                        break;
                    }
                    c.filter(at, &mut survivors)?;
                }
                if let Some(r) = analyze {
                    r.phase2_rows_in += rows_in;
                    r.phase2_rows_out += survivors.len() as u64;
                }
                survivors_output(survivors, mode)
            }
            TreeOp::Or(children) => {
                let mut accepted = Bitmap::zeros(rows);
                for c in children {
                    if c.can_match(at.entry, at.chunk_idx) {
                        let out = c.scan(
                            at,
                            OutputMode::Positions,
                            Some(&accepted),
                            analyze.as_deref_mut(),
                        )?;
                        let positions = out.positions().expect("positions requested");
                        positions.into_iter().for_each(|p| accepted.set(p as usize));
                    }
                }
                match mode {
                    OutputMode::Count => ScanOutput::Count(accepted.count_ones()),
                    OutputMode::Positions => ScanOutput::Positions(accepted.to_positions()),
                }
            }
            TreeOp::Column { .. } => unreachable!("leaves in driver position compile to a Drive"),
        };
        self.rows_in += rows as u64;
        self.rows_out += out.count();
        Ok(out)
    }

    /// Keep the candidates (ascending positions) the node accepts.
    fn filter(&mut self, at: &At<'_>, candidates: &mut Vec<u32>) -> Result<(), ExecError> {
        let rows_in = candidates.len() as u64;
        if !self.can_match(at.entry, at.chunk_idx) {
            candidates.clear();
        } else {
            match &mut self.op {
                TreeOp::Column { preds, any } => filter_column(at.chunk, preds, *any, candidates)?,
                TreeOp::And(children) => {
                    for c in children {
                        if candidates.is_empty() {
                            break;
                        }
                        c.filter(at, candidates)?;
                    }
                }
                TreeOp::Or(children) => {
                    // Each child sees only what no earlier child accepted;
                    // the bitmap keeps the candidates' order.
                    let mut accepted = Bitmap::zeros(at.chunk.rows());
                    let mut undecided = candidates.clone();
                    let last = children.len() - 1;
                    for (k, c) in children.iter_mut().enumerate() {
                        if undecided.is_empty() {
                            break;
                        }
                        let mut kept = match k == last {
                            true => std::mem::take(&mut undecided),
                            false => undecided.clone(),
                        };
                        c.filter(at, &mut kept)?;
                        kept.iter().for_each(|&p| accepted.set(p as usize));
                        compact(&mut undecided, |p| !accepted.get(p));
                    }
                    compact(candidates, |p| accepted.get(p));
                }
                TreeOp::Drive { .. } => unreachable!("a driver never filters"),
            }
        }
        self.rows_in += rows_in;
        self.rows_out += candidates.len() as u64;
        Ok(())
    }

    /// Plan-time selectivity estimate of the node.
    fn estimate(&self) -> f64 {
        match &self.op {
            TreeOp::Drive { chain, .. } => conjunction_selectivity(chain.iter()),
            TreeOp::Column { preds, any: false } => conjunction_selectivity(preds.iter().copied()),
            TreeOp::Column { preds, any: true } => {
                disjunction_selectivity(preds.iter().map(|p| p.selectivity))
            }
            TreeOp::And(cs) => cs.iter().map(TreeNode::estimate).product(),
            TreeOp::Or(cs) => disjunction_selectivity(cs.iter().map(TreeNode::estimate)),
        }
    }

    /// Append the node's and its descendants' reports, depth first.
    fn report_into(&self, depth: usize, out: &mut Vec<SubChainReport>) {
        let (label, adaptive) = match &self.op {
            TreeOp::Drive { chain, adaptive } => (chain_text(chain), decision(adaptive)),
            TreeOp::Column { preds, any } => (
                preds
                    .iter()
                    .map(|p| pred_text(p))
                    .collect::<Vec<_>>()
                    .join(if *any { " OR " } else { " AND " }),
                None,
            ),
            TreeOp::And(_) => ("∧".to_string(), None),
            TreeOp::Or(_) => ("∨".to_string(), None),
        };
        out.push(SubChainReport {
            label,
            drives: matches!(self.op, TreeOp::Drive { .. }),
            depth,
            expected_selectivity: self.estimate(),
            rows_in: self.rows_in,
            rows_out: self.rows_out,
            adaptive,
        });
        if let TreeOp::And(cs) | TreeOp::Or(cs) = &self.op {
            for c in cs {
                c.report_into(depth + 1, out);
            }
        }
    }
}

/// Keep the candidates that satisfy the leaves `preds` on one column (all
/// of them, or with `any` at least one), translated for this chunk. A leaf
/// a dictionary rewrite proves constant either decides the node (true in
/// an OR, false in an AND) or drops out.
fn filter_column(
    chunk: &Chunk,
    preds: &[&BoundPred],
    any: bool,
    candidates: &mut Vec<u32>,
) -> Result<(), ExecError> {
    let mut forms = Vec::with_capacity(preds.len());
    for p in preds {
        match translate_pred(chunk, p)? {
            Translated::Form(form) => forms.push(form),
            Translated::Const(holds) if holds == any => {
                if !any {
                    candidates.clear();
                }
                return Ok(());
            }
            Translated::Const(_) => {}
        }
    }
    if forms.is_empty() {
        // Every leaf dropped out: an empty OR is false, an empty AND true.
        if any {
            candidates.clear();
        }
        return Ok(());
    }
    filter_survivors(candidates, &forms, any)
}

/// What a driver's calibrator has learned, once the driver has scanned:
/// the first one it took when its chunks drove at two element types.
fn decision(adaptive: &Calibrators) -> Option<AdaptiveDecision> {
    let (_, state) = adaptive.first()?;
    Some(AdaptiveDecision::of(&lock_plain(state)))
}

/// Per-statement scan: the WHERE clause compiled into a tree whose root
/// drives (a conjunctive chain is a lone driver), shared by every chunk
/// the statement scans.
struct StatementScan<'a> {
    /// The scan subtree the tree was compiled from.
    plan: &'a Lqp,
    table: &'a str,
    entry: &'a CatalogEntry,
    root: TreeNode<'a>,
}

impl<'a> StatementScan<'a> {
    /// Resolve the scan subtree and compile its WHERE clause.
    fn build(plan: &'a Lqp) -> Result<Self, ExecError> {
        let (table, entry, clause) = scan_root(plan)?;
        let root = match clause {
            Where::Chain(preds) => TreeNode::driver(Cow::Borrowed(preds)),
            Where::Tree(expr) => TreeNode::compile(expr, true)?,
        };
        Ok(StatementScan {
            plan,
            table,
            entry,
            root,
        })
    }

    /// Whether min/max pruning proves this chunk cannot produce matches.
    fn prune(&self, chunk_idx: usize) -> bool {
        !self.root.can_match(self.entry, chunk_idx)
    }

    /// Evaluate the WHERE clause over one chunk.
    fn scan(
        &mut self,
        chunk_idx: usize,
        chunk: &Chunk,
        ctx: &ExecContext,
        mode: OutputMode,
        analyze: Option<&mut AnalyzeReport>,
    ) -> Result<ScanOutput, ExecError> {
        let at = At {
            table: self.table,
            entry: self.entry,
            chunk_idx,
            chunk,
            ctx,
        };
        self.root.scan(&at, mode, None, analyze)
    }

    /// Record the statement's adaptive decisions and per-node statistics
    /// into an `EXPLAIN ANALYZE` report.
    fn finish(&self, analyze: Option<&mut AnalyzeReport>) {
        let Some(report) = analyze else { return };
        let mut nodes = Vec::new();
        match &self.root.op {
            TreeOp::Drive { adaptive, .. } => {
                report.adaptive = decision(adaptive);
                return;
            }
            TreeOp::And(cs) | TreeOp::Or(cs) => {
                cs.iter().for_each(|c| c.report_into(0, &mut nodes))
            }
            TreeOp::Column { .. } => {}
        }
        let prefix = match (&self.root.op, nodes.first()) {
            (TreeOp::And(_), Some(first)) if first.drives => Some(nodes.remove(0)),
            _ => None,
        };
        report.bool_scan = Some(BoolScanReport {
            prefix,
            disjuncts: nodes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::lqp::plan;
    use crate::optimizer::optimize;
    use crate::parser::parse;
    use fts_storage::{Column, ColumnDef, Table};

    fn make_ctx(jit: JitMode) -> ExecContext {
        ExecContext {
            jit,
            ..Default::default()
        }
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = Table::from_chunked_columns(
            vec![
                ColumnDef::new("a", DataType::U32),
                ColumnDef::new("b", DataType::U32),
                ColumnDef::new("big", DataType::I64),
                ColumnDef::new("f", DataType::F32),
            ],
            vec![
                Column::from_fn(1000, |i| (i % 10) as u32),
                Column::from_fn(1000, |i| (i % 4) as u32),
                Column::from_fn(1000, |i| i as i64 - 500),
                Column::from_fn(1000, |i| (i % 8) as f32),
            ],
            256, // multiple chunks
        )
        .unwrap();
        cat.register("t", t.clone());
        cat.register("t_dict", t.with_dictionary_encoding(&[0, 2]).unwrap());
        cat
    }

    fn run(sql: &str, jit: JitMode) -> QueryResult {
        let cat = catalog();
        let ctx = make_ctx(jit);
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        execute(&p, &ctx).unwrap()
    }

    fn expected_count(f: impl Fn(usize) -> bool) -> u64 {
        (0..1000).filter(|&i| f(i)).count() as u64
    }

    #[test]
    fn count_star_paper_query() {
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        assert!(expected > 0, "test data must produce matches");
        for jit in [JitMode::Off, JitMode::On] {
            let r = run("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1", jit);
            assert_eq!(r, QueryResult::Count(expected), "{jit:?}");
        }
    }

    #[test]
    fn count_without_where() {
        assert_eq!(
            run("SELECT COUNT(*) FROM t", JitMode::Off),
            QueryResult::Count(1000)
        );
    }

    #[test]
    fn dictionary_segments_scan_as_value_ids() {
        // Column `a` and `big` are dictionary-encoded in t_dict.
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        let r = run(
            "SELECT COUNT(*) FROM t_dict WHERE a = 5 AND b = 1",
            JitMode::On,
        );
        assert_eq!(r, QueryResult::Count(expected));

        // Range predicate over a dict-encoded i64 column → u32 id range.
        let expected = expected_count(|i| (i as i64 - 500) >= 250);
        let r = run("SELECT COUNT(*) FROM t_dict WHERE big >= 250", JitMode::On);
        assert_eq!(r, QueryResult::Count(expected));

        // Literal not in the dictionary: Ne matches everything.
        let r = run(
            "SELECT COUNT(*) FROM t_dict WHERE big <> 123456",
            JitMode::Off,
        );
        assert_eq!(r, QueryResult::Count(1000));
    }

    #[test]
    fn bitpacked_segments_scan_via_packed_kernel() {
        let cat = catalog();
        let base = cat.get("t").unwrap().table.as_ref().clone();
        let packed = base.with_bitpacking(&[0, 1]).unwrap();
        let mut cat2 = Catalog::new();
        cat2.register("tp", packed);
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM tp WHERE a = 5 AND b = 1").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));

        // Mixed: packed driver + plain follow-up + dynamic i64 predicate.
        let expected = expected_count(|i| i % 10 == 5 && (i as i64 - 500) < 0);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM tp WHERE a = 5 AND big < 0").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));
    }

    #[test]
    fn packed_chains_use_the_packed_jit_cache() {
        if !packed_kernel_available() {
            eprintln!("skipping: no AVX-512 VBMI2");
            return;
        }
        let cat = catalog();
        let base = cat.get("t").unwrap().table.as_ref().clone();
        let packed = base.with_bitpacking(&[0, 1]).unwrap();
        let mut cat2 = Catalog::new();
        cat2.register("tp", packed);
        let ctx = make_ctx(JitMode::On);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM tp WHERE a = 5 AND b = 1").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));
        assert!(
            !ctx.packed_kernels.is_empty(),
            "packed JIT kernel must be compiled"
        );
        // Re-running hits the cache, same result.
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));
        assert_eq!(ctx.packed_kernels.len(), 1);
    }

    #[test]
    fn packed_kernel_cache_activity_reaches_explain_analyze() {
        if !packed_kernel_available() {
            eprintln!("skipping: no AVX-512 VBMI2");
            return;
        }
        let cat = catalog();
        let base = cat.get("t").unwrap().table.as_ref().clone();
        let mut cat2 = Catalog::new();
        cat2.register("tp", base.with_bitpacking(&[0, 1]).unwrap());
        let ctx = make_ctx(JitMode::On);
        let sql = "SELECT COUNT(*) FROM tp WHERE a = 5 AND b = 1";
        let p = optimize(plan(&parse(sql).unwrap(), &cat2).unwrap());
        let (_, first) = execute_analyzed(&p, &ctx).unwrap();
        assert_eq!(first.jit_misses, 1, "one packed kernel compiled");
        assert_eq!(first.jit_hits, 3, "the other three chunks hit it");
        assert!(first.jit_compile_time > Duration::ZERO);
        let (_, second) = execute_analyzed(&p, &ctx).unwrap();
        assert_eq!((second.jit_hits, second.jit_misses), (4, 0));
        assert_eq!(ctx.packed_kernels.stats().misses, 1);
        assert!(ctx.packed_kernels.len() <= ctx.packed_kernels.capacity());
    }

    #[test]
    fn for_and_bytesliced_segments_scan_fused() {
        let cat = catalog();
        let base = cat.get("t").unwrap().table.as_ref().clone();
        let mut cat2 = Catalog::new();
        cat2.register("tf", base.with_for_encoding(&[0]).unwrap());
        cat2.register("tb", base.with_byte_slicing(&[1]).unwrap());
        cat2.register(
            "tfb",
            base.with_for_encoding(&[0])
                .unwrap()
                .with_byte_slicing(&[1])
                .unwrap(),
        );
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        for jit in [JitMode::Off, JitMode::On] {
            let ctx = make_ctx(jit);
            // FoR driver + plain follow-up: one fused FoR chain.
            // Plain driver + byte-sliced predicate: two groups intersect.
            // FoR + byte-sliced: both compressed layouts in one statement.
            for table in ["tf", "tb", "tfb"] {
                let sql = format!("SELECT COUNT(*) FROM {table} WHERE a = 5 AND b = 1");
                let p = optimize(plan(&parse(&sql).unwrap(), &cat2).unwrap());
                assert_eq!(
                    execute(&p, &ctx).unwrap(),
                    QueryResult::Count(expected),
                    "{table} {jit:?}"
                );
            }
        }
        // Compressed layout + dynamic i64 predicate (phase 2).
        let expected = expected_count(|i| i % 10 == 5 && (i as i64 - 500) < 0);
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM tfb WHERE a = 5 AND big < 0").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(expected));
        // Positions path: projection over a FoR-encoded filter column.
        let p = optimize(
            plan(
                &parse("SELECT a, b FROM tfb WHERE a = 5 AND b = 1 LIMIT 4").unwrap(),
                &cat2,
            )
            .unwrap(),
        );
        let QueryResult::Rows { rows, .. } = execute(&p, &ctx).unwrap() else {
            panic!("rows expected")
        };
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row[0], Value::U32(5));
            assert_eq!(row[1], Value::U32(1));
        }
    }

    #[test]
    fn mixed_u32_and_dynamic_chain() {
        let expected = expected_count(|i| i % 10 == 5 && (i as i64 - 500) < 0);
        let r = run(
            "SELECT COUNT(*) FROM t WHERE a = 5 AND big < 0",
            JitMode::On,
        );
        assert_eq!(r, QueryResult::Count(expected));
    }

    #[test]
    fn homogeneous_i64_chain_uses_typed_kernel() {
        let expected = expected_count(|i| (i as i64 - 500) >= -100 && (i as i64 - 500) < 100);
        let r = run(
            "SELECT COUNT(*) FROM t WHERE big >= -100 AND big < 100",
            JitMode::Off,
        );
        assert_eq!(r, QueryResult::Count(expected));
    }

    #[test]
    fn homogeneous_f32_chain_uses_typed_kernel() {
        let expected = expected_count(|i| (i % 8) as f32 >= 2.0 && ((i % 8) as f32) < 6.0);
        let r = run(
            "SELECT COUNT(*) FROM t WHERE f >= 2.0 AND f < 6.0",
            JitMode::Off,
        );
        assert_eq!(r, QueryResult::Count(expected));
    }

    #[test]
    fn projection_and_limit() {
        let r = run(
            "SELECT a, big FROM t WHERE a = 5 AND b = 1 LIMIT 3",
            JitMode::On,
        );
        let QueryResult::Rows { columns, rows } = r else {
            panic!("{r:?}")
        };
        assert_eq!(columns, vec!["a", "big"]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row[0], Value::U32(5));
        }
        // First matching row is i=25 (i%10==5, i%4==1? no…) — verify against
        // the generator directly instead of hand-computing.
        let first = (0..1000).find(|&i| i % 10 == 5 && i % 4 == 1).unwrap();
        assert_eq!(rows[0][1], Value::I64(first as i64 - 500));
    }

    #[test]
    fn select_star() {
        let r = run(
            "SELECT * FROM t WHERE a = 5 AND b = 1 LIMIT 2",
            JitMode::Off,
        );
        let QueryResult::Rows { columns, rows } = r else {
            panic!()
        };
        assert_eq!(columns, vec!["a", "b", "big", "f"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn jit_and_static_agree_across_operators() {
        for op in ["=", "<>", "<", "<=", ">", ">="] {
            let sql = format!("SELECT COUNT(*) FROM t WHERE a {op} 5 AND b {op} 2");
            let a = run(&sql, JitMode::Off);
            let b = run(&sql, JitMode::On);
            assert_eq!(a, b, "{op}");
        }
    }

    #[test]
    fn aggregate_functions() {
        // SUM/MIN/MAX/AVG over the rows matching a = 5 (big = i - 500).
        let matching: Vec<i64> = (0..1000)
            .filter(|i| i % 10 == 5)
            .map(|i| i as i64 - 500)
            .collect();
        let r = run(
            "SELECT COUNT(*), SUM(big), MIN(big), MAX(big), AVG(big) FROM t WHERE a = 5",
            JitMode::On,
        );
        let QueryResult::Rows { columns, rows } = r else {
            panic!("{r:?}")
        };
        assert_eq!(
            columns,
            vec!["count(*)", "sum(big)", "min(big)", "max(big)", "avg(big)"]
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::U64(matching.len() as u64));
        assert_eq!(rows[0][1], Value::I64(matching.iter().sum()));
        assert_eq!(rows[0][2], Value::I64(*matching.iter().min().unwrap()));
        assert_eq!(rows[0][3], Value::I64(*matching.iter().max().unwrap()));
        let avg = matching.iter().sum::<i64>() as f64 / matching.len() as f64;
        assert_eq!(rows[0][4], Value::F64(avg));
    }

    #[test]
    fn float_aggregates_and_empty_input() {
        let r = run(
            "SELECT SUM(f), AVG(f) FROM t WHERE a = 5 AND b = 1",
            JitMode::Off,
        );
        let QueryResult::Rows { rows, .. } = r else {
            panic!()
        };
        let expected_sum: f64 = (0..1000)
            .filter(|i| i % 10 == 5 && i % 4 == 1)
            .map(|i| (i % 8) as f64)
            .sum();
        assert_eq!(rows[0][0], Value::F64(expected_sum));

        // Nothing matches: SUM = 0, AVG = 0, MIN/MAX fall back to 0.
        let r = run(
            "SELECT SUM(big), AVG(big), MIN(big) FROM t WHERE a = 5 AND a = 6",
            JitMode::Off,
        );
        let QueryResult::Rows { rows, .. } = r else {
            panic!()
        };
        assert_eq!(rows[0][0], Value::I64(0));
        assert_eq!(rows[0][1], Value::F64(0.0));
        assert_eq!(rows[0][2], Value::I64(0));
    }

    #[test]
    fn chains_longer_than_one_kernel_split_and_intersect() {
        // 10 predicates exceed MAX_PREDICATES (8): the executor must split.
        let mut cat = Catalog::new();
        let cols: Vec<Column> = (0..10)
            .map(|c| Column::from_fn(500, move |i| ((i as u32).wrapping_mul(c + 3)) % 3))
            .collect();
        let schema = (0..10)
            .map(|c| ColumnDef::new(format!("c{c}"), DataType::U32))
            .collect();
        cat.register("wide", Table::from_columns(schema, cols.clone()).unwrap());
        let sql = format!(
            "SELECT COUNT(*) FROM wide WHERE {}",
            (0..10)
                .map(|c| format!("c{c} = 0"))
                .collect::<Vec<_>>()
                .join(" AND ")
        );
        let expected = (0..500usize)
            .filter(|&i| (0..10u32).all(|c| (i as u32).wrapping_mul(c + 3).is_multiple_of(3)))
            .count() as u64;
        for jit in [JitMode::Off, JitMode::On] {
            let ctx = make_ctx(jit);
            let p = optimize(plan(&parse(&sql).unwrap(), &cat).unwrap());
            assert_eq!(
                execute(&p, &ctx).unwrap(),
                QueryResult::Count(expected),
                "{jit:?}"
            );
        }
    }

    #[test]
    fn chunk_pruning_skips_impossible_chunks() {
        // A sorted column chunked into 4: each chunk covers a disjoint
        // range, so an equality hits exactly one chunk.
        let mut cat = Catalog::new();
        cat.register(
            "sorted",
            Table::from_chunked_columns(
                vec![
                    ColumnDef::new("k", DataType::U32),
                    ColumnDef::new("v", DataType::U32),
                ],
                vec![
                    Column::from_fn(1000, |i| i as u32),
                    Column::from_fn(1000, |i| (i % 7) as u32),
                ],
                250,
            )
            .unwrap(),
        );
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM sorted WHERE k = 600 AND v < 7").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(1));
        assert_eq!(
            ctx.chunks_pruned.load(Ordering::Relaxed),
            3,
            "3 of 4 chunks pruned"
        );
        assert_eq!(ctx.chunks_scanned.load(Ordering::Relaxed), 1);

        // Range predicate prunes the low chunks only.
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM sorted WHERE k >= 750").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(250));
        assert_eq!(ctx.chunks_pruned.load(Ordering::Relaxed), 3);

        // Ne never prunes (f64-rounding conservatism).
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM sorted WHERE k <> 5").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        assert_eq!(execute(&p, &ctx).unwrap(), QueryResult::Count(999));
        assert_eq!(ctx.chunks_pruned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn range_can_match_is_conservative() {
        let r = Some((10.0, 20.0));
        assert!(range_can_match(r, CmpOp::Eq, Value::U32(10)));
        assert!(range_can_match(r, CmpOp::Eq, Value::U32(20)));
        assert!(!range_can_match(r, CmpOp::Eq, Value::U32(9)));
        assert!(!range_can_match(r, CmpOp::Eq, Value::U32(21)));
        // Strict compares stay conservative at the exact boundary (f64
        // rounding of 64-bit values makes boundary pruning unsound).
        assert!(range_can_match(r, CmpOp::Lt, Value::U32(10)));
        assert!(!range_can_match(r, CmpOp::Lt, Value::U32(9)));
        assert!(range_can_match(r, CmpOp::Le, Value::U32(10)));
        assert!(range_can_match(r, CmpOp::Gt, Value::U32(20)));
        assert!(!range_can_match(r, CmpOp::Gt, Value::U32(21)));
        assert!(range_can_match(r, CmpOp::Ge, Value::U32(20)));
        assert!(
            range_can_match(r, CmpOp::Ne, Value::U32(15)),
            "Ne never prunes"
        );
        assert!(
            !range_can_match(None, CmpOp::Eq, Value::U32(1)),
            "empty chunk"
        );
    }

    #[test]
    fn explain_analyze_reports_full_scan_telemetry() {
        let cat = catalog();
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        for jit in [JitMode::Off, JitMode::On] {
            let ctx = make_ctx(jit);
            let p = optimize(
                plan(
                    &parse("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1").unwrap(),
                    &cat,
                )
                .unwrap(),
            );
            let (result, report) = execute_analyzed(&p, &ctx).unwrap();
            assert_eq!(result, QueryResult::Count(expected), "{jit:?}");
            assert!(report.scan.enabled, "{jit:?}");
            assert_eq!(report.scan.rows, 1000, "{jit:?}: all 4 chunks scanned");
            assert_eq!(report.chunks_scanned, 4, "{jit:?}");
            assert_eq!(report.chunks_pruned, 0, "{jit:?}");
            assert_eq!(report.scan.predicates, 2, "{jit:?}");
            // Chain survivors across all chunks equal the query's count.
            assert_eq!(
                *report.scan.pred_survivors.last().unwrap(),
                expected,
                "{jit:?}"
            );
            assert!(report
                .scan
                .selectivities()
                .iter()
                .all(|s| (0.0..=1.0).contains(s)));
            let text = report.render(10.0);
            assert!(text.contains("Scan ["), "{text}");
            assert!(text.contains("chunks: scanned=4"), "{text}");
            assert!(text.contains("-bound"), "{text}");
            if jit == JitMode::On && avx512_enabled() {
                assert!(
                    report.jit_hits + report.jit_misses > 0,
                    "JIT cache was exercised"
                );
                assert!(text.contains("jit:"), "{text}");
            }
        }
    }

    #[test]
    fn explain_analyze_counts_phase2_rows() {
        let cat = catalog();
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM t WHERE a = 5 AND big < 0").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let (result, report) = execute_analyzed(&p, &ctx).unwrap();
        let expected = expected_count(|i| i % 10 == 5 && (i as i64 - 500) < 0);
        assert_eq!(result, QueryResult::Count(expected));
        // `big < 0` prunes the two chunks whose min is ≥ 0 (rows 512..1000),
        // so phase 1 (a = 5) passes only the surviving chunks' positions to
        // the survivor filter.
        assert_eq!(report.chunks_pruned, 2);
        assert_eq!(
            report.phase2_rows_in,
            expected_count(|i| i < 512 && i % 10 == 5)
        );
        assert_eq!(report.phase2_rows_out, expected);
        let text = report.render(10.0);
        assert!(text.contains("phase 2"), "{text}");
    }

    #[test]
    fn explain_analyze_covers_typed_and_untracked_paths() {
        // Homogeneous i64 chain: telemetry comes from the typed fused scan.
        let cat = catalog();
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM t WHERE big >= -100 AND big < 100").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        let (result, report) = execute_analyzed(&p, &ctx).unwrap();
        let expected = expected_count(|i| (i as i64 - 500) >= -100 && (i as i64 - 500) < 100);
        assert_eq!(result, QueryResult::Count(expected));
        assert!(report.scan.enabled);
        // The range chain prunes the lowest and highest chunk; the two
        // middle chunks (rows 256..768) are scanned.
        assert_eq!(report.chunks_pruned, 2);
        assert_eq!(report.scan.rows, 512);
        assert_eq!(*report.scan.pred_survivors.last().unwrap(), expected);

        // Analyzed and plain execution agree on results.
        let plain = execute(&p, &ctx).unwrap();
        assert_eq!(plain, result);
    }

    /// A table with enough chunks that calibration (3 probe morsels by
    /// default) converges and steady state covers most of the scan.
    fn many_chunk_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let t = Table::from_chunked_columns(
            vec![
                ColumnDef::new("a", DataType::U32),
                ColumnDef::new("b", DataType::U32),
            ],
            vec![
                Column::from_fn(20_480, |i| (i % 10) as u32),
                Column::from_fn(20_480, |i| (i % 4) as u32),
            ],
            512, // 40 chunks
        )
        .unwrap();
        cat.register("big", t);
        cat
    }

    #[test]
    fn adaptive_selector_converges_and_matches_static() {
        let cat = many_chunk_catalog();
        let expected = (0..20_480).filter(|i| i % 10 == 5 && i % 4 == 1).count() as u64;
        let sql = "SELECT COUNT(*) FROM big WHERE a = 5 AND b = 1";
        for jit in [JitMode::Off, JitMode::On] {
            let ctx = make_ctx(jit);
            let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
            let (result, report) = execute_analyzed(&p, &ctx).unwrap();
            assert_eq!(result, QueryResult::Count(expected), "{jit:?}");
            let a = report.adaptive.as_ref().expect("u32 chain is covered");
            assert!(a.winner.is_some(), "{jit:?}: 40 chunks must converge");
            // Every probed candidate was actually timed.
            assert!(!a.probed.is_empty());
            for &(name, morsels, _) in &a.probed {
                assert!(morsels >= 1, "{jit:?}: {name} never probed");
            }
            // Observed chain selectivity: i ≡ 5 (mod 20) → 1 in 20 rows.
            assert!((a.observed_selectivity - 0.05).abs() < 1e-6, "{jit:?}");
            let text = report.render(10.0);
            assert!(text.contains("adaptive: winner="), "{text}");
            assert!(text.contains("values/µs"), "{text}");
        }
    }

    #[test]
    fn adaptive_projection_agrees_with_static_rows() {
        let cat = many_chunk_catalog();
        let sql = "SELECT a, b FROM big WHERE a >= 5 AND b = 1";
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        // Position order, whichever kernel each chunk ran.
        let expected: Vec<Vec<Value>> = (0..20_480u32)
            .filter(|i| i % 10 >= 5 && i % 4 == 1)
            .map(|i| vec![Value::U32(i % 10), Value::U32(1)])
            .collect();
        for jit in [JitMode::Off, JitMode::On] {
            let QueryResult::Rows { rows, .. } = execute(&p, &make_ctx(jit)).unwrap() else {
                panic!("a projection returns rows");
            };
            assert_eq!(rows, expected, "{jit:?}");
        }
    }

    /// The calibrator probes the JIT kernel where it runs, then the static
    /// kernels in their fixed preference order — also for an all-true
    /// chain, where every kernel reads every column of every row.
    #[test]
    fn calibration_probes_the_preference_order() {
        let mut cat = Catalog::new();
        let t = Table::from_chunked_columns(
            ["a", "b", "c", "d"]
                .iter()
                .map(|c| ColumnDef::new(*c, DataType::U32))
                .collect(),
            (1..=4u32)
                .map(|k| Column::from_fn(2048, move |i| (i as u32 * k) % 100))
                .collect(),
            512, // 4 chunks: three probes and a steady one
        )
        .unwrap();
        cat.register("t4", t);
        let sql = "SELECT COUNT(*) FROM t4 WHERE a < 100 AND b < 100 AND c <= 99 AND d >= 0";
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        for jit in [JitMode::Off, JitMode::On] {
            let expected: &[&str] = match (fts_simd::detect(), jit) {
                (SimdLevel::Avx512, JitMode::On) => &[
                    "jit-avx512(w512)",
                    "AVX-512 Fused (512)",
                    "AVX-512 Fused (256)",
                ],
                (SimdLevel::Avx512, JitMode::Off) => &[
                    "AVX-512 Fused (512)",
                    "AVX-512 Fused (256)",
                    "AVX2 Fused (128)",
                ],
                (SimdLevel::Avx2, _) => &["AVX2 Fused (128)", "SISD (auto vec)", "SISD (no vec)"],
                (SimdLevel::Scalar, _) => &["SISD (auto vec)", "SISD (no vec)"],
            };
            let (result, report) = execute_analyzed(&p, &make_ctx(jit)).unwrap();
            assert_eq!(result, QueryResult::Count(2048), "{jit:?}");
            let a = report.adaptive.expect("a u32 chain calibrates");
            let probed: Vec<&str> = a.probed.iter().map(|c| c.0).collect();
            assert_eq!(probed, expected, "{jit:?}");
            assert!(a.probed.iter().all(|c| c.1 == 1), "{jit:?}: {a:?}");
            assert!(a.winner.is_some(), "{jit:?}");
        }
    }

    /// A plain chain at a 64-bit type calibrates as a `u32` one does: the
    /// JIT kernel where it runs the chain, then the leading static kernels
    /// for the type. Here an `i64` same-column range and an `f64` chain
    /// over columns with NaN rows, whose counts match a row walk.
    #[test]
    fn typed_chains_calibrate() {
        let x: Vec<i64> = (0..2048).map(|i| (i * 7919) % 1000 - 500).collect();
        let nan_every = |k: usize, f: fn(usize) -> f64| {
            move |i: usize| if i.is_multiple_of(k) { f64::NAN } else { f(i) }
        };
        let y: Vec<f64> = (0..2048)
            .map(nan_every(7, |i| (i % 40) as f64 * 0.5))
            .collect();
        let z: Vec<f64> = (0..2048).map(nan_every(5, |i| (i % 9) as f64)).collect();
        let cat = chunked_catalog(
            vec![
                ("x", Column::from_vec(x.clone())),
                ("y", Column::from_vec(y.clone())),
                ("z", Column::from_vec(z.clone())),
            ],
            512, // 4 chunks: three probes and a steady one
        );
        let walk = |keep: &dyn Fn(usize) -> bool| (0..2048).filter(|&i| keep(i)).count() as u64;
        let cases = [
            (
                "SELECT COUNT(*) FROM v WHERE x >= -200 AND x < 300",
                walk(&|i| x[i] >= -200 && x[i] < 300),
            ),
            (
                "SELECT COUNT(*) FROM v WHERE y <> 4.5 AND z < 6.0",
                walk(&|i| y[i].cmp_op(CmpOp::Ne, 4.5) && z[i].cmp_op(CmpOp::Lt, 6.0)),
            ),
        ];
        for (sql, want) in cases {
            let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
            for jit in [JitMode::Off, JitMode::On] {
                let expected: &[&str] = match (fts_simd::detect(), jit) {
                    (SimdLevel::Avx512, JitMode::On) => {
                        &["jit-avx512(w512)", "AVX-512 Fused (512)", "SISD (auto vec)"]
                    }
                    (SimdLevel::Avx512, JitMode::Off) => {
                        &["AVX-512 Fused (512)", "SISD (auto vec)", "SISD (no vec)"]
                    }
                    (SimdLevel::Avx2 | SimdLevel::Scalar, _) => {
                        &["SISD (auto vec)", "SISD (no vec)"]
                    }
                };
                let (result, report) = execute_analyzed(&p, &make_ctx(jit)).unwrap();
                assert_eq!(result, QueryResult::Count(want), "{sql} {jit:?}");
                assert_eq!(
                    report.scan.pred_survivors.last(),
                    Some(&want),
                    "{sql} {jit:?}"
                );
                let a = report.adaptive.expect("a typed chain calibrates");
                let probed: Vec<&str> = a.probed.iter().map(|c| c.0).collect();
                assert_eq!(probed, expected, "{sql} {jit:?}");
                assert!(a.probed.iter().all(|c| c.1 == 1), "{sql} {jit:?}: {a:?}");
                assert!(a.winner.is_some(), "{sql} {jit:?}");
            }
        }
    }

    /// A column the layout advisor left plain in some chunks and
    /// dictionary-encoded in others drives at `i64` in the first and at
    /// `u32` ids in the second, and each type calibrates among kernels it
    /// runs: the statements answer as over the all-plain table, through
    /// calibration and in steady state.
    #[test]
    fn a_column_whose_chunks_differ_in_layout() {
        // Ascending values: a range above chunk 0's prunes it, so the
        // chain's first scanned chunk is dictionary-encoded.
        let x = Column::from_fn(2048, |i| i as i64 * 3 - 1000 + (i as i64 * 7) % 5);
        let schema = vec![ColumnDef::new("x", DataType::I64)];
        let plain = Table::from_chunked_columns(schema, vec![x], 512).unwrap();
        let mut mixed = plain.clone();
        for chunk in [1, 3] {
            let encoded = mixed
                .reencode_chunk_column(chunk, 0, fts_storage::Layout::Dict)
                .unwrap();
            mixed = mixed.with_chunk_replaced(chunk, encoded);
        }
        assert!(matches!(mixed.chunks()[1].segment(0), Segment::Dict(_)));
        assert!(matches!(mixed.chunks()[2].segment(0), Segment::Plain(_)));
        for jit in [JitMode::Off, JitMode::On] {
            let engine = crate::engine::Engine::with_jit(jit);
            engine.register("plain", plain.clone());
            engine.register("mixed", mixed.clone());
            for where_ in ["x >= -900 AND x < 5000", "x >= 1000 AND x < 5500"] {
                for _ in 0..3 {
                    for select in ["COUNT(*)", "SUM(x), COUNT(*)"] {
                        let sql = |t: &str| format!("SELECT {select} FROM {t} WHERE {where_}");
                        let want = engine.query(&sql("plain")).unwrap();
                        let got = engine.query(&sql("mixed"));
                        assert_eq!(got, Ok(want), "{} {jit:?}", sql("mixed"));
                    }
                }
                let sql = format!("SELECT COUNT(*) FROM mixed WHERE {where_}");
                let (_, report) = engine.query_analyzed(&sql).unwrap();
                let a = report.adaptive.expect("the chain calibrates");
                assert!(a.winner.is_some(), "{sql} {jit:?}: {a:?}");
            }
        }
    }

    /// EXPLAIN ANALYZE's scan line names every kernel the chunks ran, each
    /// with its chunk count: a calibrating statement runs each probe
    /// candidate on chunks of its own.
    #[test]
    fn explain_analyze_names_every_kernel_that_ran() {
        let cat = many_chunk_catalog();
        let sql = "SELECT COUNT(*) FROM big WHERE a = 5 AND b = 1";
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        for jit in [JitMode::Off, JitMode::On] {
            let (_, report) = execute_analyzed(&p, &make_ctx(jit)).unwrap();
            let a = report.adaptive.as_ref().expect("a u32 chain calibrates");
            let probed: Vec<&str> = a.probed.iter().map(|c| c.0).collect();
            let ran: Vec<&str> = report.scan.kernels.iter().map(|k| k.0).collect();
            assert!(probed.len() >= 2, "{jit:?}: {probed:?}");
            assert_eq!(ran, probed, "{jit:?}: first-run order is probe order");
            let chunks: u64 = report.scan.kernels.iter().map(|k| k.1).sum();
            assert_eq!(chunks, report.chunks_scanned, "{jit:?}");
            let text = report.render(10.0);
            let line = text.lines().find(|l| l.starts_with("Scan [")).unwrap();
            for (name, n) in &report.scan.kernels {
                assert!(line.contains(&format!("{name}×{n}")), "{line}");
            }
        }
    }

    /// A statement whose every chunk min/max pruning skips registers no
    /// calibrator and reports no decision, for a chain and a tree's driver.
    #[test]
    fn a_fully_pruned_statement_registers_no_calibrator() {
        let cat = many_chunk_catalog();
        let ctx = make_ctx(JitMode::On);
        for sql in [
            "SELECT COUNT(*) FROM big WHERE a > 50 AND b = 1",
            "SELECT COUNT(*) FROM big WHERE b = 1 AND (a > 50 OR a > 60)",
        ] {
            let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
            let (result, report) = execute_analyzed(&p, &ctx).unwrap();
            assert_eq!(result, QueryResult::Count(0), "{sql}");
            assert_eq!((report.chunks_scanned, report.chunks_pruned), (0, 40));
            assert_eq!(ctx.calibration.len(), 0, "{sql}");
            assert!(report.adaptive.is_none(), "{sql}");
            let prefix = report.bool_scan.as_ref().and_then(|b| b.prefix.as_ref());
            assert!(prefix.is_none_or(|d| d.adaptive.is_none()), "{sql}");
            let text = report.render(10.0);
            assert!(!text.contains("winner="), "{text}");
        }
        // The first scanned chunk registers the chain.
        let p = optimize(
            plan(
                &parse("SELECT COUNT(*) FROM big WHERE a = 5 AND b = 1").unwrap(),
                &cat,
            )
            .unwrap(),
        );
        execute(&p, &ctx).unwrap();
        assert_eq!(ctx.calibration.len(), 1);
    }

    #[test]
    fn adaptive_steady_state_does_not_thrash_the_jit_cache() {
        if !avx512_enabled() {
            eprintln!("skipping: no AVX-512");
            return;
        }
        let cat = many_chunk_catalog();
        let sql = "SELECT COUNT(*) FROM big WHERE a = 5 AND b = 1";
        let ctx = make_ctx(JitMode::On);
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        let (_, first) = execute_analyzed(&p, &ctx).unwrap();
        // First statement may compile kernels (each candidate at most once
        // per chain signature); re-running the same statement must be all
        // cache hits — calibration never thrashes compilation.
        assert!(first.jit_misses <= 2, "count-mode chain: {first:?}");
        let (_, second) = execute_analyzed(&p, &ctx).unwrap();
        assert_eq!(second.jit_misses, 0, "steady state recompiled: {second:?}");
        assert_eq!(second.jit_evictions, 0);
    }

    #[test]
    fn calibrated_chain_and_partial_driver_share_one_jit_kernel() {
        if !avx512_enabled() {
            eprintln!("skipping: no AVX-512");
            return;
        }
        // The first statement calibrates `a = 1 AND b = 1` (the JIT kernel
        // is probed first, so chunk 0 compiles it); the second runs the same
        // u32 group as the partial driver of a longer chain. Both need the
        // identical kernel, so it compiles once.
        let cat = catalog();
        let ctx = make_ctx(JitMode::On);
        let run = |sql: &str| {
            let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
            execute(&p, &ctx).unwrap()
        };
        let whole = run("SELECT SUM(big) FROM t WHERE a = 1 AND b = 1");
        let partial = run("SELECT SUM(big) FROM t WHERE a = 1 AND b = 1 AND big >= -500");
        assert_eq!(whole, partial);
        assert_eq!(ctx.kernels.stats().misses, 1, "{:?}", ctx.kernels.stats());
    }

    fn bound(column: usize, op: CmpOp, value: Value, selectivity: f64) -> BoundPred {
        BoundPred {
            column,
            column_name: format!("c{column}"),
            op,
            value,
            selectivity,
        }
    }

    #[test]
    fn range_halves_combine_into_one_estimate() {
        // partkey BETWEEN …: halves at 0.33 and 0.73 are one 0.06 range,
        // not a 0.24 product.
        let lo = bound(3, CmpOp::Ge, Value::U32(1_333_704), 0.33);
        let hi = bound(3, CmpOp::Le, Value::U32(1_453_703), 0.73);
        let sel = conjunction_selectivity([&lo, &hi].into_iter());
        assert!((sel - 0.06).abs() < 1e-9, "{sel}");
        // Other columns and equalities still multiply; the tightest bound
        // on each side wins; a disjoint range estimates to zero.
        let other = bound(1, CmpOp::Lt, Value::U32(3), 0.5);
        let eq = bound(3, CmpOp::Eq, Value::U32(7), 0.1);
        let tighter = bound(3, CmpOp::Gt, Value::U32(1_400_000), 0.3);
        let sel = conjunction_selectivity([&lo, &hi, &other, &eq, &tighter].into_iter());
        assert!((sel - 0.03 * 0.5 * 0.1).abs() < 1e-9, "{sel}");
        let disjoint = bound(3, CmpOp::Lt, Value::U32(5), 0.2);
        assert_eq!(conjunction_selectivity([&lo, &disjoint].into_iter()), 0.0);
    }

    /// One chunk with a column per (layout, type) the translator sees.
    fn every_layout_chunk() -> (Table, Vec<BoundPred>) {
        let n = 300;
        let u32s = |i: usize| (i % 17) as u32;
        let t = Table::from_columns(
            vec![
                ColumnDef::new("plain", DataType::U32),
                ColumnDef::new("dict", DataType::U32),
                ColumnDef::new("packed", DataType::U32),
                ColumnDef::new("for", DataType::U32),
                ColumnDef::new("bs", DataType::U32),
                ColumnDef::new("i32", DataType::I32),
                ColumnDef::new("f32", DataType::F32),
                ColumnDef::new("u64", DataType::U64),
                ColumnDef::new("i64", DataType::I64),
                ColumnDef::new("f64", DataType::F64),
                ColumnDef::new("u8", DataType::U8),
                ColumnDef::new("u16", DataType::U16),
                ColumnDef::new("i8", DataType::I8),
                ColumnDef::new("i16", DataType::I16),
            ],
            vec![
                Column::from_fn(n, u32s),
                Column::from_fn(n, u32s),
                Column::from_fn(n, u32s),
                Column::from_fn(n, u32s),
                Column::from_fn(n, u32s),
                Column::from_fn(n, |i| i as i32 % 17),
                Column::from_fn(n, |i| (i % 17) as f32),
                Column::from_fn(n, |i| (i % 17) as u64),
                Column::from_fn(n, |i| i as i64 % 17),
                Column::from_fn(n, |i| (i % 17) as f64),
                Column::from_fn(n, |i| (i % 17) as u8),
                Column::from_fn(n, |i| (i % 17) as u16),
                Column::from_fn(n, |i| (i % 17) as i8),
                Column::from_fn(n, |i| (i % 17) as i16),
            ],
        )
        .unwrap()
        .with_dictionary_encoding(&[1])
        .unwrap()
        .with_bitpacking(&[2])
        .unwrap()
        .with_for_encoding(&[3])
        .unwrap()
        .with_byte_slicing(&[4])
        .unwrap();
        let preds = t
            .schema()
            .iter()
            .enumerate()
            .map(|(c, def)| {
                let v = Value::U32(5).cast_to(def.data_type).unwrap();
                bound(c, CmpOp::Lt, v, 0.3)
            })
            .collect();
        (t, preds)
    }

    #[test]
    fn kernel_less_types_never_drive() {
        let (t, preds) = every_layout_chunk();
        let chunk = &t.chunks()[0];
        let chain = translate_chain(chunk, &preds).unwrap().unwrap();
        assert_eq!(chain.len(), preds.len());
        for p in &chain {
            let ty = t.schema()[p.bound.column].data_type;
            let no_kernel = matches!(
                ty,
                DataType::U8 | DataType::U16 | DataType::I8 | DataType::I16
            );
            // Exactly the predicates with a kernel can anchor a driver
            // group (packed needs VBMI2; without it, it filters survivors
            // with its own typed loop). The rest only filter survivors.
            let anchors = Driver::anchored_by(&p.form).is_some();
            let packed = matches!(p.form, LayoutPred::Packed(..));
            assert_eq!(
                anchors,
                !no_kernel && (!packed || packed_kernel_available()),
                "{}",
                p.bound.column_name
            );
        }
        // Whatever drives, every chain shape over these columns agrees
        // with a row loop: each column is `i % 17 < 5`.
        let expected = (0..300).filter(|i| i % 17 < 5).count() as u64;
        let ctx = make_ctx(JitMode::Off);
        for k in 0..preds.len() {
            let rotated: Vec<BoundPred> = preds[k..].iter().chain(&preds[..k]).cloned().collect();
            let mut report = AnalyzeReport::default();
            let out = scan_chunk(
                chunk,
                &rotated,
                &ctx,
                OutputMode::Count,
                Some(&mut report),
                None,
            )
            .unwrap();
            assert_eq!(out.count(), expected, "rotation {k}");
            assert_eq!(report.phase2_rows_out, expected, "rotation {k}");
        }
        // Kernel-less columns alone: every row is a candidate and each
        // column's predicates (a BETWEEN here) filter in one pass.
        let col = |name: &str| t.schema().iter().position(|d| d.name == name).unwrap();
        let (u8c, i16c) = (col("u8"), col("i16"));
        let chain = vec![
            bound(u8c, CmpOp::Ge, Value::U8(2), 0.8),
            bound(i16c, CmpOp::Ne, Value::I16(3), 0.9),
            bound(u8c, CmpOp::Le, Value::U8(9), 0.6),
        ];
        let mut report = AnalyzeReport::default();
        let out = scan_chunk(
            chunk,
            &chain,
            &ctx,
            OutputMode::Positions,
            Some(&mut report),
            None,
        )
        .unwrap();
        let expected: Vec<u32> = (0..300u32)
            .filter(|i| (2..=9).contains(&(i % 17)) && i % 17 != 3)
            .collect();
        assert_eq!(out.positions().unwrap().as_slice(), &expected[..]);
        assert_eq!(report.phase2_rows_in, 300);
        // A literal of the wrong type is an error, not a silent miss.
        let bad = vec![bound(u8c, CmpOp::Eq, Value::U32(2), 0.1)];
        assert_eq!(
            scan_chunk(chunk, &bad, &ctx, OutputMode::Count, None, None),
            Err(ExecError::PredicateTypeError)
        );
    }

    #[test]
    fn mixed_chains_drive_once_and_filter_survivors() {
        let (t, preds) = every_layout_chunk();
        let chunk = &t.chunks()[0];
        let by_name = |name: &str| {
            preds
                .iter()
                .find(|p| t.schema()[p.column].name == name)
                .unwrap()
                .clone()
        };
        // A selective byte-sliced range drives; the FoR predicate only
        // sees its survivors.
        let mut lo = by_name("bs");
        lo.op = CmpOp::Ge;
        lo.value = Value::U32(3);
        lo.selectivity = 0.85;
        let mut hi = by_name("bs");
        hi.value = Value::U32(4);
        hi.selectivity = 0.2;
        let mut f = by_name("for");
        f.selectivity = 0.1;
        let chain_preds = vec![f.clone(), hi, lo];
        let chain = translate_chain(chunk, &chain_preds).unwrap().unwrap();
        let (driver, members) = choose_driver(&chain).unwrap();
        assert_eq!(driver, Driver::ByteSliced, "range 0.05 beats 0.1");
        assert_eq!(members, vec![1, 2]);
        let ctx = make_ctx(JitMode::Off);
        let mut report = AnalyzeReport::default();
        let out = scan_chunk(
            chunk,
            &chain_preds,
            &ctx,
            OutputMode::Positions,
            Some(&mut report),
            None,
        )
        .unwrap();
        let expected: Vec<u32> = (0..300u32).filter(|i| i % 17 == 3).collect();
        assert_eq!(out.positions().unwrap().as_slice(), &expected[..]);
        // Survivor filtering reports through phase 2: the FoR follower saw
        // only the byte-sliced driver's survivors.
        assert_eq!(report.phase2_rows_in, expected.len() as u64);
        assert_eq!(report.phase2_rows_out, expected.len() as u64);
        assert_eq!(report.scan.impl_name(), "bytesliced");
        assert!(report.scan.enabled && report.scan.rows == 300);

        // A FoR chain longer than one kernel: the first 8 predicates
        // drive, the 9th filters survivors.
        let mut long: Vec<BoundPred> = (0..8).map(|_| f.clone()).collect();
        long.push(by_name("dict"));
        let chain = translate_chain(chunk, &long).unwrap().unwrap();
        let (driver, members) = choose_driver(&chain).unwrap();
        assert_eq!(driver, Driver::For);
        assert_eq!(members, (0..8).collect::<Vec<_>>());
        let out = scan_chunk(chunk, &long, &ctx, OutputMode::Count, None, None).unwrap();
        assert_eq!(out.count(), (0..300).filter(|i| i % 17 < 5).count() as u64);
    }

    #[test]
    fn for_and_bytesliced_drivers_report_timing_records() {
        let cat = catalog();
        let base = cat.get("t").unwrap().table.as_ref().clone();
        let mut cat2 = Catalog::new();
        cat2.register("tf", base.with_for_encoding(&[0, 1]).unwrap());
        cat2.register("tb", base.with_byte_slicing(&[0, 1]).unwrap());
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        let ctx = make_ctx(JitMode::Off);
        for (table, name) in [("tf", "fused-for"), ("tb", "bytesliced")] {
            let sql = format!("SELECT COUNT(*) FROM {table} WHERE a = 5 AND b = 1");
            let p = optimize(plan(&parse(&sql).unwrap(), &cat2).unwrap());
            let (result, report) = execute_analyzed(&p, &ctx).unwrap();
            assert_eq!(result, QueryResult::Count(expected), "{table}");
            assert!(report.scan.enabled, "{table}");
            assert_eq!(report.scan.impl_name(), name);
            assert_eq!(report.scan.rows, 1000, "{table}");
            assert_eq!(report.scan.morsels, 4, "{table}: one record per chunk");
            assert_eq!(report.scan.predicates, 2, "{table}");
            assert!(report.scan.bytes_touched > 0, "{table}");
            assert!(report.scan.wall > Duration::ZERO, "{table}");
            assert_eq!(
                report.phase2_rows_in, 0,
                "{table}: one driver, no followers"
            );
            let text = report.render(10.0);
            assert!(text.contains(&format!("Scan [{name}]")), "{text}");
        }
    }

    #[test]
    fn limit_projection_stops_scanning_early() {
        let cat = many_chunk_catalog();
        let full = "SELECT a, b FROM big WHERE a = 5 AND b = 1";
        let limited = "SELECT a, b FROM big WHERE a = 5 AND b = 1 LIMIT 30";
        let ctx_full = make_ctx(JitMode::Off);
        let p = optimize(plan(&parse(full).unwrap(), &cat).unwrap());
        let QueryResult::Rows { rows: all, .. } = execute(&p, &ctx_full).unwrap() else {
            panic!("rows expected")
        };
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(plan(&parse(limited).unwrap(), &cat).unwrap());
        let QueryResult::Rows { columns, rows } = execute(&p, &ctx).unwrap() else {
            panic!("rows expected")
        };
        assert_eq!(columns, vec!["a", "b"]);
        assert_eq!(rows, all[..30].to_vec(), "same rows, same order");
        // 512-row chunks hold 25 matches each: two chunks cover LIMIT 30.
        assert_eq!(ctx.chunks_scanned.load(Ordering::Relaxed), 2);
        assert_eq!(ctx_full.chunks_scanned.load(Ordering::Relaxed), 40);
        // LIMIT 0 scans nothing.
        let ctx = make_ctx(JitMode::Off);
        let p = optimize(plan(&parse(&format!("{full} LIMIT 0")).unwrap(), &cat).unwrap());
        assert_eq!(execute(&p, &ctx).unwrap().num_rows(), 0);
        assert_eq!(ctx.chunks_scanned.load(Ordering::Relaxed), 0);
    }

    /// Table `v`: `id` (the row number, `u32`) plus `columns`, in chunks
    /// of `chunk_rows` rows.
    fn chunked_catalog(columns: Vec<(&str, Column)>, chunk_rows: usize) -> Catalog {
        let rows = columns[0].1.len();
        let mut schema = vec![ColumnDef::new("id", DataType::U32)];
        let mut cols = vec![Column::from_fn(rows, |i| i as u32)];
        for (name, col) in columns {
            schema.push(ColumnDef::new(name, col.data_type()));
            cols.push(col);
        }
        let mut cat = Catalog::new();
        cat.register(
            "v",
            Table::from_chunked_columns(schema, cols, chunk_rows).unwrap(),
        );
        cat
    }

    /// The one row of an aggregate statement; the JIT on and off must
    /// agree bit for bit (compared through `Debug`, so NaN equals NaN and
    /// `-0.0` differs from `0.0`).
    fn agg_row(cat: &Catalog, sql: &str) -> Vec<Value> {
        let p = optimize(plan(&parse(sql).unwrap(), cat).unwrap());
        let rows = [JitMode::Off, JitMode::On].map(|jit| {
            let QueryResult::Rows { mut rows, .. } = execute(&p, &make_ctx(jit)).unwrap() else {
                panic!("{sql}: rows expected")
            };
            assert_eq!(rows.len(), 1, "{sql}");
            rows.remove(0)
        });
        assert_eq!(format!("{:?}", rows[0]), format!("{:?}", rows[1]), "{sql}");
        rows[0].clone()
    }

    #[test]
    fn float_min_max_start_each_chunk_from_the_running_best() {
        // Chunks [1.0, 2.0] [NaN, 0.5]: a fold restarting from each
        // chunk's first row would keep the NaN and lose the 0.5.
        let cat = chunked_catalog(
            vec![("x", Column::from_vec(vec![1.0f64, 2.0, f64::NAN, 0.5]))],
            2,
        );
        for sql in [
            "SELECT MIN(x), MAX(x) FROM v",
            "SELECT MIN(x), MAX(x) FROM v WHERE id < 4",
        ] {
            assert_eq!(agg_row(&cat, sql), vec![Value::F64(0.5), Value::F64(2.0)]);
        }
        // A NaN as the very first value wins and is never replaced.
        let cat = chunked_catalog(
            vec![("x", Column::from_vec(vec![f64::NAN, 1.0, 0.5, 2.0]))],
            2,
        );
        let row = agg_row(&cat, "SELECT MIN(x), MAX(x) FROM v");
        assert!(
            row.iter().all(|v| matches!(v, Value::F64(f) if f.is_nan())),
            "{row:?}"
        );
    }

    #[test]
    fn signed_zero_ties_keep_the_first_value() {
        for chunk_rows in [1, 2] {
            for (values, first_negative) in [([-0.0f64, 0.0], true), ([0.0, -0.0], false)] {
                let cat =
                    chunked_catalog(vec![("x", Column::from_vec(values.to_vec()))], chunk_rows);
                for v in agg_row(&cat, "SELECT MIN(x), MAX(x) FROM v") {
                    let Value::F64(f) = v else { panic!("{v:?}") };
                    assert_eq!(f, 0.0);
                    assert_eq!(
                        f.is_sign_negative(),
                        first_negative,
                        "{values:?} in chunks of {chunk_rows}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_sums_add_in_position_order() {
        // 1e16 + 1.0 rounds back to 1e16 (the ulp is 2), so the
        // position-order sum differs from a sum of per-chunk partials.
        let xs = vec![1e16f64, 1.0, 1.0, 1.0, 0.25, -3.0];
        let ys = vec![1e9f32, 1.0e-3, 7.5, 1.0e-3, 16.0, 0.1];
        let seq_x = xs.iter().fold(0.0f64, |a, &v| a + v);
        let seq_y = ys.iter().fold(0.0f64, |a, &v| a + f64::from(v));
        let by_chunk: f64 = xs
            .chunks(2)
            .map(|c| c.iter().fold(0.0f64, |a, &v| a + v))
            .fold(0.0, |a, v| a + v);
        assert_ne!(seq_x, by_chunk, "the data must tell the two orders apart");
        let cat = chunked_catalog(
            vec![("x", Column::from_vec(xs)), ("y", Column::from_vec(ys))],
            2,
        );
        assert_eq!(
            agg_row(&cat, "SELECT SUM(x), SUM(y), AVG(x) FROM v"),
            vec![
                Value::F64(seq_x),
                Value::F64(seq_y),
                Value::F64(seq_x / 6.0)
            ]
        );
    }

    #[test]
    fn dictionary_encoded_float_aggregates_match_plain() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 37) % 101) as f64 * 0.5 - 20.0)
            .collect();
        let mut cat = chunked_catalog(vec![("x", Column::from_vec(xs.clone()))], 256);
        let dict = cat
            .get("v")
            .unwrap()
            .table
            .with_dictionary_encoding(&[1])
            .unwrap();
        cat.register("v_dict", dict);
        let kept = &xs[100..900];
        let sum = kept.iter().fold(0.0f64, |a, &v| a + v);
        let expected = vec![
            Value::F64(sum),
            Value::F64(kept.iter().copied().fold(f64::INFINITY, f64::min)),
            Value::F64(kept.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            Value::F64(sum / 800.0),
            Value::U64(800),
        ];
        for table in ["v", "v_dict"] {
            let sql = format!(
                "SELECT SUM(x), MIN(x), MAX(x), AVG(x), COUNT(*) FROM {table} \
                 WHERE id >= 100 AND id < 900"
            );
            assert_eq!(agg_row(&cat, &sql), expected, "{table}");
        }
    }

    #[test]
    fn aggregates_over_pruned_chunks_return_the_empty_values() {
        let cat = catalog();
        let where_ = "FROM t WHERE big > 100000";
        let ctx = make_ctx(JitMode::Off);
        let sql = format!("SELECT COUNT(*), SUM(big), SUM(f), AVG(big), MIN(big), MAX(f) {where_}");
        let p = optimize(plan(&parse(&sql).unwrap(), &cat).unwrap());
        let QueryResult::Rows { rows, .. } = execute(&p, &ctx).unwrap() else {
            panic!("rows expected")
        };
        assert_eq!(
            rows,
            vec![vec![
                Value::U64(0),
                Value::I64(0),
                Value::I64(0),
                Value::F64(0.0),
                Value::I64(0),
                Value::I64(0),
            ]]
        );
        assert_eq!(ctx.chunks_scanned.load(Ordering::Relaxed), 0);
        assert_eq!(ctx.chunks_pruned.load(Ordering::Relaxed), 4);
        assert_eq!(
            run(&format!("SELECT COUNT(*) {where_}"), JitMode::Off),
            QueryResult::Count(0)
        );
    }

    #[test]
    fn count_star_next_to_other_aggregates_counts_the_survivors() {
        let keep = |i: usize| i % 4 == 1 && (i as i64 - 500) < 200;
        let sum: i64 = (0..1000)
            .filter(|&i| keep(i))
            .map(|i| (i % 10) as i64)
            .sum();
        assert_eq!(
            agg_row(
                &catalog(),
                "SELECT SUM(a), COUNT(*), MAX(b) FROM t WHERE b = 1 AND big < 200"
            ),
            vec![
                Value::I64(sum),
                Value::U64(expected_count(keep)),
                Value::U32(1)
            ]
        );
    }

    #[test]
    fn integer_sum_overflow_is_an_error_naming_the_aggregate() {
        let cat = chunked_catalog(
            vec![
                ("big", Column::from_vec(vec![i64::MAX, i64::MAX, -3])),
                ("wide", Column::from_vec(vec![u64::MAX, 1u64 << 63, 8])),
            ],
            2,
        );
        let prepare = |sql: &str| optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        let overflows = [
            (
                "SELECT SUM(big) FROM v",
                "sum(big)",
                2 * i64::MAX as i128 - 3,
            ),
            (
                "SELECT SUM(wide) FROM v",
                "sum(wide)",
                u64::MAX as i128 + (1i128 << 63) + 8,
            ),
        ];
        for (sql, aggregate, exact) in overflows {
            for jit in [JitMode::Off, JitMode::On] {
                let err = execute(&prepare(sql), &make_ctx(jit)).unwrap_err();
                assert_eq!(
                    err,
                    ExecError::SumOverflow {
                        aggregate: aggregate.into(),
                        exact
                    }
                );
                assert!(err.to_string().contains(aggregate), "{err}");
            }
        }
        // Sums in range, and AVG over the same values, still answer.
        assert_eq!(
            agg_row(
                &cat,
                "SELECT SUM(big), AVG(big), SUM(wide) FROM v WHERE id = 2"
            ),
            vec![Value::I64(-3), Value::F64(-3.0), Value::I64(8)]
        );
        // A shared pass fails only the overflowing statement.
        let (bad, good) = (prepare(overflows[0].0), prepare("SELECT MAX(wide) FROM v"));
        let results = execute_shared(&[&bad, &good], &make_ctx(JitMode::Off)).unwrap();
        assert!(
            matches!(results[0], Err(ExecError::SumOverflow { .. })),
            "{results:?}"
        );
        assert_eq!(
            results[1],
            Ok(QueryResult::Rows {
                columns: vec!["max(wide)".into()],
                rows: vec![vec![Value::U64(u64::MAX)]],
            })
        );
    }

    /// Table `v`, 8 chunks of 4 rows: `x` (the row number) and `y`
    /// (row % 3) are `u32`, except that chunk `x_chunk` holds `x` and
    /// chunk `y_chunk` holds `y` as `i64`. `MIN(x)` then fails in its fold
    /// at `x_chunk`, and `y = 1` fails its scan at `y_chunk`.
    fn retyped_catalog(x_chunk: usize, y_chunk: usize) -> Catalog {
        let t = Table::from_chunked_columns(
            vec![
                ColumnDef::new("x", DataType::U32),
                ColumnDef::new("y", DataType::U32),
            ],
            vec![
                Column::from_fn(32, |i| i as u32),
                Column::from_fn(32, |i| (i % 3) as u32),
            ],
            4,
        )
        .unwrap();
        let retyped = |t: Table, chunk: usize, col: usize| {
            let mut segments: Vec<Segment> = (0..2)
                .map(|c| t.chunks()[chunk].segment(c).clone())
                .collect();
            segments[col] = Segment::Plain(Column::from_fn(4, |i| i as i64));
            t.with_chunk_replaced(chunk, Arc::new(Chunk::new(segments)))
        };
        let mut cat = Catalog::new();
        cat.register("v", retyped(retyped(t, x_chunk, 0), y_chunk, 1));
        cat
    }

    #[test]
    fn a_failing_chunk_fails_only_its_statement_with_the_lowest_chunks_error() {
        let changed_type =
            || ExecError::UnsupportedPlan("aggregate column changes type across chunks".into());
        for (x_chunk, y_chunk, want) in [
            (2, 5, changed_type()),
            (5, 2, ExecError::PredicateTypeError),
        ] {
            let cat = retyped_catalog(x_chunk, y_chunk);
            let prepare = |sql: &str| optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
            let bad = prepare("SELECT MIN(x) FROM v WHERE y = 1");
            let good = prepare("SELECT COUNT(*) FROM v");
            for jit in [JitMode::Off, JitMode::On] {
                let ctx = make_ctx(jit);
                assert_eq!(execute(&bad, &ctx), Err(want.clone()), "{x_chunk} {jit:?}");
                let results = execute_shared(&[&bad, &good], &ctx).unwrap();
                assert_eq!(results[0], Err(want.clone()), "{x_chunk} {jit:?}");
                assert_eq!(results[1], Ok(QueryResult::Count(32)), "{x_chunk} {jit:?}");
            }
        }
    }

    #[test]
    fn explain_analyze_reports_post_scan_work() {
        let cat = catalog();
        let ctx = make_ctx(JitMode::Off);
        let analyze = |sql: &str| {
            let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
            execute_analyzed(&p, &ctx).unwrap().1
        };
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        let report = analyze("SELECT SUM(big), MAX(f) FROM t WHERE a = 5 AND b = 1");
        assert_eq!(report.aggregate.rows, expected);
        let text = report.render(10.0);
        assert!(
            text.contains(&format!("aggregate: rows={expected}  aggregates=2  wall=")),
            "{text}"
        );
        assert!(!text.contains("materialize:"), "{text}");
        // A lone COUNT(*) counts in the scan and folds nothing.
        let report = analyze("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1");
        assert!(!report.render(10.0).contains("aggregate:"));
        let report = analyze("SELECT a, big FROM t WHERE a = 5 AND b = 1 LIMIT 7");
        assert_eq!(report.materialize.rows, 7);
        let text = report.render(10.0);
        assert!(
            text.contains("materialize: rows=7  columns=2  wall="),
            "{text}"
        );
        assert!(!text.contains("aggregate:"), "{text}");
    }

    #[test]
    fn query_result_helpers() {
        let r = QueryResult::Count(5);
        assert_eq!(r.count(), Some(5));
        assert_eq!(r.num_rows(), 1);
        let r = QueryResult::Rows {
            columns: vec![],
            rows: vec![vec![], vec![]],
        };
        assert_eq!(r.count(), None);
        assert_eq!(r.num_rows(), 2);
    }
}
