//! The query engine, the one front door to the SQL pipeline: one
//! `Send + Sync` instance serves a REPL, a test or a server's worth of
//! concurrent frontends.
//!
//! *Engine* state (catalog, JIT kernel caches, adaptive-calibration
//! registry) is shared by every caller; *session* state (the current
//! statement, its telemetry) stays with the caller. [`Engine`] is the
//! shared half:
//!
//! * the **catalog** lives behind a copy-on-write snapshot
//!   (`RwLock<Arc<Catalog>>`): statements plan against an immutable
//!   [`Arc<Catalog>`] snapshot while `register` swaps in a clone, so a
//!   long-running scan never blocks DDL and vice versa;
//! * the **execution context** ([`ExecContext`]) was already built from
//!   `Arc`'d caches and atomics — it is shared as-is, and its
//!   [`CalibrationRegistry`](crate::executor::CalibrationRegistry)
//!   serializes per-chain calibration updates while letting distinct
//!   chains proceed in parallel;
//! * [`Engine::prepare`] splits planning from execution so a server can
//!   admission-control and batch *planned* statements (grouping by
//!   scanned table), then run compatible groups through
//!   [`execute_shared`] as one cooperative table pass.

use std::collections::HashSet;
use std::sync::{Arc, RwLock};

use fts_storage::{Chunk, ColumnProfile, Table, TableError};

use crate::catalog::Catalog;
use crate::executor::{
    execute, execute_analyzed, execute_shared, AnalyzeReport, ExecContext, ExecError, JitMode,
    QueryResult,
};
use crate::lqp::{plan, Lqp, PlanError};
use crate::optimizer::optimize;
use crate::parser::{parse, ParseError};

/// Any error a query can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// SQL parsing failed.
    Parse(ParseError),
    /// Binding/planning failed.
    Plan(PlanError),
    /// Execution failed.
    Exec(ExecError),
    /// Table construction failed.
    Table(TableError),
    /// The engine refused or failed the work below the query layer —
    /// notably admission control's `Overloaded` rejection.
    Engine(fts_core::EngineError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::Plan(e) => write!(f, "plan error: {e}"),
            QueryError::Exec(e) => write!(f, "execution error: {e}"),
            QueryError::Table(e) => write!(f, "table error: {e}"),
            QueryError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}
impl From<PlanError> for QueryError {
    fn from(e: PlanError) -> Self {
        QueryError::Plan(e)
    }
}
impl From<ExecError> for QueryError {
    fn from(e: ExecError) -> Self {
        QueryError::Exec(e)
    }
}
impl From<TableError> for QueryError {
    fn from(e: TableError) -> Self {
        QueryError::Table(e)
    }
}
impl From<fts_core::EngineError> for QueryError {
    fn from(e: fts_core::EngineError) -> Self {
        QueryError::Engine(e)
    }
}

/// A thread-safe query engine: catalog + execution context, shared by
/// every connection of a server (or by one REPL).
///
/// ```
/// use std::sync::Arc;
/// use fts_query::{Engine, QueryResult};
/// use fts_storage::{Column, ColumnDef, DataType, Table};
///
/// let engine = Arc::new(Engine::new());
/// engine.register("t", Table::from_columns(
///     vec![ColumnDef::new("a", DataType::U32)],
///     vec![Column::from_fn(100, |i| (i % 10) as u32)],
/// ).unwrap());
/// let handles: Vec<_> = (0..4).map(|_| {
///     let engine = Arc::clone(&engine);
///     std::thread::spawn(move || engine.query("SELECT COUNT(*) FROM t WHERE a = 5").unwrap())
/// }).collect();
/// for h in handles {
///     assert_eq!(h.join().unwrap(), QueryResult::Count(10));
/// }
/// ```
pub struct Engine {
    catalog: RwLock<Arc<Catalog>>,
    ctx: ExecContext,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Engine with the default execution context (JIT on where AVX-512
    /// is available).
    pub fn new() -> Engine {
        Engine::with_context(ExecContext::default())
    }

    /// Engine with an explicit JIT policy.
    pub fn with_jit(jit: JitMode) -> Engine {
        Engine::with_context(ExecContext {
            jit,
            ..Default::default()
        })
    }

    /// Engine over a custom execution context.
    pub fn with_context(ctx: ExecContext) -> Engine {
        Engine {
            catalog: RwLock::new(Arc::new(Catalog::new())),
            ctx,
        }
    }

    /// Register a table, replacing any previous table of that name.
    /// Copy-on-write: statements already planned against the previous
    /// snapshot keep scanning it untouched.
    pub fn register(&self, name: impl Into<String>, table: Table) {
        let mut slot = self
            .catalog
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut next = Catalog::clone(&slot);
        next.register(name, table);
        *slot = Arc::new(next);
    }

    /// Swap one chunk of a registered table for a re-encoded twin —
    /// the layout advisor's copy-on-write commit. The catalog gets a
    /// fresh snapshot whose table shares every *other* chunk with the old
    /// one (`Arc` per chunk), so statements already planned keep scanning
    /// their pinned snapshot untouched and concurrent readers never see a
    /// half-swapped table. Returns `false` when the table is unknown, the
    /// index is out of range, or the replacement's row count differs.
    pub fn replace_chunk(&self, name: &str, chunk_idx: usize, chunk: Arc<Chunk>) -> bool {
        let mut slot = self
            .catalog
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let Some(entry) = slot.get(name) else {
            return false;
        };
        if entry
            .table
            .chunks()
            .get(chunk_idx)
            .is_none_or(|old| old.rows() != chunk.rows())
        {
            return false;
        }
        let table = entry.table.with_chunk_replaced(chunk_idx, chunk);
        let mut next = Catalog::clone(&slot);
        next.register(name, table);
        *slot = Arc::new(next);
        true
    }

    /// Build the layout advisor's [`ColumnProfile`] for one column of a
    /// registered table: catalog statistics (rows, distinct, value range),
    /// first-chunk sortedness, and the observed scan selectivity of
    /// calibrated chains touching the column (None until scanned).
    pub fn column_profile(&self, table: &str, col: usize) -> Option<ColumnProfile> {
        let catalog = self.catalog();
        let entry = catalog.get(table)?;
        let stats = entry.stats.get(col)?;
        let first = entry.table.chunks().first();
        let sortedness = first
            .and_then(|c| c.segment(col).decode_u32())
            .map(|v| fts_storage::sortedness_of(&v))
            .unwrap_or(0.0);
        Some(ColumnProfile {
            data_type: entry.table.schema()[col].data_type,
            rows: first.map(|c| c.rows()).unwrap_or(0),
            distinct: stats.distinct as usize,
            min: stats.min.unwrap_or(0.0).max(0.0) as u64,
            max: stats.max.unwrap_or(0.0).max(0.0) as u64,
            sortedness,
            observed_selectivity: self.ctx.calibration.observed_selectivity(table, col),
        })
    }

    /// The current catalog snapshot.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(
            &self
                .catalog
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// The shared execution context (kernel caches, calibration registry,
    /// chunk counters).
    pub fn context(&self) -> &ExecContext {
        &self.ctx
    }

    /// Parse, plan and optimize one statement against the current catalog
    /// snapshot without executing it. The returned [`Prepared`] is
    /// self-contained (the plan pins its table data), so it stays valid
    /// across later `register` calls.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, QueryError> {
        let ast = parse(sql)?;
        let catalog = self.catalog();
        let logical = optimize(plan(&ast, &catalog)?);
        Ok(Prepared {
            plan: logical,
            explain: ast.explain,
            analyze: ast.analyze,
        })
    }

    /// Execute a prepared statement.
    pub fn execute(&self, prepared: &Prepared) -> Result<QueryResult, QueryError> {
        if prepared.analyze {
            let (_, report) = execute_analyzed(&prepared.plan, &self.ctx)?;
            let peak = fts_core::stride::peak_bandwidth_gbps();
            return Ok(QueryResult::Explain(format!(
                "{}\n{}",
                prepared.plan.explain(),
                report.render(peak)
            )));
        }
        if prepared.explain {
            return Ok(QueryResult::Explain(prepared.plan.explain()));
        }
        Ok(execute(&prepared.plan, &self.ctx)?)
    }

    /// Execute a batch of prepared statements as one shared table pass
    /// when their shapes allow it (all aggregates over one table),
    /// falling back to statement-at-a-time execution otherwise. Results
    /// are positionally parallel to `batch` and identical to what
    /// [`Engine::execute`] would return for each statement alone.
    ///
    /// Returns the per-statement results plus whether the batch actually
    /// ran as a shared pass (for the scan-sharing hit-rate telemetry).
    pub fn execute_batch(
        &self,
        batch: &[&Prepared],
    ) -> (Vec<Result<QueryResult, QueryError>>, bool) {
        if batch.len() > 1 && batch.iter().all(|p| p.is_shareable()) {
            let plans: Vec<&Lqp> = batch.iter().map(|p| &p.plan).collect();
            if let Some(results) = execute_shared(&plans, &self.ctx) {
                return (
                    results
                        .into_iter()
                        .map(|r| r.map_err(QueryError::from))
                        .collect(),
                    true,
                );
            }
        }
        (batch.iter().map(|p| self.execute(p)).collect(), false)
    }

    /// Parse, plan, optimize and execute one SQL statement — the
    /// one-shot convenience over [`Engine::prepare`] +
    /// [`Engine::execute`].
    pub fn query(&self, sql: &str) -> Result<QueryResult, QueryError> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared)
    }

    /// The optimized plan for a statement, as text.
    pub fn explain(&self, sql: &str) -> Result<String, QueryError> {
        Ok(self.prepare(sql)?.plan.explain())
    }

    /// Execute a statement and return the full [`AnalyzeReport`] —
    /// the programmatic face of `EXPLAIN ANALYZE`.
    pub fn query_analyzed(&self, sql: &str) -> Result<(QueryResult, AnalyzeReport), QueryError> {
        let prepared = self.prepare(sql)?;
        Ok(execute_analyzed(&prepared.plan, &self.ctx)?)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tables", &self.catalog().table_names())
            .finish()
    }
}

/// A parsed, planned and optimized statement, ready to execute —
/// produced by [`Engine::prepare`]. The plan pins the catalog entries it
/// scans, so a `Prepared` outlives catalog changes.
#[derive(Debug)]
pub struct Prepared {
    plan: Lqp,
    explain: bool,
    analyze: bool,
}

impl Prepared {
    /// The optimized logical plan.
    pub fn plan(&self) -> &Lqp {
        &self.plan
    }

    /// Whether this is an `EXPLAIN` (plan-only) statement.
    pub fn is_explain(&self) -> bool {
        self.explain
    }

    /// Whether this is an `EXPLAIN ANALYZE` statement.
    pub fn is_analyze(&self) -> bool {
        self.analyze
    }

    /// The name of the stored table the statement scans.
    pub fn scan_table(&self) -> Option<&str> {
        self.plan.scan_table()
    }

    /// Whether the statement can join a shared table pass: a plain
    /// aggregate (no EXPLAIN wrapper). The batch executor still verifies
    /// that all members scan the same table.
    pub fn is_shareable(&self) -> bool {
        !self.explain && !self.analyze && matches!(self.plan, Lqp::Aggregate { .. })
    }

    /// An approximate cost of the statement in bytes scanned (table rows
    /// × 4 B per column read), used for admission budgeting. Pruning and
    /// early-outs only make the true cost smaller.
    pub fn cost_bytes(&self) -> u64 {
        fn scan_entry(plan: &Lqp) -> Option<u64> {
            match plan {
                Lqp::StoredTable { table, .. } => Some(table.rows() as u64),
                other => scan_entry(other.input()?),
            }
        }
        let rows = scan_entry(&self.plan).unwrap_or(0);
        let cols = count_columns(&self.plan).max(1) as u64;
        rows * cols * 4
    }
}

/// Column reads the plan's filters make (for the cost model): a fused
/// chain reads each of its columns once, since a column's predicates are
/// one stage; a boolean tree reads a column per leaf, since a root OR's
/// children each drive over the chunk.
fn count_columns(plan: &Lqp) -> usize {
    let own = match plan {
        Lqp::Filter { .. } => 1,
        Lqp::FusedFilterChain { preds, .. } => {
            preds.iter().map(|p| p.column).collect::<HashSet<_>>().len()
        }
        Lqp::FilterTree { expr, .. } => expr.leaf_count(),
        _ => 0,
    };
    own + plan.input().map(count_columns).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fts_storage::{Column, ColumnDef, DataType, Value};

    fn engine() -> Engine {
        let engine = Engine::new();
        engine.register(
            "t",
            Table::from_chunked_columns(
                vec![
                    ColumnDef::new("a", DataType::U32),
                    ColumnDef::new("b", DataType::U32),
                ],
                vec![
                    Column::from_fn(1000, |i| (i % 10) as u32),
                    Column::from_fn(1000, |i| (i % 4) as u32),
                ],
                256,
            )
            .unwrap(),
        );
        engine
    }

    fn expected_count(f: impl Fn(usize) -> bool) -> u64 {
        (0..1000).filter(|&i| f(i)).count() as u64
    }

    /// 400 rows in one chunk: `a = i % 10`, `b = i % 4`.
    fn db() -> Engine {
        let db = Engine::new();
        db.register(
            "tbl",
            Table::from_columns(
                vec![
                    ColumnDef::new("a", DataType::U32),
                    ColumnDef::new("b", DataType::U32),
                ],
                vec![
                    Column::from_fn(400, |i| (i % 10) as u32),
                    Column::from_fn(400, |i| (i % 4) as u32),
                ],
            )
            .unwrap(),
        );
        db
    }

    #[test]
    fn end_to_end_rows() {
        let db = db();
        let r = db.query("SELECT b FROM tbl WHERE a = 3 LIMIT 2").unwrap();
        let crate::executor::QueryResult::Rows { columns, rows } = r else {
            panic!()
        };
        assert_eq!(columns, vec!["b"]);
        assert_eq!(rows, vec![vec![Value::U32(3)], vec![Value::U32(1)]]);
    }

    #[test]
    fn explain_pipeline() {
        let db = db();
        let text = db
            .explain("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
            .unwrap();
        assert!(text.contains("FusedTableScan"), "{text}");
        assert!(text.contains("StoredTable tbl"));
    }

    #[test]
    fn explain_analyze_renders_telemetry() {
        let db = db();
        let r = db
            .query("EXPLAIN ANALYZE SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
            .unwrap();
        let QueryResult::Explain(text) = r else {
            panic!("{r:?}")
        };
        assert!(text.contains("FusedTableScan"), "{text}");
        assert!(text.contains("Scan ["), "{text}");
        assert!(text.contains("values/µs"), "{text}");
        assert!(text.contains("-bound"), "{text}");
    }

    #[test]
    fn query_analyzed_returns_result_and_report() {
        let db = db();
        let (result, report) = db
            .query_analyzed("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
            .unwrap();
        let expected = (0..400).filter(|i| i % 10 == 5 && i % 4 == 2).count() as u64;
        assert_eq!(result, QueryResult::Count(expected));
        assert!(report.scan.enabled);
        assert_eq!(report.scan.rows, 400);
        assert_eq!(*report.scan.pred_survivors.last().unwrap(), expected);
    }

    #[test]
    fn errors_propagate() {
        let db = db();
        assert!(matches!(db.query("SELEC"), Err(QueryError::Parse(_))));
        assert!(matches!(
            db.query("SELECT COUNT(*) FROM missing"),
            Err(QueryError::Plan(_))
        ));
        assert!(matches!(
            db.query("SELECT COUNT(*) FROM tbl WHERE a = -5"),
            Err(QueryError::Plan(_))
        ));
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Prepared>();
    }

    #[test]
    fn concurrent_queries_one_engine() {
        let engine = Arc::new(engine());
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let r = engine
                            .query("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1")
                            .unwrap();
                        assert_eq!(r.count(), Some(expected));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn register_is_copy_on_write() {
        let engine = engine();
        let before = engine.catalog();
        engine.register(
            "u",
            Table::from_columns(
                vec![ColumnDef::new("x", DataType::U32)],
                vec![Column::from_fn(10, |i| i as u32)],
            )
            .unwrap(),
        );
        // The old snapshot is untouched; the new one sees both tables.
        assert!(before.get("u").is_none());
        assert!(engine.catalog().get("u").is_some());
        assert!(engine.catalog().get("t").is_some());
    }

    #[test]
    fn prepared_survives_reregistration() {
        let engine = engine();
        let prepared = engine
            .prepare("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1")
            .unwrap();
        // Replace `t` with an empty-ish table; the prepared plan pinned
        // the old data and must still answer from it.
        engine.register(
            "t",
            Table::from_columns(
                vec![
                    ColumnDef::new("a", DataType::U32),
                    ColumnDef::new("b", DataType::U32),
                ],
                vec![Column::from_fn(1, |_| 0u32), Column::from_fn(1, |_| 0u32)],
            )
            .unwrap(),
        );
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        assert_eq!(
            engine.execute(&prepared).unwrap(),
            QueryResult::Count(expected)
        );
        assert_eq!(
            engine
                .query("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1")
                .unwrap(),
            QueryResult::Count(0)
        );
    }

    #[test]
    fn prepared_exposes_batching_metadata() {
        let engine = engine();
        let agg = engine
            .prepare("SELECT COUNT(*) FROM t WHERE a = 5")
            .unwrap();
        assert!(agg.is_shareable());
        assert_eq!(agg.scan_table(), Some("t"));
        assert!(agg.cost_bytes() >= 1000 * 4);
        let rows = engine.prepare("SELECT b FROM t WHERE a = 5").unwrap();
        assert!(!rows.is_shareable(), "projections do not share passes");
        let explain = engine
            .prepare("EXPLAIN SELECT COUNT(*) FROM t WHERE a = 5")
            .unwrap();
        assert!(explain.is_explain() && !explain.is_shareable());
    }

    #[test]
    fn filter_tree_cost_counts_every_leaf() {
        let engine = engine();
        // An AND of six two-leaf ORs reads twelve predicate columns.
        let clauses: Vec<String> = (0..6)
            .map(|k| format!("(a = {k} OR b = {})", k % 4))
            .collect();
        let sql = format!("SELECT COUNT(*) FROM t WHERE {}", clauses.join(" AND "));
        assert_eq!(engine.prepare(&sql).unwrap().cost_bytes(), 1000 * 12 * 4);
        let chain = engine
            .prepare("SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2")
            .unwrap();
        assert_eq!(chain.cost_bytes(), 1000 * 2 * 4);
    }

    #[test]
    fn chain_cost_counts_each_column_once() {
        let engine = engine();
        // A BETWEEN is one stage over one column: two columns read.
        let between = engine
            .prepare("SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5 AND b = 2")
            .unwrap();
        assert_eq!(between.cost_bytes(), 1000 * 2 * 4);
        let one_column = engine
            .prepare("SELECT COUNT(*) FROM t WHERE a >= 1 AND a <> 3 AND a < 9")
            .unwrap();
        assert_eq!(one_column.cost_bytes(), 1000 * 4);
    }

    #[test]
    fn calibration_registry_stays_bounded_under_fresh_literals() {
        use crate::executor::CALIBRATION_CAPACITY;
        let engine = Engine::with_jit(JitMode::Off);
        // One chunk: each statement feeds its chain's calibrator one probe.
        engine.register(
            "one",
            Table::from_columns(
                vec![
                    ColumnDef::new("a", DataType::U32),
                    ColumnDef::new("b", DataType::U32),
                ],
                vec![
                    Column::from_fn(2000, |i| (i % 1000) as u32),
                    Column::from_fn(2000, |i| (i % 4) as u32),
                ],
            )
            .unwrap(),
        );
        let probes = |sql: &str| -> u64 {
            let (_, report) = engine.query_analyzed(sql).unwrap();
            let decision = report.adaptive.expect("a u32 chain calibrates");
            decision.probed.iter().map(|p| p.1).sum()
        };
        let chain = "SELECT COUNT(*) FROM one WHERE a = 1 AND b = 1";
        let fresh = probes(chain);
        assert!(probes(chain) > fresh, "state persists between statements");
        for k in 0..10_000u32 {
            let sql = format!("SELECT COUNT(*) FROM one WHERE a < {k}");
            let want = 2 * u64::from(k.min(1000));
            assert_eq!(engine.query(&sql).unwrap(), QueryResult::Count(want));
            assert!(engine.context().calibration.len() <= CALIBRATION_CAPACITY);
        }
        assert_eq!(engine.context().calibration.len(), CALIBRATION_CAPACITY);
        // The first chain was evicted long ago: it calibrates afresh.
        assert_eq!(probes(chain), fresh);
    }

    #[test]
    fn replace_chunk_is_copy_on_write() {
        let engine = engine();
        let before = engine.catalog();
        let table = Arc::clone(&before.get("t").unwrap().table);
        // Re-encode chunk 1's column 0 to FoR and swap it in.
        let chunk = table
            .reencode_chunk_column(1, 0, fts_storage::Layout::For)
            .unwrap();
        assert!(engine.replace_chunk("t", 1, chunk));
        let after = engine.catalog();
        let swapped = &after.get("t").unwrap().table;
        assert!(swapped.chunks()[1].segment(0).as_for().is_some());
        // Untouched chunks are shared, the old snapshot is unchanged.
        assert!(Arc::ptr_eq(&table.chunks()[0], &swapped.chunks()[0]));
        assert!(before.get("t").unwrap().table.chunks()[1]
            .segment(0)
            .as_plain()
            .is_some());
        // Queries agree across the swap.
        let expected = expected_count(|i| i % 10 == 5 && i % 4 == 1);
        assert_eq!(
            engine
                .query("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1")
                .unwrap(),
            QueryResult::Count(expected)
        );
        // Bad swaps are refused.
        assert!(!engine.replace_chunk("missing", 0, Arc::clone(&table.chunks()[0])));
        assert!(!engine.replace_chunk("t", 99, Arc::clone(&table.chunks()[0])));
    }

    #[test]
    fn column_profile_reflects_stats_and_calibration() {
        let engine = engine();
        let p = engine.column_profile("t", 0).unwrap();
        assert_eq!(p.data_type, DataType::U32);
        assert_eq!(p.distinct, 10);
        assert_eq!((p.min, p.max), (0, 9));
        // 0..9 repeating: ~90% of adjacent pairs are non-decreasing.
        assert!(p.sortedness > 0.5, "{}", p.sortedness);
        assert!(p.observed_selectivity.is_none(), "never scanned yet");
        // After enough scans the calibration registry feeds selectivity.
        for _ in 0..50 {
            engine.query("SELECT COUNT(*) FROM t WHERE a = 5").unwrap();
        }
        let p = engine.column_profile("t", 0).unwrap();
        if let Some(sel) = p.observed_selectivity {
            assert!((sel - 0.1).abs() < 0.05, "{sel}");
        }
        assert!(engine.column_profile("t", 9).is_none());
        assert!(engine.column_profile("nope", 0).is_none());
    }

    #[test]
    fn batch_matches_solo_execution() {
        let engine = engine();
        let sqls = [
            "SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1",
            "SELECT COUNT(*) FROM t WHERE a < 3",
            "SELECT SUM(a), MAX(b) FROM t WHERE b = 2",
            "SELECT COUNT(*) FROM t",
        ];
        let prepared: Vec<Prepared> = sqls.iter().map(|s| engine.prepare(s).unwrap()).collect();
        let refs: Vec<&Prepared> = prepared.iter().collect();
        let (batched, shared) = engine.execute_batch(&refs);
        assert!(shared, "all-aggregate same-table batch must share");
        for (sql, got) in sqls.iter().zip(&batched) {
            let solo = engine.query(sql).unwrap();
            assert_eq!(got.as_ref().unwrap(), &solo, "{sql}");
        }
    }

    #[test]
    fn mixed_batch_falls_back() {
        let engine = engine();
        let prepared = [
            engine
                .prepare("SELECT COUNT(*) FROM t WHERE a = 5")
                .unwrap(),
            engine
                .prepare("SELECT b FROM t WHERE a = 5 LIMIT 3")
                .unwrap(),
        ];
        let refs: Vec<&Prepared> = prepared.iter().collect();
        let (results, shared) = engine.execute_batch(&refs);
        assert!(!shared);
        assert!(results.iter().all(|r| r.is_ok()));
    }
}
