//! Scan sharing driven by admission: a statement shares a table pass only
//! while it would wait for admission anyway.
//!
//! Every SQL statement enters through [`Batcher::submit`]. A statement
//! that admission can run right now ([`AdmissionController::try_admit`])
//! runs at once and alone. Only a statement that must wait in
//! admission's FIFO line opens its table's batch, and compatible
//! statements (aggregates over the same table) that arrive while it waits
//! join it as followers. Once admitted, the *leader* takes the batch off
//! the map (joins stop), deduplicates identical SQL, runs everything as
//! one chunk-major shared pass ([`fts_query::Engine::execute_batch`])
//! under its one permit, and fans the results back out: asked once,
//! answered K times. There is no timer, so a lone client never waits for
//! company (group commit with PostgreSQL's `commit_delay = 0`).
//!
//! Sharing is kept for overload because the fused scan is compute-bound
//! on one core (3.4–3.8 GB/s against a 9.6 GB/s one-thread bandwidth
//! probe on a 2-vCPU AVX-512 host): a shared pass saves reads that are
//! not the bottleneck, and pays only for statements that would queue.
//!
//! **Byte budget.** The leader's permit is sized by its own
//! [`Prepared::cost_bytes`] before any follower arrives, so a follower
//! joins only if its cost is at most the leader's; a wider statement
//! admits itself, and no pass reads more than its permit declares.
//! Followers wait without a permit, so a server with
//! `max_concurrent = 1` still coalesces.
//!
//! **Lock order.** The table map, then admission — and under the map lock
//! only [`AdmissionController::try_admit`], which never waits. Nothing
//! blocks in admission while holding the map lock.
//!
//! **Containment.** Joining a batch never changes a statement's result
//! (the shared executor keeps per-statement pruning and aggregation, and
//! falls back to solo execution for shapes it cannot share), and a
//! follower whose leader dies times out and re-runs solo, admitted like
//! any other statement — every client gets an answer.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use fts_core::{AdmissionController, Permit};
use fts_metrics::SchedCounters;
use fts_query::{Engine, Prepared, QueryError, QueryResult};

/// How long a follower waits for its leader's results before it runs
/// solo: far beyond any sane admission wait plus pass, and still bounded.
const FOLLOWER_TIMEOUT: Duration = Duration::from_secs(30);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Slot {
    sql: String,
    prepared: Arc<Prepared>,
}

struct BatchState {
    slots: Vec<Slot>,
    /// Per-slot results, set exactly once by the leader.
    results: Option<Vec<Result<QueryResult, QueryError>>>,
}

struct PendingBatch {
    /// The leader's cost: the size of the pass's permit, and so the
    /// widest statement that may join.
    cost: u64,
    state: Mutex<BatchState>,
    done: Condvar,
}

impl PendingBatch {
    /// Slot `index`'s result once the leader publishes it; `None` if it
    /// never does (its thread died) within [`FOLLOWER_TIMEOUT`].
    fn wait(&self, index: usize) -> Option<Result<QueryResult, QueryError>> {
        let (state, _) = self
            .done
            .wait_timeout_while(lock(&self.state), FOLLOWER_TIMEOUT, |s| s.results.is_none())
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.results.as_ref().map(|results| results[index].clone())
    }
}

/// Groups compatible statements that wait for admission into shared
/// table passes.
pub struct Batcher {
    /// `false` runs every statement solo (the bench's naive baseline).
    batching: bool,
    /// Open batches by table name. Statements join a table's batch while
    /// it is in this map; the leader removes it before executing, so a
    /// join and a take can never race (both hold the map lock).
    tables: Mutex<HashMap<String, Arc<PendingBatch>>>,
}

impl Batcher {
    /// A batcher; with `batching` off every statement runs solo.
    pub fn new(batching: bool) -> Batcher {
        Batcher {
            batching,
            tables: Mutex::new(HashMap::new()),
        }
    }

    /// Admit and execute `prepared` (whose text is `sql`), sharing a
    /// table pass with compatible statements only if it has to wait for
    /// admission. On rejection every statement of the pass gets the
    /// `Overloaded` error. Blocks until this statement's result is ready.
    pub fn submit(
        &self,
        engine: &Engine,
        admission: &AdmissionController,
        counters: &SchedCounters,
        sql: &str,
        prepared: Prepared,
    ) -> Result<QueryResult, QueryError> {
        let cost = prepared.cost_bytes();
        // A statement that can never fit leads no batch: admission
        // rejects it alone.
        let shareable =
            self.batching && prepared.is_shareable() && cost <= admission.config().max_bytes;
        let Some(table) = prepared.scan_table().filter(|_| shareable) else {
            return run_solo(engine, admission, counters, &prepared, None);
        };
        let table = table.to_string();
        let prepared = Arc::new(prepared);
        let mut tables = lock(&self.tables);
        let permit = admission.try_admit(cost);
        let open = tables.get(&table).cloned();
        // Runs now, or is wider than the open batch's permit: alone.
        if permit.is_some() || open.as_ref().is_some_and(|batch| cost > batch.cost) {
            drop(tables);
            return run_solo(engine, admission, counters, &prepared, permit);
        }
        let slot = Slot {
            sql: sql.to_string(),
            prepared: Arc::clone(&prepared),
        };
        if let Some(batch) = open {
            let index = {
                let mut state = lock(&batch.state);
                state.slots.push(slot);
                state.slots.len() - 1
            };
            drop(tables);
            // A batching failure must never lose a client's answer.
            return batch
                .wait(index)
                .unwrap_or_else(|| run_solo(engine, admission, counters, &prepared, None));
        }
        let batch = Arc::new(PendingBatch {
            cost,
            state: Mutex::new(BatchState {
                slots: vec![slot],
                results: None,
            }),
            done: Condvar::new(),
        });
        tables.insert(table.clone(), Arc::clone(&batch));
        drop(tables);

        // Leader: wait in admission's line while followers join, then
        // take the batch off the map (joins stop) and run it as one pass.
        let admitted = admission.admit_tracked(cost);
        lock(&self.tables).remove(&table);
        // Slots are only pushed while the batch is in the map, so after
        // the remove above they are final.
        let slots = std::mem::take(&mut lock(&batch.state).slots);

        // Deduplicate identical statements: ask once, answer everyone.
        let mut unique: Vec<&Slot> = Vec::new();
        let slot_to_unique: Vec<usize> = slots
            .iter()
            .map(|slot| {
                let known = unique.iter().position(|u| u.sql == slot.sql);
                known.unwrap_or_else(|| {
                    unique.push(slot);
                    unique.len() - 1
                })
            })
            .collect();
        let unique: Vec<&Prepared> = unique.iter().map(|slot| &*slot.prepared).collect();

        let results: Vec<Result<QueryResult, QueryError>> = match admitted {
            Ok((_permit, waited)) => {
                for _ in &slots {
                    counters.record_admitted(waited);
                }
                counters.observe_running(admission.load().0 as u64);
                let (unique_results, shared_pass) = engine.execute_batch(&unique);
                let deduped = unique.len() < slots.len();
                if slots.len() > 1 && (shared_pass || deduped) {
                    counters.record_shared_pass(slots.len() as u64);
                }
                slot_to_unique
                    .iter()
                    .map(|&u| unique_results[u].clone())
                    .collect()
            }
            Err(e) => slots
                .iter()
                .map(|_| {
                    counters.record_rejected();
                    Err(QueryError::Engine(e.clone()))
                })
                .collect(),
        };
        let own = results[0].clone();
        lock(&batch.state).results = Some(results);
        batch.done.notify_all();
        own
    }

    /// Slots in `table`'s open batch (0 when none is open).
    #[cfg(test)]
    fn open_slots(&self, table: &str) -> usize {
        lock(&self.tables)
            .get(table)
            .map_or(0, |batch| lock(&batch.state).slots.len())
    }
}

/// Run one statement alone: admit it (unless `permit` is the one
/// [`AdmissionController::try_admit`] already granted), count what
/// admission did, and execute it under its permit.
fn run_solo(
    engine: &Engine,
    admission: &AdmissionController,
    counters: &SchedCounters,
    prepared: &Prepared,
    permit: Option<Permit<'_>>,
) -> Result<QueryResult, QueryError> {
    let (_permit, waited) = match permit {
        Some(permit) => (permit, false),
        None => admission
            .admit_tracked(prepared.cost_bytes())
            .map_err(|e| {
                counters.record_rejected();
                QueryError::Engine(e)
            })?,
    };
    counters.record_admitted(waited);
    counters.observe_running(admission.load().0 as u64);
    engine.execute(prepared)
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("batching", &self.batching)
            .field("open_tables", &lock(&self.tables).len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    use fts_core::AdmissionConfig;
    use fts_storage::{Column, ColumnDef, DataType, Table};

    fn engine() -> Engine {
        let rows = 8192;
        let engine = Engine::new();
        engine.register(
            "orders",
            Table::from_chunked_columns(
                vec![
                    ColumnDef::new("quantity", DataType::U32),
                    ColumnDef::new("discount", DataType::U32),
                    ColumnDef::new("price", DataType::I64),
                ],
                vec![
                    Column::from_fn(rows, |i| (i % 50) as u32),
                    Column::from_fn(rows, |i| (i % 11) as u32),
                    Column::from_fn(rows, |i| i as i64),
                ],
                1024,
            )
            .expect("test table"),
        );
        engine
    }

    fn solo(engine: &Engine, sql: &str) -> QueryResult {
        engine.execute(&engine.prepare(sql).unwrap()).unwrap()
    }

    fn submit(
        batcher: &Batcher,
        engine: &Engine,
        admission: &AdmissionController,
        counters: &SchedCounters,
        sql: &str,
    ) -> QueryResult {
        let prepared = engine.prepare(sql).unwrap();
        batcher
            .submit(engine, admission, counters, sql, prepared)
            .unwrap()
    }

    #[test]
    fn statements_waiting_for_admission_share_one_pass() {
        let engine = engine();
        let admission = AdmissionController::new(AdmissionConfig {
            max_concurrent: 1,
            ..AdmissionConfig::default()
        });
        let counters = SchedCounters::new();
        let batcher = Batcher::new(true);
        // One predicate each, so every statement costs the same and any
        // of them may lead.
        let statements = [
            "SELECT COUNT(*) FROM orders WHERE quantity < 25",
            "SELECT COUNT(*) FROM orders WHERE quantity < 25",
            "SELECT SUM(price) FROM orders WHERE discount = 3",
            "SELECT MAX(price) FROM orders WHERE quantity >= 40",
            "SELECT MIN(price) FROM orders WHERE discount <= 5",
        ];
        let held = admission.try_admit(0).expect("an idle server admits");
        let answers: Vec<QueryResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = statements
                .iter()
                .map(|sql| scope.spawn(|| submit(&batcher, &engine, &admission, &counters, sql)))
                .collect();
            while batcher.open_slots("orders") < statements.len() {
                std::thread::yield_now();
            }
            drop(held);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (sql, answer) in statements.iter().zip(&answers) {
            assert_eq!(answer, &solo(&engine, sql), "{sql}");
        }
        let snap = counters.snapshot();
        assert_eq!(snap.shared_batches, 1);
        assert_eq!(snap.shared_queries, statements.len() as u64);
        assert_eq!(batcher.open_slots("orders"), 0);
    }

    #[test]
    fn statements_admission_can_run_now_run_alone() {
        let engine = engine();
        let admission = AdmissionController::new(AdmissionConfig {
            max_concurrent: 2,
            ..AdmissionConfig::default()
        });
        let counters = SchedCounters::new();
        let batcher = Batcher::new(true);
        let sql = "SELECT COUNT(*) FROM orders WHERE quantity < 25";
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    submit(&batcher, &engine, &admission, &counters, sql)
                });
            }
        });
        let snap = counters.snapshot();
        assert_eq!(snap.shared_batches, 0);
        assert_eq!(snap.queued, 0);
        assert_eq!(snap.admitted, 2);
    }

    #[test]
    fn a_follower_wider_than_its_leader_runs_alone() {
        let engine = engine();
        let narrow = "SELECT COUNT(*) FROM orders WHERE quantity < 25";
        let wide = "SELECT COUNT(*) FROM orders WHERE quantity < 25 AND discount = 3";
        let cost = |sql| engine.prepare(sql).unwrap().cost_bytes();
        let (n, w) = (cost(narrow), cost(wide));
        assert!(n < w);
        // The budget holds the wide statement, but never both at once.
        let admission = AdmissionController::new(AdmissionConfig {
            max_concurrent: 2,
            max_queued: 4,
            max_bytes: w,
        });
        let counters = SchedCounters::new();
        let batcher = Batcher::new(true);
        let held = admission.try_admit(w - n + 1).unwrap();
        let (narrow_answer, wide_answer) = std::thread::scope(|scope| {
            let narrow_h = scope.spawn(|| submit(&batcher, &engine, &admission, &counters, narrow));
            while batcher.open_slots("orders") == 0 {
                std::thread::yield_now();
            }
            let wide_h = scope.spawn(|| submit(&batcher, &engine, &admission, &counters, wide));
            // The wide statement either waits in admission's line beside
            // the narrow leader, or joins the narrow pass; only the first
            // is right.
            while admission.load().1 + batcher.open_slots("orders") < 3 {
                std::thread::yield_now();
            }
            assert_eq!(batcher.open_slots("orders"), 1);
            drop(held);
            (narrow_h.join().unwrap(), wide_h.join().unwrap())
        });
        assert_eq!(narrow_answer, solo(&engine, narrow));
        assert_eq!(wide_answer, solo(&engine, wide));
        let snap = counters.snapshot();
        assert_eq!(snap.shared_batches, 0);
        assert_eq!(snap.queued, 2);
        // n + w > max_bytes: the two never ran together.
        assert_eq!(snap.peak_running, 1);
        assert_eq!(admission.load(), (0, 0));
    }
}
