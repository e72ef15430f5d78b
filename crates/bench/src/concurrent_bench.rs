//! The concurrent-load benchmark (`BENCH_concurrent.json`): N client
//! threads hammering one [`fts_server::QueryServer`] with compatible
//! aggregate statements, with shared-pass batching on versus off.
//!
//! The `batched` series runs the server as shipped: a statement that
//! admission can run now runs at once and alone, and only statements
//! that must wait for admission share a table pass. The `naive` series
//! disables sharing, so every statement pays for its own pass. The fused
//! scan is compute-bound on one core, so a shared pass saves no
//! bandwidth that matters; it saves the passes of statements that would
//! queue for a core anyway. So the results depend on the host's cores
//! and `max_concurrent` (recorded in the config): below the core count
//! nothing waits and both series should match, and from
//! [`ACCEPTANCE_CLIENTS`] clients on sharing must win. Every response is
//! checked against a sequentially computed reference — the speedup must
//! be invisible in the results.
//!
//! Clients drive [`fts_server::QueryServer::handle`] directly (the TCP
//! layer is just frames around it), so the numbers measure scheduling
//! and execution, not loopback sockets.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use fts_core::AdmissionConfig;
use fts_query::Engine;
use fts_server::{QueryServer, ServerConfig};
use fts_storage::{Column, ColumnDef, DataType, Table};

use crate::report::FigureResult;
use crate::workload::Scale;

/// Client-count axis. The acceptance bar compares batched vs naive at
/// every point ≥ [`ACCEPTANCE_CLIENTS`].
pub const CLIENT_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Batching must beat naive per-client scans from this client count on.
pub const ACCEPTANCE_CLIENTS: usize = 8;

/// Statements each client issues per repetition.
const ROUNDS: usize = 4;

/// Deterministic bench table: the demo `orders` shape with computable
/// predicate counts (quantity cycles 0..50, discount cycles 0..11).
fn bench_table(rows: usize) -> Table {
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("quantity", DataType::U32),
            ColumnDef::new("discount", DataType::U32),
            ColumnDef::new("price", DataType::I64),
        ],
        vec![
            Column::from_fn(rows, |i| (i % 50) as u32),
            Column::from_fn(rows, |i| (i % 11) as u32),
            Column::from_fn(rows, |i| (i as i64).wrapping_mul(31) % 100_000),
        ],
        1 << 18,
    )
    .expect("bench table")
}

/// The statement mix: compatible aggregates over one table, keyed on
/// `(c + r) % 4` so a wave of K concurrent clients carries at most four
/// *distinct* statements however large K grows — the dashboard shape
/// (many clients, few distinct queries) that scan sharing exists for —
/// and every client issues all four shapes over its [`ROUNDS`] rounds,
/// so the mix is the same at every client count. The round `r` also
/// varies the literals so successive waves don't replay byte-identical
/// work. Client `c`, round `r`.
fn statement(c: usize, r: usize) -> String {
    match (c + r) % 4 {
        0 => format!(
            "SELECT COUNT(*) FROM orders WHERE quantity < 25 AND discount = {}",
            r % 11
        ),
        1 => format!("SELECT COUNT(*) FROM orders WHERE quantity < {}", 10 + r),
        2 => format!(
            "SELECT SUM(price) FROM orders WHERE quantity = {} AND discount <= 5",
            5 + (r % 8)
        ),
        _ => format!("SELECT MAX(price) FROM orders WHERE discount >= {}", r % 11),
    }
}

fn fresh_server(table: &Table, batching: bool, clients: usize) -> Arc<QueryServer> {
    let engine = Engine::new();
    engine.register("orders", table.clone());
    let config = ServerConfig {
        admission: AdmissionConfig {
            // The bench measures throughput, not shedding: queue depth
            // covers every client so nothing is rejected.
            max_queued: clients * ROUNDS + 1,
            ..AdmissionConfig::default()
        },
        batching,
        ..ServerConfig::default()
    };
    Arc::new(QueryServer::new(Arc::new(engine), config))
}

struct RunStats {
    total_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    qps: f64,
    shared_hit_rate: f64,
    mismatches: usize,
}

/// One load run: `clients` threads × [`ROUNDS`] statements each against a
/// fresh server, checked against `reference` (indexed `[client][round]`).
fn run_load(table: &Table, batching: bool, clients: usize, reference: &[Vec<String>]) -> RunStats {
    let server = fresh_server(table, batching, clients);
    let barrier = Arc::new(Barrier::new(clients));
    let mismatches = Arc::new(AtomicUsize::new(0));

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let mismatches = Arc::clone(&mismatches);
            let expect: Vec<String> = reference[c].clone();
            std::thread::spawn(move || {
                barrier.wait();
                let mut latencies = Vec::with_capacity(ROUNDS);
                for (r, want) in expect.iter().enumerate() {
                    let t = Instant::now();
                    let resp = server.handle(&statement(c, r));
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    if !resp.is_ok() || resp.body() != want {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::with_capacity(clients * ROUNDS);
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let total_ms = start.elapsed().as_secs_f64() * 1e3;

    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    let snap = server.counters().snapshot();
    RunStats {
        total_ms,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        qps: (clients * ROUNDS) as f64 / (total_ms / 1e3),
        shared_hit_rate: snap.shared_hit_rate(),
        mismatches: mismatches.load(Ordering::Relaxed),
    }
}

/// The concurrent-load sweep: batched vs naive across [`CLIENT_COUNTS`],
/// `scale.reps`-repeated (median of each metric), every response checked
/// against a sequential reference run.
pub fn bench_concurrent(scale: &Scale) -> FigureResult {
    // Floor at 2 M rows so even `--scale quick` scans out of memory, not
    // cache, like a served table.
    let rows = scale.rows.clamp(2_000_000, 8_000_000);
    let reps = scale.reps.clamp(3, 15);
    let table = bench_table(rows);

    // Sequential reference: one engine, one statement at a time.
    let reference_engine = Engine::new();
    reference_engine.register("orders", table.clone());
    let max_clients = *CLIENT_COUNTS.iter().max().expect("non-empty axis");
    let reference: Vec<Vec<String>> = (0..max_clients)
        .map(|c| {
            (0..ROUNDS)
                .map(|r| {
                    let prepared = reference_engine
                        .prepare(&statement(c, r))
                        .expect("reference prepare");
                    let result = reference_engine
                        .execute(&prepared)
                        .expect("reference execute");
                    fts_server::render_result(&result)
                })
                .collect()
        })
        .collect();

    let mut fig = FigureResult::new(
        "BENCH_concurrent",
        "concurrent clients vs one server: shared-pass batching on/off",
        "clients",
    );
    fig.config("rows", rows);
    fig.config("reps", reps);
    fig.config("rounds_per_client", ROUNDS);
    fig.config("isa", fts_simd::detect());
    fig.config(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    fig.config("max_concurrent", AdmissionConfig::default().max_concurrent);

    for &clients in &CLIENT_COUNTS {
        for (label, batching) in [("batched", true), ("naive", false)] {
            let mut total = Vec::with_capacity(reps);
            let mut p50 = Vec::with_capacity(reps);
            let mut p99 = Vec::with_capacity(reps);
            let mut qps = Vec::with_capacity(reps);
            let mut hit = Vec::with_capacity(reps);
            let mut mismatches = 0usize;
            for _ in 0..reps {
                let s = run_load(&table, batching, clients, &reference);
                total.push(s.total_ms);
                p50.push(s.p50_ms);
                p99.push(s.p99_ms);
                qps.push(s.qps);
                hit.push(s.shared_hit_rate);
                mismatches += s.mismatches;
            }
            fig.push(
                label,
                clients as f64,
                &[
                    ("total_ms", median(&mut total)),
                    ("p50_ms", median(&mut p50)),
                    ("p99_ms", median(&mut p99)),
                    ("qps", median(&mut qps)),
                    ("shared_hit_rate", median(&mut hit)),
                    ("differential_mismatches", mismatches as f64),
                ],
            );
        }
    }
    fig
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Acceptance check: `(worst batched/naive total-time ratio at ≥
/// ACCEPTANCE_CLIENTS, total differential mismatches)`. The ratio must be
/// `< 1.0` (batching strictly wins under load) and mismatches `0`.
pub fn acceptance(fig: &FigureResult) -> Option<(f64, u64)> {
    let series = |label: &str| fig.series.iter().find(|s| s.label == label);
    let (batched, naive) = (series("batched")?, series("naive")?);
    let mismatches: u64 = [batched, naive]
        .iter()
        .flat_map(|s| &s.points)
        .map(|p| {
            p.metrics
                .get("differential_mismatches")
                .copied()
                .unwrap_or(0.0) as u64
        })
        .sum();
    let mut worst_ratio = f64::NEG_INFINITY;
    for b in &batched.points {
        if (b.x as usize) < ACCEPTANCE_CLIENTS {
            continue;
        }
        let n = naive.points.iter().find(|p| p.x == b.x)?;
        let ratio = b.metrics.get("total_ms")? / n.metrics.get("total_ms")?;
        worst_ratio = worst_ratio.max(ratio);
    }
    if worst_ratio.is_finite() {
        Some((worst_ratio, mismatches))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn every_client_count_runs_the_same_statement_mix() {
        // A statement's shape is its text without the literals.
        let shape = |sql: String| sql.replace(|ch: char| ch.is_ascii_digit(), "");
        for clients in CLIENT_COUNTS {
            let mut mix: BTreeMap<String, usize> = BTreeMap::new();
            for r in 0..ROUNDS {
                let wave: BTreeSet<String> = (0..clients).map(|c| statement(c, r)).collect();
                assert!(wave.len() <= 4, "{clients} clients, round {r}: {wave:?}");
                for c in 0..clients {
                    *mix.entry(shape(statement(c, r))).or_default() += 1;
                }
            }
            assert_eq!(mix.len(), 4, "{clients} clients: {mix:?}");
            assert!(
                mix.values().all(|&n| n == clients * ROUNDS / 4),
                "{clients} clients: {mix:?}"
            );
        }
    }
}
