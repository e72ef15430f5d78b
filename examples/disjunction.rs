//! Boolean predicate trees end to end: WHERE clauses with OR/NOT are
//! normalized (NNF → DNF → common-prefix factoring), executed as a mask
//! union of fused sub-chains, and reported per sub-chain by
//! `EXPLAIN ANALYZE`.
//!
//! Usage: `cargo run --release --example disjunction [rows]`

use fused_table_scan::query::{Engine, QueryResult};
use fused_table_scan::storage::{Column, ColumnDef, DataType, Table};

fn build_orders(rows: usize) -> Table {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut r1 = StdRng::seed_from_u64(1);
    let mut r2 = StdRng::seed_from_u64(2);
    let mut r3 = StdRng::seed_from_u64(3);
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("status", DataType::U32),
            ColumnDef::new("prio", DataType::U32),
            ColumnDef::new("quantity", DataType::U32),
        ],
        vec![
            Column::from_fn(rows, |_| r1.random_range(0u32..20)),
            Column::from_fn(rows, |_| r2.random_range(0u32..4)),
            Column::from_fn(rows, |_| r3.random_range(1u32..=50)),
        ],
        1 << 16,
    )
    .expect("demo table")
}

fn show(db: &Engine, sql: &str) {
    println!("SQL> {sql}");
    let t = std::time::Instant::now();
    match db.query(sql).expect("query") {
        QueryResult::Count(n) => println!("  => COUNT(*) = {n}"),
        QueryResult::Rows { rows, .. } => println!("  => {} row(s)", rows.len()),
        QueryResult::Explain(text) => {
            for line in text.lines() {
                println!("  | {line}");
            }
        }
    }
    println!("  [{:.2} ms]\n", t.elapsed().as_secs_f64() * 1e3);
}

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(2_000_000);

    let db = Engine::new();
    println!("building orders table with {rows} rows…\n");
    db.register("orders", build_orders(rows));

    // A disjunction of two conjunctive chains sharing `status = 5`: the
    // optimizer factors the shared predicate out as a common prefix and
    // executes the two remaining sub-chains as a mask union.
    show(
        &db,
        "EXPLAIN SELECT COUNT(*) FROM orders \
         WHERE status = 5 AND prio = 1 OR status = 5 AND prio = 2",
    );
    show(
        &db,
        "SELECT COUNT(*) FROM orders \
         WHERE status = 5 AND prio = 1 OR status = 5 AND prio = 2",
    );

    // NOT normalizes into complemented operators before planning — this
    // one is an ordinary conjunctive fused chain (De Morgan).
    show(
        &db,
        "EXPLAIN SELECT COUNT(*) FROM orders WHERE NOT (status = 5 OR prio = 1)",
    );

    // EXPLAIN ANALYZE prints the normalized tree plus per-sub-chain
    // statistics: expected vs observed selectivity, rows in/out, skipped
    // chunks, and each sub-chain's own adaptive-kernel decision.
    show(
        &db,
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM orders \
         WHERE quantity < 3 OR status = 5 AND prio = 1",
    );

    // Steady state: re-running a disjunctive statement is all cache hits —
    // sub-chains are content-addressed, the tree shape is never a key.
    let sql = "SELECT COUNT(*) FROM orders WHERE status = 5 AND prio = 1 OR quantity = 7";
    db.query(sql).expect("warm-up");
    let before = db.context().kernels.stats();
    db.query(sql).expect("steady state");
    let after = db.context().kernels.stats();
    println!(
        "steady-state JIT cache: {} hit(s), {} miss(es) on the repeated statement",
        after.hits - before.hits,
        after.misses - before.misses,
    );
}
