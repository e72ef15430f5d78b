//! The full DBMS pipeline of paper Figs. 8–9: SQL → parse → bind →
//! optimize (predicate reordering + fused-chain tagging) → execute.
//!
//! Builds an orders-like table (one column dictionary-encoded to show the
//! value-id rewrite), prints the optimized plans, and runs a few queries —
//! including TPC-H-Q6-style multi-predicate scans the paper's §IV points
//! at.
//!
//! Usage: `cargo run --release --example sql_pipeline`

use fused_table_scan::query::{Engine, QueryResult};
use fused_table_scan::storage::{Column, ColumnDef, DataType, Table};

fn build_orders(rows: usize) -> Table {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    let quantity = Column::from_fn(rows, |_| rng.random_range(1u32..=50));
    let mut rng = StdRng::seed_from_u64(43);
    let discount = Column::from_fn(rows, |_| rng.random_range(0u32..=10)); // percent
    let mut rng = StdRng::seed_from_u64(44);
    let shipdate = Column::from_fn(rows, |_| rng.random_range(19_940_101u32..=19_961_231));
    let mut rng = StdRng::seed_from_u64(45);
    let price = Column::from_fn(rows, |_| rng.random_range(900i64..=105_000));
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("quantity", DataType::U32),
            ColumnDef::new("discount", DataType::U32),
            ColumnDef::new("shipdate", DataType::U32),
            ColumnDef::new("price", DataType::I64),
        ],
        vec![quantity, discount, shipdate, price],
        1 << 20,
    )
    .expect("table")
    // Dictionary-encode the 8-byte price column: its predicates become
    // u32 value-id scans, fused with the rest (paper assumption 3).
    .with_dictionary_encoding(&[3])
    .expect("dictionary encoding")
}

fn show(db: &Engine, sql: &str) {
    println!("SQL> {sql}");
    println!("{}", indent(&db.explain(sql).expect("explain"), "  plan| "));
    let t = std::time::Instant::now();
    match db.query(sql).expect("query") {
        QueryResult::Count(n) => println!("  => COUNT(*) = {n}"),
        QueryResult::Rows { columns, rows } => {
            println!("  => {} row(s) of [{}]", rows.len(), columns.join(", "));
            for row in rows.iter().take(5) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("     ({})", cells.join(", "));
            }
        }
        QueryResult::Explain(text) => println!("{text}"),
    }
    println!("  [{:.2} ms]\n", t.elapsed().as_secs_f64() * 1e3);
}

fn indent(text: &str, prefix: &str) -> String {
    text.lines()
        .map(|l| format!("{prefix}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(4_000_000);

    let db = Engine::new();
    println!("building orders table with {rows} rows…\n");
    db.register("orders", build_orders(rows));

    // TPC-H Q6 shape: three predicates, reordered by selectivity and fused.
    show(
        &db,
        "SELECT COUNT(*) FROM orders WHERE shipdate >= 19950101 AND shipdate < 19960101 \
         AND discount >= 5 AND quantity < 24",
    );

    // The paper's two-equality query.
    show(
        &db,
        "SELECT COUNT(*) FROM orders WHERE quantity = 5 AND discount = 2",
    );

    // Predicate on the dictionary-encoded 8-byte column fuses via value ids.
    show(
        &db,
        "SELECT COUNT(*) FROM orders WHERE price >= 100000 AND discount = 0",
    );

    // Projection with limit.
    show(
        &db,
        "SELECT quantity, price FROM orders WHERE quantity = 50 AND discount = 10 LIMIT 5",
    );

    let stats = db.context().kernels.stats();
    println!(
        "JIT kernel cache: {} kernels compiled in {:?} total, {} cache hits",
        db.context().kernels.len(),
        stats.compile_time,
        stats.hits
    );
}
