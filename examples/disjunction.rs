//! Boolean predicate trees end to end: WHERE clauses with OR/NOT are
//! normalized to NNF and run as one driver plus a filter tree — the root's
//! leaf conjuncts drive one fused scan per chunk, and each OR child sees
//! only the rows no earlier child accepted. `EXPLAIN ANALYZE` reports rows
//! in and out per tree node.
//!
//! The example checks itself: every `COUNT(*)` must equal a count over
//! the generated column vectors, and the repeated steady-state statement
//! must compile no kernel. It exits non-zero otherwise.
//!
//! Usage: `cargo run --release --example disjunction [rows]`

use std::process::ExitCode;

use fused_table_scan::query::{Engine, QueryResult};
use fused_table_scan::storage::{Column, ColumnDef, DataType, Table};

/// The generated columns, kept to check the engine's answers.
struct Orders {
    status: Vec<u32>,
    prio: Vec<u32>,
    quantity: Vec<u32>,
}

impl Orders {
    fn generate(rows: usize) -> Orders {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let column = |seed: u64, lo: u32, hi: u32| {
            let mut r = StdRng::seed_from_u64(seed);
            (0..rows).map(|_| r.random_range(lo..=hi)).collect()
        };
        Orders {
            status: column(1, 0, 19),
            prio: column(2, 0, 3),
            quantity: column(3, 1, 50),
        }
    }

    fn table(&self) -> Table {
        Table::from_chunked_columns(
            vec![
                ColumnDef::new("status", DataType::U32),
                ColumnDef::new("prio", DataType::U32),
                ColumnDef::new("quantity", DataType::U32),
            ],
            vec![
                Column::from_vec(self.status.clone()),
                Column::from_vec(self.prio.clone()),
                Column::from_vec(self.quantity.clone()),
            ],
            1 << 16,
        )
        .expect("demo table")
    }

    /// Rows where `holds(status, prio, quantity)`.
    fn count(&self, holds: impl Fn(u32, u32, u32) -> bool) -> u64 {
        (0..self.status.len())
            .filter(|&i| holds(self.status[i], self.prio[i], self.quantity[i]))
            .count() as u64
    }
}

fn show(db: &Engine, sql: &str) -> QueryResult {
    println!("SQL> {sql}");
    let t = std::time::Instant::now();
    let result = db.query(sql).expect("query");
    match &result {
        QueryResult::Count(n) => println!("  => COUNT(*) = {n}"),
        QueryResult::Rows { rows, .. } => println!("  => {} row(s)", rows.len()),
        QueryResult::Explain(text) => {
            for line in text.lines() {
                println!("  | {line}");
            }
        }
    }
    println!("  [{:.2} ms]\n", t.elapsed().as_secs_f64() * 1e3);
    result
}

type Check = (&'static str, fn(u32, u32, u32) -> bool);

fn main() -> ExitCode {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(2_000_000);

    let db = Engine::new();
    println!("building orders table with {rows} rows…\n");
    let orders = Orders::generate(rows);
    db.register("orders", orders.table());

    // A root AND: `quantity < 10` drives, and the one-column OR filters
    // its survivors in one loop. Then a root OR: each conjunctive chain
    // drives its own scan, and the chunk bitmap merges them in position
    // order.
    show(
        &db,
        "EXPLAIN SELECT COUNT(*) FROM orders \
         WHERE (status = 5 OR status = 7) AND quantity < 10",
    );
    show(
        &db,
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM orders \
         WHERE quantity < 3 OR status = 5 AND prio = 1",
    );
    // NOT normalizes into complemented operators before planning — this
    // one is an ordinary conjunctive fused chain (De Morgan).
    show(
        &db,
        "EXPLAIN SELECT COUNT(*) FROM orders WHERE NOT (status = 5 OR prio = 1)",
    );

    let checks: [Check; 5] = [
        ("(status = 5 OR status = 7) AND quantity < 10", |s, _, q| {
            (s == 5 || s == 7) && q < 10
        }),
        ("quantity < 3 OR status = 5 AND prio = 1", |s, p, q| {
            q < 3 || (s == 5 && p == 1)
        }),
        (
            "status = 5 AND prio = 1 OR status = 5 AND prio = 2",
            |s, p, _| s == 5 && (p == 1 || p == 2),
        ),
        (
            "(status < 3 OR prio = 2) AND (quantity > 45 OR status = 9)",
            |s, p, q| (s < 3 || p == 2) && (q > 45 || s == 9),
        ),
        (
            "NOT (status = 5 OR prio = 1) AND quantity = 7",
            |s, p, q| !(s == 5 || p == 1) && q == 7,
        ),
    ];
    let mut failed = false;
    for (clause, holds) in checks {
        let sql = format!("SELECT COUNT(*) FROM orders WHERE {clause}");
        let want = QueryResult::Count(orders.count(holds));
        let got = show(&db, &sql);
        if got != want {
            eprintln!("MISMATCH: {sql}: engine {got:?}, column vectors {want:?}");
            failed = true;
        }
    }

    // Steady state: re-running a disjunctive statement is all cache hits —
    // kernels are keyed on the driver chains, never on the tree's shape.
    let sql = "SELECT COUNT(*) FROM orders WHERE status = 5 AND prio = 1 OR quantity = 7";
    db.query(sql).expect("warm-up");
    let misses = || {
        let ctx = db.context();
        ctx.kernels.stats().misses + ctx.packed_kernels.stats().misses
    };
    let before = misses();
    db.query(sql).expect("steady state");
    let compiled = misses() - before;
    println!("steady-state JIT cache: {compiled} miss(es) on the repeated statement");
    if compiled > 0 {
        eprintln!("MISMATCH: the repeated statement compiled {compiled} kernel(s)");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
