//! Interactive SQL shell over the fused-table-scan engine.
//!
//! ```text
//! cargo run --release --bin fts-sql [rows]
//! ```
//!
//! Starts with a demo `orders` table (plain, dictionary-encoded and
//! bit-packed variants) and reads one statement per line. `EXPLAIN
//! SELECT …` shows the optimized plan with the fused-chain tagging;
//! `\help` lists commands.

use std::io::{BufRead, Write};

use fused_table_scan::query::{Engine, QueryResult};
use fused_table_scan::storage::{Column, ColumnDef, DataType, Table};

fn build_demo(rows: usize) -> Table {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut r1 = StdRng::seed_from_u64(1);
    let mut r2 = StdRng::seed_from_u64(2);
    let mut r3 = StdRng::seed_from_u64(3);
    let mut r4 = StdRng::seed_from_u64(4);
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("quantity", DataType::U32),
            ColumnDef::new("discount", DataType::U32),
            ColumnDef::new("shipdate", DataType::U32),
            ColumnDef::new("price", DataType::I64),
        ],
        vec![
            Column::from_fn(rows, |_| r1.random_range(1u32..=50)),
            Column::from_fn(rows, |_| r2.random_range(0u32..=10)),
            Column::from_fn(rows, |_| r3.random_range(19_940_101u32..=19_961_231)),
            Column::from_fn(rows, |_| r4.random_range(900i64..=105_000)),
        ],
        1 << 20,
    )
    .expect("demo table")
}

fn print_result(result: QueryResult, elapsed_ms: f64) {
    match result {
        QueryResult::Count(n) => println!("COUNT(*) = {n}"),
        QueryResult::Explain(plan) => print!("{plan}"),
        QueryResult::Rows { columns, rows } => {
            println!("{}", columns.join(" | "));
            println!("{}", "-".repeat(columns.join(" | ").len().max(8)));
            let shown = rows.len().min(25);
            for row in rows.iter().take(shown) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("{}", cells.join(" | "));
            }
            if rows.len() > shown {
                println!("… {} more row(s)", rows.len() - shown);
            }
            println!("({} row(s))", rows.len());
        }
    }
    println!("[{elapsed_ms:.2} ms]");
}

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(2_000_000);

    // The same shared engine `fts-server` serves concurrently; this REPL
    // is just its single-connection frontend.
    let db = Engine::new();
    eprintln!("loading demo tables ({rows} rows each)…");
    let orders = build_demo(rows);
    db.register(
        "orders_dict",
        orders.with_dictionary_encoding(&[3]).expect("dict"),
    );
    db.register(
        "orders_packed",
        orders.with_bitpacking(&[0, 1]).expect("pack"),
    );
    db.register("orders", orders);
    eprintln!(
        "tables: {} | SIMD: {} | try:\n  SELECT COUNT(*) FROM orders WHERE quantity = 5 AND discount = 2\n  EXPLAIN SELECT SUM(price) FROM orders WHERE discount >= 5 AND quantity < 24\n  EXPLAIN ANALYZE SELECT COUNT(*) FROM orders WHERE quantity < 3 OR NOT discount <= 8\n  \\help",
        db.catalog().table_names().join(", "),
        fused_table_scan::simd::detect(),
    );

    let stdin = std::io::stdin();
    loop {
        print!("fts> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\q" | "exit" | "quit" => break,
            "\\help" => {
                println!(
                    "statements:\n  SELECT COUNT(*)|SUM(c)|MIN(c)|MAX(c)|AVG(c)|cols|* FROM t \
                     [WHERE pred] [LIMIT n]\n  EXPLAIN [ANALYZE] SELECT …\nWHERE grammar \
                     (NOT > AND > OR, parentheses group):\n  pred := c OP lit | lit OP c | \
                     c BETWEEN lo AND hi | (pred) | NOT pred\n          | pred AND pred | \
                     pred OR pred      OP ∈ {{= <> < <= > >=}}\n  the root's leaf conjuncts \
                     drive one fused scan, the rest filters (EXPLAIN shows the tree)\ncommands:\n  \
                     \\tables   list tables\n  \\jit      kernel-cache statistics\n  \\stats    chunk-pruning counters\n  \\q        quit"
                );
            }
            "\\tables" => println!("{}", db.catalog().table_names().join("\n")),
            "\\stats" => {
                use std::sync::atomic::Ordering;
                println!(
                    "chunks scanned: {}   chunks pruned by min/max: {}",
                    db.context().chunks_scanned.load(Ordering::Relaxed),
                    db.context().chunks_pruned.load(Ordering::Relaxed)
                );
            }
            "\\jit" => {
                let stats = db.context().kernels.stats();
                println!(
                    "{} kernel(s) cached; {} hits / {} misses; {:?} total compile time",
                    db.context().kernels.len(),
                    stats.hits,
                    stats.misses,
                    stats.compile_time
                );
            }
            sql => {
                let t = std::time::Instant::now();
                match db.query(sql) {
                    Ok(result) => print_result(result, t.elapsed().as_secs_f64() * 1e3),
                    Err(e) => println!("error: {e}"),
                }
            }
        }
    }
}
