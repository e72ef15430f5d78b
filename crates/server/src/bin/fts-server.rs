//! Long-lived SQL server over the fused-scan engine.
//!
//! ```text
//! cargo run --release --bin fts-server -- [--addr HOST:PORT] [--rows N]
//!     [--no-batch] [--max-concurrent N] [--max-queued N] [--max-bytes B]
//!     [--advisor] [--advisor-interval-ms MS]
//! ```
//!
//! Serves the same demo `orders` tables as `fts-sql` (plain, dictionary
//! and bit-packed variants) over the length-prefixed wire protocol. Talk
//! to it with `fts-client`, or run `examples/concurrent_clients.rs` for a
//! 16-way concurrent load demo.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use fts_query::Engine;
use fts_server::{QueryServer, ServerConfig};
use fts_storage::{Column, ColumnDef, DataType, Table};

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

fn usage() -> ! {
    eprintln!(
        "usage: fts-server [--addr HOST:PORT] [--rows N] [--no-batch] \
         [--max-concurrent N] [--max-queued N] [--max-bytes B] \
         [--advisor] [--advisor-interval-ms MS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:5433".to_string();
    let mut rows: usize = 2_000_000;
    let mut config = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--rows" => {
                rows = value("--rows")
                    .replace('_', "")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--no-batch" => config.batching = false,
            "--max-concurrent" => {
                config.admission.max_concurrent = value("--max-concurrent")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--max-queued" => {
                config.admission.max_queued =
                    value("--max-queued").parse().unwrap_or_else(|_| usage())
            }
            "--max-bytes" => {
                config.admission.max_bytes =
                    value("--max-bytes").parse().unwrap_or_else(|_| usage())
            }
            "--advisor" => config.advisor.enabled = true,
            "--advisor-interval-ms" => {
                config.advisor.interval = Duration::from_millis(
                    value("--advisor-interval-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

    eprintln!("loading demo tables ({rows} rows each)…");
    let engine = Engine::new();
    let orders = build_demo(rows);
    engine.register(
        "orders_dict",
        orders.with_dictionary_encoding(&[3]).expect("dict"),
    );
    engine.register(
        "orders_packed",
        orders.with_bitpacking(&[0, 1]).expect("pack"),
    );
    engine.register("orders", orders);

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "fts-server listening on {addr} (tables: {}; batching: {}; advisor: {}; \
         max_concurrent: {}, max_queued: {})",
        engine.catalog().table_names().join(", "),
        if config.batching { "on" } else { "off" },
        if config.advisor.enabled { "on" } else { "off" },
        config.admission.max_concurrent,
        config.admission.max_queued,
    );
    eprintln!("try: cargo run --release --bin fts-client -- {addr} \"SELECT COUNT(*) FROM orders WHERE quantity = 5 AND discount = 2\"");

    let server = Arc::new(QueryServer::new(Arc::new(engine), config));
    if let Err(e) = server.serve(listener) {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
}
