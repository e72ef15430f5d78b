//! Sixteen wire-protocol clients against one in-process `fts-server`:
//! demonstrates admission control, shared-pass batching, and the
//! latency distribution under concurrent load.
//!
//! ```text
//! cargo run --release --example concurrent_clients [-- clients rows]
//! ```
//!
//! Starts a `QueryServer` on a loopback port, then runs `clients`
//! threads, each opening a real TCP connection and issuing a small mix
//! of aggregate statements over the same table. Prints per-client
//! results, the p50/p99 statement latency, and the server's `STATS`
//! (including the shared-pass hit rate — with 16 clients on a few cores
//! most statements wait for admission, and those that wait share table
//! passes).

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use fts_server::{QueryServer, Request, Response, ServerConfig};
use fused_table_scan::query::Engine;
use fused_table_scan::storage::{Column, ColumnDef, DataType, Table};

const ROUNDS: usize = 6;

fn statement(client: usize, round: usize) -> String {
    match client % 4 {
        0 => format!(
            "SELECT COUNT(*) FROM orders WHERE quantity < 25 AND discount = {}",
            round % 11
        ),
        1 => format!(
            "SELECT COUNT(*) FROM orders WHERE quantity < {}",
            10 + round
        ),
        2 => format!(
            "SELECT SUM(price) FROM orders WHERE quantity = {} AND discount <= 5",
            5 + (round % 8)
        ),
        _ => format!(
            "SELECT MAX(price) FROM orders WHERE discount >= {}",
            round % 11
        ),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let clients: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let rows: usize = args
        .next()
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(4_000_000);

    eprintln!("building demo table ({rows} rows)…");
    let table = Table::from_chunked_columns(
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
    .expect("demo table");
    let engine = Engine::new();
    engine.register("orders", table);

    let server = Arc::new(QueryServer::new(Arc::new(engine), ServerConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accept = Arc::clone(&server);
    std::thread::spawn(move || {
        let _ = accept.serve(listener);
    });
    eprintln!("server on {addr}; launching {clients} clients × {ROUNDS} statements…\n");

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = BufWriter::new(stream);
                let mut latencies = Vec::with_capacity(ROUNDS);
                let mut last = String::new();
                for r in 0..ROUNDS {
                    let t = Instant::now();
                    Request {
                        statement: statement(c, r),
                    }
                    .write(&mut writer)
                    .expect("write");
                    let resp = Response::read(&mut reader)
                        .expect("read")
                        .expect("response");
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    assert!(resp.is_ok(), "client {c}: {}", resp.body());
                    last = resp.body().lines().next().unwrap_or("").to_string();
                }
                (c, last, latencies)
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::new();
    for h in handles {
        let (c, last, lat) = h.join().expect("client");
        println!("client {c:2}: last answer: {last}");
        latencies.extend(lat);
    }
    let wall = start.elapsed().as_secs_f64();

    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    println!(
        "\n{} statements in {:.2}s ({:.0} statements/s); latency p50 {:.2} ms, p99 {:.2} ms",
        clients * ROUNDS,
        wall,
        (clients * ROUNDS) as f64 / wall,
        pct(0.50),
        pct(0.99),
    );

    let snap = server.counters().snapshot();
    println!(
        "shared passes: {} serving {} statements (hit rate {:.0}%)\n",
        snap.shared_batches,
        snap.shared_queries,
        snap.shared_hit_rate() * 100.0
    );
    println!("server STATS:\n{}", server.stats_text());
}
