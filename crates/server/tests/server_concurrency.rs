//! Concurrency guarantees of the query server, exercised end to end over
//! TCP: the differential guarantee (concurrent == sequential), load
//! shedding with explicit `Overloaded` errors, byte-budget rejection of
//! oversized statements, and absence of deadlock under sustained
//! over-subscription. Scan sharing over the wire is tested in
//! `shared_pass.rs`.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use fts_core::AdmissionConfig;
use fts_query::Engine;
use fts_server::{AdvisorConfig, Request, Response, ServerConfig};
use fts_storage::{Column, ColumnDef, DataType, Layout, Table};

mod common;
use common::{roundtrip, serve, start_server, test_table, CHUNK, ROWS};

#[test]
fn ping_and_stats_respond() {
    let (_server, addr) = start_server(ServerConfig::default());
    assert_eq!(roundtrip(addr, "PING"), Response::Ok("pong".into()));
    let stats = roundtrip(addr, "STATS");
    assert!(stats.is_ok());
    assert!(stats.body().contains("admission:"), "{}", stats.body());
    assert!(stats.body().contains("batching:"), "{}", stats.body());
}

#[test]
fn parse_errors_are_clean_protocol_errors() {
    let (_server, addr) = start_server(ServerConfig::default());
    let resp = roundtrip(addr, "SELEKT nonsense");
    assert!(!resp.is_ok());
    // The connection must survive a bad statement.
    assert_eq!(roundtrip(addr, "PING"), Response::Ok("pong".into()));
}

/// The differential guarantee: 16 concurrent clients with a mix of
/// statements get byte-identical answers to a sequential run of the same
/// statements — batching and admission must be invisible in the results.
#[test]
fn sixteen_concurrent_clients_match_sequential() {
    let statements: Vec<String> = (0..16)
        .map(|i| match i % 4 {
            0 => "SELECT COUNT(*) FROM orders WHERE quantity < 25".to_string(),
            1 => format!(
                "SELECT COUNT(*) FROM orders WHERE quantity < 25 AND discount = {}",
                i % 11
            ),
            2 => "SELECT SUM(price) FROM orders WHERE quantity = 5 AND discount = 2".to_string(),
            _ => format!("SELECT MAX(price) FROM orders WHERE discount >= {}", i % 11),
        })
        .collect();

    // Sequential reference on a dedicated engine.
    let reference_engine = Engine::new();
    reference_engine.register("orders", test_table());
    let reference: Vec<String> = statements
        .iter()
        .map(|s| {
            let prepared = reference_engine.prepare(s).expect("prepare");
            let result = reference_engine.execute(&prepared).expect("execute");
            fts_server::server::render_result(&result)
        })
        .collect();

    // One statement runs at a time, so statements that overlap wait for
    // admission and coalesce.
    let (server, addr) = start_server(ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 1,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    });

    let handles: Vec<_> = statements
        .iter()
        .cloned()
        .map(|s| std::thread::spawn(move || roundtrip(addr, &s)))
        .collect();
    let responses: Vec<Response> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();

    for (i, (resp, expect)) in responses.iter().zip(&reference).enumerate() {
        assert!(resp.is_ok(), "client {i} failed: {}", resp.body());
        assert_eq!(resp.body(), expect, "client {i} diverged");
    }

    let snap = server.counters().snapshot();
    assert_eq!(
        snap.admitted + snap.queued,
        16,
        "all 16 admitted (fast or queued)"
    );
    assert_eq!(snap.completed, 16);
    assert_eq!(snap.rejected, 0);
}

/// The differential guarantee survives background re-encoding: 16
/// concurrent clients hammer the server while the layout advisor rewrites
/// chunks underneath them (both its background thread and a synchronous
/// pass forced mid-flight). Every response must still match the
/// sequential reference, and the advisor must actually have re-encoded
/// something for the run to mean anything.
#[test]
fn background_reencoding_preserves_differential_guarantee() {
    let statements: Vec<String> = (0..16)
        .map(|i| match i % 4 {
            0 => "SELECT COUNT(*) FROM orders WHERE quantity < 25".to_string(),
            1 => format!(
                "SELECT COUNT(*) FROM orders WHERE quantity < 25 AND discount = {}",
                i % 11
            ),
            2 => "SELECT SUM(price) FROM orders WHERE quantity = 5 AND discount = 2".to_string(),
            _ => format!("SELECT MAX(price) FROM orders WHERE discount >= {}", i % 11),
        })
        .collect();

    let reference_engine = Engine::new();
    reference_engine.register("orders", test_table());
    let reference: Vec<String> = statements
        .iter()
        .map(|s| {
            let prepared = reference_engine.prepare(s).expect("prepare");
            let result = reference_engine.execute(&prepared).expect("execute");
            fts_server::server::render_result(&result)
        })
        .collect();

    let (server, addr) = start_server(ServerConfig {
        advisor: AdvisorConfig {
            enabled: true,
            interval: Duration::from_millis(1),
            min_rows: 0,
            ..AdvisorConfig::default()
        },
        ..ServerConfig::default()
    });

    // Each client replays its statement several times so traffic overlaps
    // the rewrites; a synchronous advisor pass forced from this thread
    // guarantees at least one rewrite happens mid-flight.
    let handles: Vec<_> = statements
        .iter()
        .cloned()
        .map(|s| {
            std::thread::spawn(move || (0..6).map(|_| roundtrip(addr, &s)).collect::<Vec<_>>())
        })
        .collect();
    server.run_advisor_once();
    let responses: Vec<Vec<Response>> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();
    server.stop_advisor();

    for (i, (resps, expect)) in responses.iter().zip(&reference).enumerate() {
        for (round, resp) in resps.iter().enumerate() {
            assert!(resp.is_ok(), "client {i} round {round}: {}", resp.body());
            assert_eq!(resp.body(), expect, "client {i} round {round} diverged");
        }
    }

    let advisor = server.advisor_counters().snapshot();
    assert!(
        advisor.chunks_reencoded > 0,
        "advisor never re-encoded anything: {advisor:?}"
    );
    assert!(advisor.bytes_saved() > 0, "narrow u32 columns must shrink");

    // The narrow u32 columns actually moved off Plain.
    let catalog = server.engine().catalog();
    let table = &catalog.get("orders").expect("orders").table;
    assert_ne!(table.chunks()[0].segment(0).layout(), Layout::Plain);

    // And the counters are visible over the wire.
    let stats = roundtrip(addr, "STATS");
    assert!(
        stats.body().contains("advisor: passes="),
        "{}",
        stats.body()
    );
    assert!(
        stats.body().contains("advisor decode GB/s:"),
        "{}",
        stats.body()
    );
    let analyze = roundtrip(
        addr,
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM orders WHERE quantity < 25",
    );
    assert!(
        analyze.body().contains("advisor_passes="),
        "{}",
        analyze.body()
    );
}

/// Load shedding: a tiny admission budget with a tiny queue must reject
/// the overflow with an explicit overloaded error — and every client must
/// still get *some* answer (result or clean rejection), never a hang.
#[test]
fn overload_sheds_with_explicit_error_and_no_deadlock() {
    let (server, addr) = start_server(ServerConfig {
        admission: AdmissionConfig {
            max_concurrent: 1,
            max_queued: 1,
            ..AdmissionConfig::default()
        },
        batching: false,
        ..ServerConfig::default()
    });

    const CLIENTS: usize = 24;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                roundtrip(addr, "SELECT COUNT(*) FROM orders WHERE quantity < 25")
            })
        })
        .collect();
    let responses: Vec<Response> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();

    let expect = format!("COUNT(*) = {}", (0..ROWS).filter(|i| i % 50 < 25).count());
    let mut ok = 0usize;
    let mut shed = 0usize;
    for resp in &responses {
        if resp.is_ok() {
            assert_eq!(resp.body(), expect);
            ok += 1;
        } else {
            assert!(
                resp.body().contains("overloaded"),
                "unexpected error: {}",
                resp.body()
            );
            shed += 1;
        }
    }
    assert_eq!(ok + shed, CLIENTS, "every client got an answer");
    assert!(ok >= 2, "the budget admits at least running + queued");

    let snap = server.counters().snapshot();
    assert_eq!((snap.admitted + snap.queued) as usize, ok);
    assert_eq!(snap.rejected as usize, shed);
    assert!(
        snap.peak_running <= 1,
        "budget exceeded: {}",
        snap.peak_running
    );
}

/// Byte budget: a statement whose scan-cost estimate exceeds `max_bytes`
/// is rejected outright even on an idle server.
#[test]
fn oversized_statement_rejected_by_byte_budget() {
    let (_server, addr) = start_server(ServerConfig {
        admission: AdmissionConfig {
            max_bytes: 1024, // far below the table's scan cost
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    });
    let resp = roundtrip(addr, "SELECT COUNT(*) FROM orders WHERE quantity < 25");
    assert!(!resp.is_ok());
    assert!(
        resp.body().contains("overloaded"),
        "unexpected error: {}",
        resp.body()
    );
    // A cheap server command still works.
    assert_eq!(roundtrip(addr, "PING"), Response::Ok("pong".into()));
}

/// `STATS` reports plain and packed kernels as one cache: its `jit:` line
/// sums both caches' stats and lengths.
#[test]
fn stats_jit_line_counts_packed_kernels() {
    let engine = Engine::new();
    engine.register(
        "packed",
        test_table().with_bitpacking(&[0, 1]).expect("bit-packing"),
    );
    let (server, addr) = serve(engine, ServerConfig::default());
    let resp = roundtrip(
        addr,
        "SELECT COUNT(*) FROM packed WHERE quantity < 25 AND discount = 3",
    );
    assert_eq!(
        resp.body(),
        format!(
            "COUNT(*) = {}",
            (0..ROWS).filter(|i| i % 50 < 25 && i % 11 == 3).count()
        )
    );
    let stats = roundtrip(addr, "STATS");
    let ctx = server.engine().context();
    let jit = ctx.jit_stats();
    let line = format!(
        "jit: kernels={} hits={} misses={} evictions={}",
        ctx.kernels.len() + ctx.packed_kernels.len(),
        jit.hits,
        jit.misses,
        jit.evictions
    );
    assert!(
        stats.body().lines().any(|l| l == line),
        "want `{line}` in:\n{}",
        stats.body()
    );
}

/// One connection can issue many statements back to back (pipelining one
/// at a time), and EXPLAIN ANALYZE through the server carries the
/// scheduler telemetry lines.
#[test]
fn connection_reuse_and_analyze_telemetry() {
    let (_server, addr) = start_server(ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);

    for _ in 0..3 {
        Request {
            statement: "SELECT COUNT(*) FROM orders WHERE quantity = 7".into(),
        }
        .write(&mut writer)
        .expect("write");
        let resp = Response::read(&mut reader).expect("read").expect("resp");
        assert!(resp.is_ok());
    }

    Request {
        statement: "EXPLAIN ANALYZE SELECT COUNT(*) FROM orders WHERE quantity = 7".into(),
    }
    .write(&mut writer)
    .expect("write");
    let resp = Response::read(&mut reader).expect("read").expect("resp");
    assert!(resp.is_ok());
    assert!(
        resp.body().contains("server: admitted="),
        "missing scheduler telemetry:\n{}",
        resp.body()
    );
    assert!(resp.body().contains("shared_passes="));
}

/// A result whose rendered text does not fit one 16 MiB frame is answered
/// with an `E` frame that names its size and the limit, and the same
/// connection keeps serving.
#[test]
fn oversized_result_gets_an_error_frame_and_the_connection_survives() {
    // 200 K rows × 4 twenty-digit values ≈ 18 MB of rendered text.
    let rows = 200_000;
    let engine = Engine::new();
    engine.register(
        "wide",
        Table::from_chunked_columns(
            (0..4)
                .map(|i| ColumnDef::new(format!("v{i}"), DataType::U64))
                .collect(),
            (0..4)
                .map(|_| Column::from_fn(rows, |i| u64::MAX - i as u64))
                .collect(),
            64 * CHUNK,
        )
        .expect("wide table"),
    );
    let (_server, addr) = serve(engine, ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let mut ask = |statement: &str| {
        Request {
            statement: statement.into(),
        }
        .write(&mut writer)
        .expect("write");
        Response::read(&mut reader)
            .expect("read")
            .expect("response")
    };

    let resp = ask("SELECT v0, v1, v2, v3 FROM wide");
    assert!(!resp.is_ok(), "an oversized result cannot be an O frame");
    let body = resp.body();
    assert!(body.contains("16 MiB"), "{body}");
    let size: usize = body
        .split_whitespace()
        .find_map(|w| w.parse().ok())
        .expect("the error names the rendered size");
    assert!(size > fts_server::MAX_FRAME_BYTES, "{body}");

    assert_eq!(ask("PING"), Response::Ok("pong".into()));
    assert!(ask("SELECT COUNT(*) FROM wide").is_ok());
}

/// An integer SUM whose exact total leaves the `i64` range is answered
/// with an `E` frame naming the aggregate, not a clamped number, and the
/// server keeps serving.
#[test]
fn sum_overflow_gets_an_error_frame() {
    let engine = Engine::new();
    engine.register(
        "huge",
        Table::from_chunked_columns(
            vec![
                ColumnDef::new("big", DataType::I64),
                ColumnDef::new("wide", DataType::U64),
            ],
            vec![
                Column::from_vec(vec![i64::MAX, i64::MAX, -3]),
                Column::from_vec(vec![u64::MAX, 1 << 63, 8]),
            ],
            2,
        )
        .expect("huge table"),
    );
    let (_server, addr) = serve(engine, ServerConfig::default());
    for aggregate in ["sum(big)", "sum(wide)"] {
        let resp = roundtrip(addr, &format!("SELECT {aggregate} FROM huge"));
        assert!(!resp.is_ok(), "{aggregate}: {}", resp.body());
        assert!(
            resp.body().contains(aggregate) && resp.body().contains("overflows i64"),
            "{}",
            resp.body()
        );
    }
    assert!(roundtrip(addr, "SELECT AVG(big), MAX(wide) FROM huge").is_ok());
    assert_eq!(roundtrip(addr, "PING"), Response::Ok("pong".into()));
}
