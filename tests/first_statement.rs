//! A plain statement never runs the peak-bandwidth probe
//! (`fts_core::stride::peak_bandwidth_gbps`, which streams a 32 MiB
//! buffer): the calibrator picks kernels by timing them on the statement's
//! own chunks, so the first statement of a process pays no probe. Only
//! `EXPLAIN ANALYZE`, whose report ends in a bandwidth verdict, runs it.
//!
//! The probe's result is cached process-wide, so this file holds a single
//! test and runs as its own process.

use fts_query::{Engine, QueryResult};
use fts_storage::{Column, ColumnDef, DataType, Table};

/// Peak resident set of this process (`VmHWM`) in KiB, where the kernel
/// reports it.
fn peak_rss_kib() -> Option<u64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[test]
fn first_statement_skips_the_bandwidth_probe() {
    const ROWS: usize = 200_000;
    let engine = Engine::new();
    engine.register(
        "t",
        Table::from_columns(
            vec![
                ColumnDef::new("a", DataType::U32),
                ColumnDef::new("b", DataType::U32),
            ],
            vec![
                Column::from_fn(ROWS, |i| (i % 10) as u32),
                Column::from_fn(ROWS, |i| (i % 7) as u32),
            ],
        )
        .expect("table"),
    );
    let Some(before) = peak_rss_kib() else {
        eprintln!("skipping: no VmHWM in /proc/self/status");
        return;
    };
    let got = engine
        .query("SELECT COUNT(*) FROM t WHERE a = 3 AND b < 5")
        .expect("statement runs");
    let after = peak_rss_kib().expect("VmHWM");
    let expected = (0..ROWS).filter(|i| i % 10 == 3 && i % 7 < 5).count() as u64;
    assert_eq!(got, QueryResult::Count(expected));
    assert!(
        after - before < 16 * 1024,
        "the first statement raised peak RSS by {} KiB",
        after - before
    );
}
