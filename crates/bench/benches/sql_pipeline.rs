//! End-to-end DBMS pipeline bench (paper Figs. 8–9 realized): SQL string →
//! parse → bind → optimize → fused execution, with the JIT kernel cache on
//! and off, over plain / dictionary-encoded / bit-packed storage.

use criterion::{criterion_group, criterion_main, Criterion};
use fts_query::{Engine, JitMode, QueryResult};
use fts_storage::{Column, ColumnDef, DataType, Table};

const ROWS: usize = 2_000_000;

fn build() -> Table {
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("a", DataType::U32),
            ColumnDef::new("b", DataType::U32),
            ColumnDef::new("price", DataType::I64),
        ],
        vec![
            Column::from_fn(ROWS, |i| (i as u32).wrapping_mul(2654435761) % 100),
            Column::from_fn(ROWS, |i| (i as u32).wrapping_mul(40503) % 10),
            Column::from_fn(ROWS, |i| (i as i64).wrapping_mul(7919) % 100_000),
        ],
        1 << 20,
    )
    .expect("table")
}

fn bench(c: &mut Criterion) {
    let base = build();
    let mut group = c.benchmark_group("sql_pipeline");
    group.sample_size(10);

    let count_sql = "SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2";
    let agg_sql = "SELECT SUM(price), AVG(price) FROM t WHERE a = 5 AND b = 2";

    for (name, jit) in [("jit_off", JitMode::Off), ("jit_on", JitMode::On)] {
        let db = Engine::with_jit(jit);
        db.register("t", base.clone());
        let expected = db.query(count_sql).unwrap();
        group.bench_function(format!("count_plain_{name}"), |b| {
            b.iter(|| assert_eq!(db.query(count_sql).unwrap(), expected));
        });
    }

    let db = Engine::new();
    db.register("t", base.with_dictionary_encoding(&[0, 2]).unwrap());
    let expected = db.query(count_sql).unwrap();
    group.bench_function("count_dictionary", |b| {
        b.iter(|| assert_eq!(db.query(count_sql).unwrap(), expected));
    });

    let db = Engine::new();
    db.register("t", base.with_bitpacking(&[0, 1]).unwrap());
    let expected = db.query(count_sql).unwrap();
    group.bench_function("count_bitpacked", |b| {
        b.iter(|| assert_eq!(db.query(count_sql).unwrap(), expected));
    });

    let db = Engine::new();
    db.register("t", base.clone());
    let expected = db.query(agg_sql).unwrap();
    assert!(matches!(expected, QueryResult::Rows { .. }));
    group.bench_function("sum_avg_aggregation", |b| {
        b.iter(|| assert_eq!(db.query(agg_sql).unwrap(), expected));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
