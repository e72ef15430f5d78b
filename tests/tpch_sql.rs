//! TPC-H Q6 through the whole DBMS stack (§IV's multi-predicate example):
//! the same five-predicate query over plain, dictionary-encoded and
//! bit-packed storage, with the JIT on and off, must agree with the raw
//! row loop — including the SUM aggregation over the qualifying rows.

use fused_table_scan::query::{Engine, JitMode, QueryResult};
use fused_table_scan::storage::{Column, ColumnDef, DataType, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 120_000;

fn lineitem() -> Table {
    let mut rng = StdRng::seed_from_u64(77);
    let mut shipdate = Vec::with_capacity(ROWS);
    let mut discount = Vec::with_capacity(ROWS);
    let mut quantity = Vec::with_capacity(ROWS);
    let mut price = Vec::with_capacity(ROWS);
    for _ in 0..ROWS {
        let y = rng.random_range(1992u32..=1998);
        let m = rng.random_range(1u32..=12);
        let d = rng.random_range(1u32..=28);
        shipdate.push(y * 10_000 + m * 100 + d);
        discount.push(rng.random_range(0u32..=10));
        quantity.push(rng.random_range(1u32..=50));
        price.push(rng.random_range(90_000i64..=10_500_000));
    }
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("shipdate", DataType::U32),
            ColumnDef::new("discount", DataType::U32),
            ColumnDef::new("quantity", DataType::U32),
            ColumnDef::new("price", DataType::I64),
        ],
        vec![
            Column::from_slice(&shipdate),
            Column::from_slice(&discount),
            Column::from_slice(&quantity),
            Column::from_slice(&price),
        ],
        1 << 14,
    )
    .unwrap()
}

const Q6_COUNT: &str = "SELECT COUNT(*) FROM lineitem \
     WHERE shipdate >= 19940101 AND shipdate < 19950101 \
     AND discount >= 5 AND discount <= 7 AND quantity < 24";

const Q6_AGGS: &str = "SELECT COUNT(*), SUM(price), MIN(price), MAX(price) FROM lineitem \
     WHERE shipdate >= 19940101 AND shipdate < 19950101 \
     AND discount >= 5 AND discount <= 7 AND quantity < 24";

fn reference(table: &Table) -> (u64, i64, i64, i64) {
    let mut count = 0u64;
    let mut sum = 0i64;
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for row in 0..table.rows() {
        let Value::U32(d) = table.value_at(0, row) else {
            panic!()
        };
        let Value::U32(disc) = table.value_at(1, row) else {
            panic!()
        };
        let Value::U32(q) = table.value_at(2, row) else {
            panic!()
        };
        let Value::I64(p) = table.value_at(3, row) else {
            panic!()
        };
        if (19_940_101..19_950_101).contains(&d) && (5..=7).contains(&disc) && q < 24 {
            count += 1;
            sum += p;
            min = min.min(p);
            max = max.max(p);
        }
    }
    (count, sum, min, max)
}

#[test]
fn q6_through_every_storage_encoding() {
    let base = lineitem();
    let (count, sum, min, max) = reference(&base);
    assert!(count > 500, "workload must qualify rows (got {count})");

    let variants: Vec<(&str, Table)> = vec![
        ("plain", base.clone()),
        (
            "dictionary",
            base.with_dictionary_encoding(&[0, 3]).unwrap(),
        ),
        ("bitpacked", base.with_bitpacking(&[1, 2]).unwrap()),
    ];

    for (name, table) in variants {
        for jit in [JitMode::Off, JitMode::On] {
            let db = Engine::with_jit(jit);
            db.register("lineitem", table.clone());

            let r = db.query(Q6_COUNT).unwrap();
            assert_eq!(r, QueryResult::Count(count), "{name} {jit:?} count");

            let r = db.query(Q6_AGGS).unwrap();
            let QueryResult::Rows { rows, .. } = r else {
                panic!("{name}: {r:?}")
            };
            assert_eq!(rows[0][0], Value::U64(count), "{name} {jit:?} count agg");
            assert_eq!(rows[0][1], Value::I64(sum), "{name} {jit:?} sum");
            assert_eq!(rows[0][2], Value::I64(min), "{name} {jit:?} min");
            assert_eq!(rows[0][3], Value::I64(max), "{name} {jit:?} max");

            // The optimizer fused the whole chain.
            let plan = db.explain(Q6_COUNT).unwrap();
            assert!(plan.contains("FusedTableScan"), "{name}: {plan}");
        }
    }
}

#[test]
fn q6_chunk_pruning_on_sorted_dates() {
    // Sort by shipdate: whole chunks fall outside the 1994 window and
    // min/max pruning must skip them.
    let base = lineitem();
    let mut rows: Vec<(u32, u32, u32, i64)> = (0..base.rows())
        .map(|r| {
            let Value::U32(d) = base.value_at(0, r) else {
                panic!()
            };
            let Value::U32(disc) = base.value_at(1, r) else {
                panic!()
            };
            let Value::U32(q) = base.value_at(2, r) else {
                panic!()
            };
            let Value::I64(p) = base.value_at(3, r) else {
                panic!()
            };
            (d, disc, q, p)
        })
        .collect();
    rows.sort_by_key(|&(d, ..)| d);
    let sorted = Table::from_chunked_columns(
        base.schema().to_vec(),
        vec![
            Column::from_fn(rows.len(), |i| rows[i].0),
            Column::from_fn(rows.len(), |i| rows[i].1),
            Column::from_fn(rows.len(), |i| rows[i].2),
            Column::from_fn(rows.len(), |i| rows[i].3),
        ],
        1 << 13,
    )
    .unwrap();
    let expected = reference(&sorted).0;

    let db = Engine::new();
    db.register("lineitem", sorted);
    let r = db.query(Q6_COUNT).unwrap();
    assert_eq!(r, QueryResult::Count(expected));

    use std::sync::atomic::Ordering;
    let pruned = db.context().chunks_pruned.load(Ordering::Relaxed);
    let scanned = db.context().chunks_scanned.load(Ordering::Relaxed);
    // 7 years of dates across ~15 chunks: roughly 6/7 of chunks are
    // outside the one-year window.
    assert!(pruned > scanned, "pruned={pruned} scanned={scanned}");
}
