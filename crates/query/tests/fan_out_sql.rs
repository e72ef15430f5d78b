//! Fan-out answers equal the serial ones. A statement's chunks fan out
//! over the scan pool's idle cores and fold in chunk order, so every
//! answer must equal a row loop over the generated vectors: counts and
//! integer sums exactly, float sums bit for bit in position order,
//! MIN/MAX keeping the first of tied values (`-0.0` and `+0.0`), and
//! projected rows in row order. Aggregates run alone and as one shared
//! pass; projections, which stay on the calling thread, run with and
//! without a LIMIT. Tables have 512-row chunks in every layout,
//! statements run over chains and over an OR tree, with the JIT on and
//! off.
//!
//! A helper joins only while the pool counts an idle core, and every
//! running statement counts as busy; this binary holds one test so that
//! no concurrent test occupies the cores.

use fts_query::{Engine, JitMode, Prepared, QueryResult};
use fts_storage::{Column, ColumnDef, DataType, Table, Value};

const CHUNK: usize = 512;
const ROWS: usize = 48 * CHUNK;

fn hash(i: usize, k: usize) -> usize {
    (i.wrapping_mul(2654435761).wrapping_add(k * 40503)) >> 3
}

/// The generated vectors: three `u32` columns of different shapes
/// (narrow, large-offset narrow span, wide), an `i64` column and an `f64`
/// column whose magnitudes make the summation order visible and which
/// holds `-0.0`, `+0.0` and NaN.
struct Data {
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    big: Vec<i64>,
    x: Vec<f64>,
}

fn data() -> Data {
    let x = (0..ROWS)
        .map(|i| match hash(i, 6) % 11 {
            0 => -0.0,
            1 => 0.0,
            2 if i % 997 == 13 => f64::NAN,
            3 => 1e16,
            4 => -1e16,
            5 => 0.1,
            _ => (hash(i, 7) % 2000) as f64 * 0.25 - 250.0,
        })
        .collect();
    Data {
        a: (0..ROWS).map(|i| (hash(i, 1) % 50) as u32).collect(),
        b: (0..ROWS)
            .map(|i| 3_000_000_000 + (hash(i, 2) % 1000) as u32)
            .collect(),
        c: (0..ROWS).map(|i| (hash(i, 3) % 100_000) as u32).collect(),
        big: (0..ROWS)
            .map(|i| (hash(i, 4) % 2_000_000_000) as i64 * 3_000 - 3_000_000_000_000)
            .collect(),
        x,
    }
}

fn table(d: &Data) -> Table {
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("a", DataType::U32),
            ColumnDef::new("b", DataType::U32),
            ColumnDef::new("c", DataType::U32),
            ColumnDef::new("big", DataType::I64),
            ColumnDef::new("x", DataType::F64),
        ],
        vec![
            Column::from_vec(d.a.clone()),
            Column::from_vec(d.b.clone()),
            Column::from_vec(d.c.clone()),
            Column::from_vec(d.big.clone()),
            Column::from_vec(d.x.clone()),
        ],
        CHUNK,
    )
    .expect("table")
}

/// The table in every layout: the `u32` columns plain, dictionary,
/// bit-packed, frame-of-reference and byte-sliced, the `i64` column also
/// dictionary-encoded. The `f64` column stays plain: a dictionary holds
/// no NaN and one zero.
fn layouts(t: &Table) -> Vec<(&'static str, Table)> {
    vec![
        ("plain", t.clone()),
        ("dict", t.with_dictionary_encoding(&[0, 2, 3]).unwrap()),
        ("packed", t.with_bitpacking(&[0, 1, 2]).unwrap()),
        ("for", t.with_for_encoding(&[0, 1, 2]).unwrap()),
        ("bs", t.with_byte_slicing(&[0, 1, 2]).unwrap()),
    ]
}

/// A statement: its WHERE clause as SQL and as a row predicate.
struct Where {
    sql: &'static str,
    keep: fn(&Data, usize) -> bool,
}

fn clauses() -> Vec<Where> {
    vec![
        Where {
            sql: "",
            keep: |_, _| true,
        },
        Where {
            sql: "WHERE a < 30 AND c >= 1000",
            keep: |d, i| d.a[i] < 30 && d.c[i] >= 1000,
        },
        Where {
            sql: "WHERE b BETWEEN 3000000100 AND 3000000800 AND big < 0 AND x < 1e300",
            keep: |d, i| {
                (3_000_000_100..=3_000_000_800).contains(&d.b[i]) && d.big[i] < 0 && d.x[i] < 1e300
            },
        },
        Where {
            sql: "WHERE a = 3 OR c < 20000 OR (b > 3000000900 AND big >= 0)",
            keep: |d, i| {
                d.a[i] == 3 || d.c[i] < 20_000 || (d.b[i] > 3_000_000_900 && d.big[i] >= 0)
            },
        },
        // Min/max pruning skips every chunk: the empty answers.
        Where {
            sql: "WHERE b < 10",
            keep: |_, _| false,
        },
    ]
}

/// A value in a form that tells every float bit apart (NaN included).
fn render(v: &Value) -> String {
    match v {
        Value::F64(f) => format!("f64:{:#018x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// The row loop's answers to
/// `SELECT COUNT(*), SUM(big), SUM(x), AVG(big), AVG(x), MIN(x), MAX(x),
/// MIN(big), MAX(c)`: exact integer sums, float sums folded in position
/// order, and MIN/MAX keeping the first of tied values.
fn expected(d: &Data, keep: fn(&Data, usize) -> bool) -> Vec<Value> {
    let rows: Vec<usize> = (0..ROWS).filter(|&i| keep(d, i)).collect();
    let n = rows.len();
    let int_sum: i128 = rows.iter().map(|&i| i128::from(d.big[i])).sum();
    let float_sum = rows.iter().fold(0.0f64, |acc, &i| acc + d.x[i]);
    let avg = |total: f64| Value::F64(if n == 0 { 0.0 } else { total / n as f64 });
    fn first_best<T: Copy + PartialOrd>(vs: impl Iterator<Item = T>, max: bool) -> Option<T> {
        vs.reduce(|b, v| match max {
            true if v > b => v,
            false if v < b => v,
            _ => b,
        })
    }
    let xs = || rows.iter().map(|&i| d.x[i]);
    let or_zero = |v: Option<Value>| v.unwrap_or(Value::I64(0));
    vec![
        Value::U64(n as u64),
        Value::I64(i64::try_from(int_sum).expect("the sum fits")),
        // An empty SUM has seen no float and answers like an integer one.
        match n {
            0 => Value::I64(0),
            _ => Value::F64(float_sum + 0.0),
        },
        avg(0.0 + int_sum as f64),
        avg(float_sum + 0.0),
        or_zero(first_best(xs(), false).map(Value::F64)),
        or_zero(first_best(xs(), true).map(Value::F64)),
        or_zero(first_best(rows.iter().map(|&i| d.big[i]), false).map(Value::I64)),
        or_zero(first_best(rows.iter().map(|&i| d.c[i]), true).map(Value::U32)),
    ]
}

/// Every value of a result, rendered by [`render`], row by row.
fn rendered(r: &QueryResult) -> Vec<Vec<String>> {
    match r {
        QueryResult::Count(n) => vec![vec![format!("count:{n}")]],
        QueryResult::Rows { rows, .. } => rows
            .iter()
            .map(|row| row.iter().map(render).collect())
            .collect(),
        QueryResult::Explain(text) => panic!("no plan expected: {text}"),
    }
}

/// The row loop's rows of `SELECT c, big, x` in row order.
fn projected(d: &Data, keep: fn(&Data, usize) -> bool) -> Vec<Vec<String>> {
    (0..ROWS)
        .filter(|&i| keep(d, i))
        .map(|i| {
            [Value::U32(d.c[i]), Value::I64(d.big[i]), Value::F64(d.x[i])]
                .iter()
                .map(render)
                .collect()
        })
        .collect()
}

#[test]
fn fanned_out_aggregates_equal_a_row_loop() {
    let d = data();
    // The data must tell position order from a sum of per-half partials.
    let finite: Vec<f64> = d.x.iter().copied().filter(|v| !v.is_nan()).collect();
    let halves: f64 = finite.chunks(ROWS / 2).map(|h| h.iter().sum::<f64>()).sum();
    assert_ne!(finite.iter().sum::<f64>().to_bits(), halves.to_bits());
    let base = table(&d);
    let mut helped = 0;
    let mut pass_helped = 0;
    for (layout, t) in layouts(&base) {
        for jit in [JitMode::On, JitMode::Off] {
            let engine = Engine::with_jit(jit);
            engine.register("t", t.clone());
            let helped_now = || engine.context().chunks_helped.load(ORDER);
            // Each aggregate statement with the answer it gave alone.
            let mut solo: Vec<(String, Vec<Vec<String>>)> = Vec::new();
            for w in clauses() {
                let want = expected(&d, w.keep);
                let want_count = match want[0] {
                    Value::U64(n) => n,
                    ref other => panic!("COUNT(*) is a u64, not {other:?}"),
                };
                let want: Vec<String> = want.iter().map(render).collect();
                let ctx = format!("{layout} {jit:?} {}", w.sql);
                let sql = format!(
                    "SELECT COUNT(*), SUM(big), SUM(x), AVG(big), AVG(x), MIN(x), MAX(x), \
                     MIN(big), MAX(c) FROM t {}",
                    w.sql
                );
                let count_sql = format!("SELECT COUNT(*) FROM t {}", w.sql);
                // Twice: the first statement calibrates, the second runs
                // its chains steady and unlocked.
                for _ in 0..2 {
                    let QueryResult::Rows { rows, .. } = engine.query(&sql).unwrap() else {
                        panic!("{ctx}: aggregates return a row");
                    };
                    let got: Vec<String> = rows[0].iter().map(render).collect();
                    assert_eq!(got, want, "{ctx}");

                    let count = engine.query(&count_sql).unwrap();
                    assert_eq!(count, QueryResult::Count(want_count), "{ctx}");
                }
                solo.push((sql, vec![want]));
                solo.push((count_sql, vec![vec![format!("count:{want_count}")]]));
                let scanned = engine.context().chunks_scanned.load(ORDER);
                let pruned = engine.context().chunks_pruned.load(ORDER);
                assert_eq!(
                    scanned + pruned,
                    4 * (ROWS / CHUNK) as u64,
                    "{ctx}: each chunk pruned or scanned once per statement"
                );
                engine.context().chunks_scanned.store(0, ORDER);
                engine.context().chunks_pruned.store(0, ORDER);
            }
            helped += engine.context().chunks_helped.load(ORDER);

            // A projection keeps row order and stays on this thread, with
            // or without a LIMIT.
            for w in clauses() {
                let ctx = format!("{layout} {jit:?} {}", w.sql);
                let before = helped_now();
                let rows = engine
                    .query(&format!("SELECT c, big, x FROM t {}", w.sql))
                    .unwrap();
                assert_eq!(rendered(&rows), projected(&d, w.keep), "{ctx} rows");
                assert_eq!(
                    helped_now(),
                    before,
                    "{ctx}: a projection enlists no helper"
                );
                let rows = engine
                    .query(&format!("SELECT c, big, x FROM t {} LIMIT 5", w.sql))
                    .unwrap();
                let mut first = projected(&d, w.keep);
                first.truncate(5);
                assert_eq!(rendered(&rows), first, "{ctx} LIMIT 5");
                assert_eq!(helped_now(), before, "{ctx}: LIMIT enlists no helper");
            }

            // The aggregate statements as one shared pass: solo answers,
            // every chunk pruned or scanned once per statement.
            engine.context().chunks_scanned.store(0, ORDER);
            engine.context().chunks_pruned.store(0, ORDER);
            let prepared: Vec<Prepared> = solo
                .iter()
                .map(|(sql, _)| engine.prepare(sql).unwrap())
                .collect();
            let before = helped_now();
            let (results, shared) = engine.execute_batch(&prepared.iter().collect::<Vec<_>>());
            pass_helped += helped_now() - before;
            assert!(
                shared,
                "{layout} {jit:?}: one table's aggregates share a pass"
            );
            for ((sql, want), got) in solo.iter().zip(&results) {
                let got = got.as_ref().unwrap();
                assert_eq!(&rendered(got), want, "{layout} {jit:?} {sql}");
            }
            let scanned = engine.context().chunks_scanned.load(ORDER);
            let pruned = engine.context().chunks_pruned.load(ORDER);
            assert_eq!(
                scanned + pruned,
                (solo.len() * (ROWS / CHUNK)) as u64,
                "{layout} {jit:?}: each chunk pruned or scanned once per statement"
            );
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert!(helped > 0, "no helper scanned a chunk on {cores} cores");
        assert!(pass_helped > 0, "no helper joined a shared pass");
    }
}

const ORDER: std::sync::atomic::Ordering = std::sync::atomic::Ordering::Relaxed;
