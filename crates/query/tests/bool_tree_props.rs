//! Property: a random boolean predicate tree (AND/OR/NOT of bounded
//! depth) returns through SQL exactly the rows that a row-at-a-time walk
//! of the same tree over the plain column vectors returns
//! ([`reference_scan_bool`]) — whatever layout each `u32` column is
//! stored in, with the JIT on or off, for `COUNT(*)`, for a projection's
//! rows in order, and for `COUNT(*), SUM, MIN, MAX, AVG` of a random
//! column, which must equal a fold over the plain vectors of those rows,
//! alone and inside one shared batch pass. The trees reach every way the executor runs
//! a `WHERE` clause: a conjunctive chain, a factored mask-union of fused
//! sub-chains, and the row-wise `FilterTree` past `MAX_DNF_DISJUNCTS`
//! disjuncts. Tables span several small chunks, so calibration probes a
//! different kernel on each of the first chunks and then switches to its
//! winner within one statement; that must never change a result.

use std::cmp::Ordering;

use fts_core::reference::reference_scan_bool;
use fts_core::BoolExpr;
use fts_query::{Engine, JitMode, QueryResult};
use fts_storage::{CmpOp, Column, ColumnDef, DataType, Table, Value};
use proptest::prelude::*;

/// Rows per chunk: small, so a table of a few thousand rows has enough
/// chunks for calibration to probe every candidate and then settle.
const CHUNK: usize = 256;

/// Column names: `id` (the row number), three small-domain `u32` columns,
/// an `i64` column around zero and a `u64` column straddling 2^32.
const NAMES: [&str; 6] = ["id", "a", "b", "c", "big", "wide"];
const U32_COLUMNS: usize = 4;
const WIDE_BASE: u64 = u32::MAX as u64 - 8;

/// Deterministic per-case generator (xorshift).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The plain column vectors the oracle reads.
struct Data {
    u32s: Vec<Vec<u32>>,
    big: Vec<i64>,
    wide: Vec<u64>,
}

impl Data {
    fn random(g: &mut Gen, rows: usize) -> Data {
        let mut u32s = vec![(0..rows as u32).collect::<Vec<u32>>()];
        for _ in 1..U32_COLUMNS {
            u32s.push((0..rows).map(|_| g.below(16) as u32).collect());
        }
        Data {
            u32s,
            big: (0..rows).map(|_| g.below(17) as i64 - 8).collect(),
            wide: (0..rows).map(|_| WIDE_BASE + g.below(16)).collect(),
        }
    }

    fn rows(&self) -> usize {
        self.u32s[0].len()
    }

    fn value(&self, col: usize, row: usize) -> i128 {
        match col {
            c if c < U32_COLUMNS => self.u32s[c][row] as i128,
            4 => self.big[row] as i128,
            _ => self.wide[row] as i128,
        }
    }

    /// A value of column `col` as the engine types it.
    fn typed(col: usize, v: i128) -> Value {
        match col {
            c if c < U32_COLUMNS => Value::U32(v as u32),
            4 => Value::I64(v as i64),
            _ => Value::U64(v as u64),
        }
    }

    /// `COUNT(*), SUM(x), MIN(x), MAX(x), AVG(x)` over `rows`, folded over
    /// the plain vectors. An empty input gives SUM 0, AVG 0.0, MIN/MAX 0.
    fn aggregates(&self, x: usize, rows: &[u32]) -> QueryResult {
        let values: Vec<i128> = rows.iter().map(|&r| self.value(x, r as usize)).collect();
        let sum: i128 = values.iter().sum();
        let extreme = |v: Option<&i128>| v.map_or(Value::I64(0), |&v| Data::typed(x, v));
        let avg = if values.is_empty() {
            0.0
        } else {
            sum as f64 / values.len() as f64
        };
        let name = NAMES[x];
        QueryResult::Rows {
            columns: vec![
                "count(*)".to_string(),
                format!("sum({name})"),
                format!("min({name})"),
                format!("max({name})"),
                format!("avg({name})"),
            ],
            rows: vec![vec![
                Value::U64(values.len() as u64),
                Value::I64(i64::try_from(sum).expect("test sums fit i64")),
                extreme(values.iter().min()),
                extreme(values.iter().max()),
                Value::F64(avg),
            ]],
        }
    }

    /// The table with each `u32` column in a layout drawn from `g` and the
    /// 8-byte columns plain or dictionary-encoded; returns it with the
    /// layout names for failure messages.
    fn table(&self, g: &mut Gen) -> (Table, String) {
        let mut columns: Vec<Column> = self.u32s.iter().cloned().map(Column::from_vec).collect();
        columns.push(Column::from_vec(self.big.clone()));
        columns.push(Column::from_vec(self.wide.clone()));
        let defs = NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let ty = match i {
                    c if c < U32_COLUMNS => DataType::U32,
                    4 => DataType::I64,
                    _ => DataType::U64,
                };
                ColumnDef::new(*name, ty)
            })
            .collect();
        let mut t = Table::from_chunked_columns(defs, columns, CHUNK).expect("table");
        let mut names = Vec::new();
        for c in 0..U32_COLUMNS {
            let (name, next) = match g.below(5) {
                0 => ("plain", t),
                1 => ("dict", t.with_dictionary_encoding(&[c]).unwrap()),
                2 => ("packed", t.with_bitpacking(&[c]).unwrap()),
                3 => ("for", t.with_for_encoding(&[c]).unwrap()),
                _ => ("bs", t.with_byte_slicing(&[c]).unwrap()),
            };
            t = next;
            names.push(name);
        }
        for c in U32_COLUMNS..NAMES.len() {
            if g.below(2) == 1 {
                t = t.with_dictionary_encoding(&[c]).unwrap();
                names.push("dict");
            } else {
                names.push("plain");
            }
        }
        (t, names.join(","))
    }
}

/// One leaf: `NAMES[col] op lit`.
#[derive(Debug, Clone, Copy)]
struct Leaf {
    col: usize,
    op: CmpOp,
    lit: i128,
}

impl Leaf {
    fn random(g: &mut Gen, rows: usize) -> Leaf {
        let col = g.below(NAMES.len() as u64) as usize;
        // Literals mostly inside each column's domain, sometimes just past
        // its edges; always representable in the column's type.
        let lit = match col {
            0 => g.below(rows as u64 + 2) as i128,
            c if c < U32_COLUMNS => g.below(18) as i128,
            4 => g.below(21) as i128 - 10,
            _ => (WIDE_BASE - 2 + g.below(20)) as i128,
        };
        Leaf {
            col,
            op: CmpOp::ALL[g.below(CmpOp::ALL.len() as u64) as usize],
            lit,
        }
    }

    fn holds(&self, data: &Data, row: usize) -> bool {
        let ord = data.value(self.col, row).cmp(&self.lit);
        match self.op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

/// A random tree of bounded depth with fan-out 2..=3: leaves dominate so
/// trees stay small, NOT is rarest.
fn random_tree(g: &mut Gen, depth: u32, rows: usize) -> BoolExpr<Leaf> {
    let choice = if depth == 0 { 0 } else { g.below(8) };
    let kids = |g: &mut Gen| {
        (0..2 + g.below(2))
            .map(|_| random_tree(g, depth - 1, rows))
            .collect()
    };
    match choice {
        0..=3 => BoolExpr::pred(Leaf::random(g, rows)),
        4 | 5 => BoolExpr::and(kids(g)),
        6 => BoolExpr::or(kids(g)),
        _ => BoolExpr::not(random_tree(g, depth - 1, rows)),
    }
}

/// The tree as a SQL `WHERE` clause, every operand parenthesized.
fn where_sql(e: &BoolExpr<Leaf>) -> String {
    let join = |cs: &[BoolExpr<Leaf>], sep: &str| {
        cs.iter()
            .map(|c| format!("({})", where_sql(c)))
            .collect::<Vec<_>>()
            .join(sep)
    };
    match e {
        BoolExpr::Pred(l) => format!("{} {} {}", NAMES[l.col], l.op, l.lit),
        BoolExpr::And(cs) => join(cs, " AND "),
        BoolExpr::Or(cs) => join(cs, " OR "),
        BoolExpr::Not(c) => format!("NOT ({})", where_sql(c)),
    }
}

/// The aggregate statement the oracle's [`Data::aggregates`] answers.
fn aggregates_sql(x: usize, clause: &str) -> String {
    let name = NAMES[x];
    format!(
        "SELECT COUNT(*), SUM({name}), MIN({name}), MAX({name}), AVG({name}) FROM t WHERE {clause}"
    )
}

/// Run `COUNT(*)`, `SELECT id` and the aggregates of columns `xs` for the
/// tree on both JIT modes, one statement at a time and then all together
/// as one shared batch pass, and check them against the oracle.
fn check(
    data: &Data,
    table: &Table,
    layouts: &str,
    expr: &BoolExpr<Leaf>,
    xs: [usize; 2],
) -> Result<(), TestCaseError> {
    let expected = reference_scan_bool(expr, data.rows(), |l, row| l.holds(data, row));
    let clause = where_sql(expr);
    let aggregates: Vec<(String, QueryResult)> = xs
        .iter()
        .map(|&x| {
            (
                aggregates_sql(x, &clause),
                data.aggregates(x, expected.as_slice()),
            )
        })
        .collect();
    for jit in [JitMode::Off, JitMode::On] {
        let engine = Engine::with_jit(jit);
        engine.register("t", table.clone());
        let sql = format!("SELECT COUNT(*) FROM t WHERE {clause}");
        let got = engine.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        prop_assert_eq!(
            got,
            QueryResult::Count(expected.len() as u64),
            "layouts [{}] {:?}: {}",
            layouts,
            jit,
            sql
        );
        let sql = format!("SELECT id FROM t WHERE {clause}");
        let got = engine.query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let want = QueryResult::Rows {
            columns: vec!["id".to_string()],
            rows: expected
                .as_slice()
                .iter()
                .map(|&p| vec![Value::U32(p)])
                .collect(),
        };
        prop_assert_eq!(got, want, "layouts [{}] {:?}: {}", layouts, jit, sql);
        for (sql, want) in &aggregates {
            let got = engine.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            prop_assert_eq!(&got, want, "layouts [{}] {:?}: {}", layouts, jit, sql);
        }

        // The same statements as one shared pass.
        let count = (
            format!("SELECT COUNT(*) FROM t WHERE {clause}"),
            QueryResult::Count(expected.len() as u64),
        );
        let batch: Vec<&(String, QueryResult)> =
            std::iter::once(&count).chain(&aggregates).collect();
        let prepared: Vec<_> = batch
            .iter()
            .map(|(sql, _)| engine.prepare(sql).unwrap())
            .collect();
        let (results, shared) = engine.execute_batch(&prepared.iter().collect::<Vec<_>>());
        prop_assert!(shared, "layouts [{}] {:?}: no shared pass", layouts, jit);
        for ((sql, want), got) in batch.into_iter().zip(results) {
            let got = got.unwrap_or_else(|e| panic!("shared {sql}: {e}"));
            prop_assert_eq!(
                &got,
                want,
                "shared, layouts [{}] {:?}: {}",
                layouts,
                jit,
                sql
            );
        }
    }
    Ok(())
}

/// Two aggregate argument columns, each drawn from every column.
fn random_xs(g: &mut Gen) -> [usize; 2] {
    [0, 1].map(|_| g.below(NAMES.len() as u64) as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_trees_agree_with_the_row_walk(
        seed in any::<u64>(),
        depth in 1u32..=3,
        rows in 1usize..2600,
    ) {
        let mut g = Gen(seed | 1);
        let data = Data::random(&mut g, rows);
        let (table, layouts) = data.table(&mut g);
        let expr = random_tree(&mut g, depth, rows);
        let xs = random_xs(&mut g);
        check(&data, &table, &layouts, &expr, xs)?;
    }

    /// An AND of six two-leaf ORs has 2^6 disjuncts, past the DNF cap:
    /// the plan keeps the tree and evaluates it row by row.
    #[test]
    fn trees_past_the_dnf_cap_agree_with_the_row_walk(
        seed in any::<u64>(),
        rows in 1usize..1200,
    ) {
        let mut g = Gen(seed | 1);
        let data = Data::random(&mut g, rows);
        let (table, layouts) = data.table(&mut g);
        let expr = BoolExpr::and(
            (0..6)
                .map(|_| BoolExpr::or(vec![
                    BoolExpr::pred(Leaf::random(&mut g, rows)),
                    BoolExpr::pred(Leaf::random(&mut g, rows)),
                ]))
                .collect(),
        );
        let engine = Engine::new();
        engine.register("t", table.clone());
        let plan = engine
            .explain(&format!("SELECT COUNT(*) FROM t WHERE {}", where_sql(&expr)))
            .unwrap();
        prop_assert!(plan.contains("FilterTree"), "{}", plan);
        let xs = random_xs(&mut g);
        check(&data, &table, &layouts, &expr, xs)?;
    }
}

/// Calibration switches kernels inside one statement — a different
/// candidate on each probe chunk, then the winner — and every sub-chain of
/// a disjunction still returns the row walk's rows.
#[test]
fn calibration_switches_kernels_without_changing_results() {
    let mut g = Gen(0x5eed);
    let data = Data::random(&mut g, 16 * CHUNK);
    let columns: Vec<Column> = data.u32s.iter().cloned().map(Column::from_vec).collect();
    let defs = NAMES[..U32_COLUMNS]
        .iter()
        .map(|n| ColumnDef::new(*n, DataType::U32))
        .collect();
    let table = Table::from_chunked_columns(defs, columns, CHUNK).unwrap();
    // (a < 5 AND b <> 3) OR (c = 7 AND a > 9): two calibrated sub-chains.
    let leaf = |col, op, lit| BoolExpr::pred(Leaf { col, op, lit });
    let expr = BoolExpr::or(vec![
        BoolExpr::and(vec![leaf(1, CmpOp::Lt, 5), leaf(2, CmpOp::Ne, 3)]),
        BoolExpr::and(vec![leaf(3, CmpOp::Eq, 7), leaf(1, CmpOp::Gt, 9)]),
    ]);
    let expected = reference_scan_bool(&expr, data.rows(), |l, row| l.holds(&data, row));
    let sql = format!("SELECT COUNT(*) FROM t WHERE {}", where_sql(&expr));
    for jit in [JitMode::Off, JitMode::On] {
        let engine = Engine::with_jit(jit);
        engine.register("t", table.clone());
        let (result, report) = engine.query_analyzed(&sql).unwrap();
        assert_eq!(result, QueryResult::Count(expected.len() as u64), "{jit:?}");
        let bool_scan = report.bool_scan.expect("a factored disjunction");
        assert_eq!(bool_scan.disjuncts.len(), 2, "{jit:?}");
        for d in &bool_scan.disjuncts {
            let a = d.adaptive.as_ref().expect("plain u32 sub-chains calibrate");
            let probed = a.probed.iter().filter(|&&(_, morsels, _)| morsels > 0);
            assert!(probed.count() >= 2, "{jit:?} {}: {:?}", d.label, a.probed);
            assert!(
                a.winner.is_some(),
                "{jit:?} {}: 16 chunks converge",
                d.label
            );
        }
    }
}
