//! Property: a random boolean predicate tree (AND/OR/NOT of bounded
//! depth) returns through SQL exactly the rows that a row-at-a-time walk
//! of the same tree over the plain column vectors returns
//! ([`reference_scan_bool`], each leaf tested with `NativeType::cmp_op`,
//! so a NaN row fails every comparison) — whatever layout each `u32`
//! column is stored in, with the JIT on or off, for `COUNT(*)`, for a
//! projection's rows in order, and for `COUNT(*), SUM, MIN, MAX, AVG` of a
//! random column, which must equal a fold over the plain vectors of those
//! rows, alone and inside one shared batch pass. The trees reach every way
//! the executor runs a `WHERE` clause: a conjunctive chain, a root AND
//! whose leaf conjuncts drive while its ORs filter the survivors, an AND
//! of ORs whose first OR drives, and a root OR whose children each drive.
//! Tables span several small chunks, so calibration probes a different
//! kernel on each of the first chunks and then switches to its winner
//! within one statement; that must never change a result.

use fts_core::reference::reference_scan_bool;
use fts_core::BoolExpr;
use fts_query::{Engine, JitMode, QueryResult};
use fts_storage::{CmpOp, Column, ColumnDef, DataType, NativeType, Table, Value};
use proptest::prelude::*;

/// Rows per chunk: small, so a table of a few thousand rows has enough
/// chunks for calibration to probe every candidate and then settle.
const CHUNK: usize = 256;

/// Column names: `id` (the row number), three small-domain `u32` columns,
/// an `i64` column around zero, a `u64` column straddling 2^32 and an
/// `f64` column of small whole numbers, a fifth of them NaN when the
/// column is plain (a dictionary cannot hold NaN, so the
/// dictionary-encoded column draws none).
const NAMES: [&str; 7] = ["id", "a", "b", "c", "big", "wide", "f"];
const U32_COLUMNS: usize = 4;
/// Columns the aggregates read: all but `f` (float folds over NaN have
/// their own tests).
const AGG_COLUMNS: usize = 6;
const F: usize = 6;
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
    f: Vec<f64>,
    f_dict: bool,
}

impl Data {
    fn random(g: &mut Gen, rows: usize) -> Data {
        let mut u32s = vec![(0..rows as u32).collect::<Vec<u32>>()];
        for _ in 1..U32_COLUMNS {
            u32s.push((0..rows).map(|_| g.below(16) as u32).collect());
        }
        let f_dict = g.below(2) == 1;
        Data {
            u32s,
            big: (0..rows).map(|_| g.below(17) as i64 - 8).collect(),
            wide: (0..rows).map(|_| WIDE_BASE + g.below(16)).collect(),
            f: (0..rows)
                .map(|_| match g.below(5) {
                    0 if !f_dict => f64::NAN,
                    _ => g.below(8) as f64,
                })
                .collect(),
            f_dict,
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

    /// The table with each `u32` column in a layout drawn from `g` (or
    /// column `x` in layout `layout`, for `Some((x, layout))`), the 8-byte
    /// columns plain or dictionary-encoded at random and `f` as drawn;
    /// returns it with the layout names for failure messages.
    fn table(&self, g: &mut Gen, force: Option<(usize, u64)>) -> (Table, String) {
        let mut columns: Vec<Column> = self.u32s.iter().cloned().map(Column::from_vec).collect();
        columns.push(Column::from_vec(self.big.clone()));
        columns.push(Column::from_vec(self.wide.clone()));
        columns.push(Column::from_vec(self.f.clone()));
        let defs = NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let ty = match i {
                    c if c < U32_COLUMNS => DataType::U32,
                    4 => DataType::I64,
                    5 => DataType::U64,
                    _ => DataType::F64,
                };
                ColumnDef::new(*name, ty)
            })
            .collect();
        let mut t = Table::from_chunked_columns(defs, columns, CHUNK).expect("table");
        let mut names = Vec::new();
        for c in 0..U32_COLUMNS {
            let layout = match force {
                Some((x, layout)) if x == c => layout,
                _ => g.below(5),
            };
            let (name, next) = match layout {
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
            let dict = match c {
                F => self.f_dict,
                _ => g.below(2) == 1,
            };
            if dict {
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
            5 => (WIDE_BASE - 2 + g.below(20)) as i128,
            _ => g.below(10) as i128 - 1,
        };
        Leaf {
            col,
            op: CmpOp::ALL[g.below(CmpOp::ALL.len() as u64) as usize],
            lit,
        }
    }

    /// The leaf on one row, compared in the column's own type.
    fn holds(&self, data: &Data, row: usize) -> bool {
        let (op, lit) = (self.op, self.lit);
        match self.col {
            c if c < U32_COLUMNS => data.u32s[c][row].cmp_op(op, lit as u32),
            4 => data.big[row].cmp_op(op, lit as i64),
            5 => data.wide[row].cmp_op(op, lit as u64),
            _ => data.f[row].cmp_op(op, lit as f64),
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
    // `NOT` over a float comparison negates its operator (DESIGN.md §6.2),
    // so a NaN row fails both `f < 4` and `NOT f < 4`: walk the NNF.
    let nnf = expr.clone().to_nnf(&|l: Leaf| Leaf {
        op: l.op.negate(),
        ..l
    });
    let expected = reference_scan_bool(&nnf, data.rows(), |l, row| l.holds(data, row));
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

/// Two aggregate argument columns, each drawn from every integer column.
fn random_xs(g: &mut Gen) -> [usize; 2] {
    [0, 1].map(|_| g.below(AGG_COLUMNS as u64) as usize)
}

/// `(x = v₁ OR x = v₂ OR x < v₃) AND <leaf> …` over a small-domain `u32`
/// column `x`: the leaves drive and the OR filters their survivors in one
/// loop. Some literals lie past the column's values 0..15, so a
/// dictionary rewrites them to a constant: `x = 17` to `MatchNone` and
/// `x < 100` to `MatchAll`.
fn one_column_or(g: &mut Gen, rows: usize, x: usize) -> BoolExpr<Leaf> {
    let mut leaf = |op, choices: [i128; 2]| {
        let lit = match g.below(3) {
            0 => choices[0],
            1 => choices[1],
            _ => g.below(16) as i128,
        };
        BoolExpr::pred(Leaf { col: x, op, lit })
    };
    let or = BoolExpr::or(vec![
        leaf(CmpOp::Eq, [16, 17]),
        leaf(CmpOp::Eq, [3, 19]),
        leaf(CmpOp::Lt, [0, 100]),
    ]);
    let mut conjuncts = vec![or];
    for _ in 0..1 + g.below(2) {
        conjuncts.push(BoolExpr::pred(Leaf::random(g, rows)));
    }
    BoolExpr::and(conjuncts)
}

/// `<leaf> AND ((x >= lo AND x <= hi) OR x = v) AND (y = k OR ((x = v₁ OR
/// x = v₂) AND x < v₃))` over small-domain `u32` columns `x` and `y`: in
/// each filtering node a compound child that runs as one loop on `x`, with
/// the other connective, is ordered before a leaf on `x` — the range
/// estimates above the equality under the OR, the one-column OR below the
/// range under the AND. Literals past 0..15 make dictionary leaves
/// constant.
fn compound_before_leaf(g: &mut Gen, rows: usize, x: usize) -> BoolExpr<Leaf> {
    let leaf = |col, op, lit| BoolExpr::pred(Leaf { col, op, lit });
    let lo = g.below(8) as i128;
    let hi = lo + 2 + g.below(6) as i128;
    let range_or_eq = BoolExpr::or(vec![
        BoolExpr::and(vec![leaf(x, CmpOp::Ge, lo), leaf(x, CmpOp::Le, hi)]),
        leaf(x, CmpOp::Eq, g.below(18) as i128),
    ]);
    let y = 1 + (x + g.below(2) as usize) % (U32_COLUMNS - 1);
    let below = match g.below(4) {
        0 => 100,
        _ => 4 + g.below(12) as i128,
    };
    let eq_or_range = BoolExpr::or(vec![
        leaf(y, CmpOp::Eq, g.below(16) as i128),
        BoolExpr::and(vec![
            BoolExpr::or(vec![
                leaf(x, CmpOp::Eq, g.below(18) as i128),
                leaf(x, CmpOp::Eq, g.below(16) as i128),
            ]),
            leaf(x, CmpOp::Lt, below),
        ]),
    ]);
    BoolExpr::and(vec![
        BoolExpr::pred(Leaf::random(g, rows)),
        range_or_eq,
        eq_or_range,
    ])
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
        let (table, layouts) = data.table(&mut g, None);
        let expr = random_tree(&mut g, depth, rows);
        let xs = random_xs(&mut g);
        check(&data, &table, &layouts, &expr, xs)?;
    }

    /// An AND of six two-leaf ORs (2^6 disjuncts in DNF) has no leaf
    /// conjunct: its first OR drives and the other five filter.
    #[test]
    fn trees_past_the_dnf_cap_agree_with_the_row_walk(
        seed in any::<u64>(),
        rows in 1usize..1200,
    ) {
        let mut g = Gen(seed | 1);
        let data = Data::random(&mut g, rows);
        let (table, layouts) = data.table(&mut g, None);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A one-column OR under a driver, with its column in each of the five
    /// layouts in turn.
    #[test]
    fn one_column_ors_agree_with_the_row_walk(
        seed in any::<u64>(),
        rows in 1usize..1500,
    ) {
        let mut g = Gen(seed | 1);
        let data = Data::random(&mut g, rows);
        let x = 1 + g.below(U32_COLUMNS as u64 - 1) as usize;
        let expr = one_column_or(&mut g, rows, x);
        let xs = random_xs(&mut g);
        for layout in 0..5 {
            let (table, layouts) = data.table(&mut g, Some((x, layout)));
            check(&data, &table, &layouts, &expr, xs)?;
        }
    }

    /// Compound children before same-column leaves, in OR and in AND
    /// filter position, with `x` in each of the five layouts in turn. Tables
    /// of 200 rows or more hold every value 0..15 (all but surely), so the
    /// estimates order the children as written.
    #[test]
    fn compound_children_before_same_column_leaves_agree_with_the_row_walk(
        seed in any::<u64>(),
        rows in 200usize..1500,
    ) {
        let mut g = Gen(seed | 1);
        let data = Data::random(&mut g, rows);
        let x = 1 + g.below(U32_COLUMNS as u64 - 1) as usize;
        let expr = compound_before_leaf(&mut g, rows, x);
        let xs = random_xs(&mut g);
        for layout in 0..5 {
            let (table, layouts) = data.table(&mut g, Some((x, layout)));
            check(&data, &table, &layouts, &expr, xs)?;
        }
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
