//! Property: a random conjunctive chain returns the same answer whatever
//! layout each column is stored in and whether the JIT is on. Chains run
//! 1–10 predicates (a `BETWEEN` counts as two), so they cross every
//! kernel's predicate limit; each column's layout is drawn per case, so
//! every layout group takes turns driving the chunk scan while the rest
//! filter its survivors. The reference is the plain-layout engine with
//! the JIT off.

use std::sync::OnceLock;

use fts_query::{Engine, JitMode, QueryResult};
use fts_storage::{Column, ColumnDef, DataType, Table};
use proptest::prelude::*;

const ROWS: usize = 6000;
const CHUNK: usize = 1024;

/// The logical data: five `u32` columns of different shapes (narrow,
/// large-offset narrow span, wide hashed, very wide hashed, sorted) and
/// one `i64` column.
fn logical_table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let hash = |i: usize, k: usize| (i.wrapping_mul(2654435761).wrapping_add(k * 40503)) >> 3;
        Table::from_chunked_columns(
            vec![
                ColumnDef::new("qty", DataType::U32),
                ColumnDef::new("base", DataType::U32),
                ColumnDef::new("code", DataType::U32),
                ColumnDef::new("key", DataType::U32),
                ColumnDef::new("seq", DataType::U32),
                ColumnDef::new("price", DataType::I64),
            ],
            vec![
                Column::from_fn(ROWS, |i| (hash(i, 1) % 50) as u32),
                Column::from_fn(ROWS, |i| 3_000_000_000 + (hash(i, 2) % 1000) as u32),
                Column::from_fn(ROWS, |i| (hash(i, 3) % 100_000) as u32),
                Column::from_fn(ROWS, |i| (hash(i, 4) % 2_000_000) as u32),
                Column::from_fn(ROWS, |i| (i / 7) as u32),
                Column::from_fn(ROWS, |i| (hash(i, 5) % 100_000) as i64 - 5000),
            ],
            CHUNK,
        )
        .expect("logical table")
    })
}

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

/// Re-encode each column in a layout drawn from `g`: `u32` columns over
/// all five layouts, the `i64` column plain or dictionary-encoded.
fn random_layouts(g: &mut Gen) -> (Table, String) {
    let mut t = logical_table().clone();
    let mut names = Vec::new();
    for c in 0..5 {
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
    if g.below(2) == 1 {
        t = t.with_dictionary_encoding(&[5]).unwrap();
        names.push("dict");
    } else {
        names.push("plain");
    }
    (t, names.join(","))
}

/// A literal for column `c`: usually a stored value (so equality and
/// boundaries hit), sometimes an arbitrary or out-of-range one.
fn literal(g: &mut Gen, c: usize) -> i64 {
    let t = logical_table();
    if g.below(5) == 0 {
        return match c {
            5 => g.below(120_000) as i64 - 10_000,
            _ => g.below(u32::MAX as u64) as i64,
        };
    }
    let row = g.below(ROWS as u64) as usize;
    match t.value_at(c, row) {
        fts_storage::Value::U32(v) => v as i64,
        fts_storage::Value::I64(v) => v,
        other => panic!("unexpected {other:?}"),
    }
}

/// A random chain of 1–10 predicates as SQL text.
fn random_statement(g: &mut Gen) -> String {
    const NAMES: [&str; 6] = ["qty", "base", "code", "key", "seq", "price"];
    const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
    let target = 1 + g.below(10) as usize;
    let mut preds = Vec::new();
    let mut leaves = 0;
    while leaves < target {
        let c = g.below(6) as usize;
        if leaves + 2 <= target && g.below(3) == 0 {
            let (a, b) = (literal(g, c), literal(g, c));
            let (lo, hi) = (a.min(b), a.max(b));
            preds.push(format!("{} BETWEEN {lo} AND {hi}", NAMES[c]));
            leaves += 2;
        } else {
            let op = OPS[g.below(6) as usize];
            preds.push(format!("{} {op} {}", NAMES[c], literal(g, c)));
            leaves += 1;
        }
    }
    let output = match g.below(4) {
        0 | 1 => "COUNT(*)".to_string(),
        2 => "SUM(price), MIN(code)".to_string(),
        _ => "seq, key, price".to_string(),
    };
    let limit = if output.starts_with("seq") {
        format!(" LIMIT {}", 1 + g.below(400))
    } else {
        String::new()
    };
    format!(
        "SELECT {output} FROM t WHERE {}{limit}",
        preds.join(" AND ")
    )
}

fn run(engine: &Engine, sql: &str) -> QueryResult {
    let p = engine
        .prepare(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    engine
        .execute(&p)
        .unwrap_or_else(|e| panic!("{sql}: {e:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_chains_agree_across_layouts_and_jit(seed in any::<u64>(), jit in any::<bool>()) {
        let mut g = Gen(seed | 1);
        let (table, layouts) = random_layouts(&mut g);
        let reference = Engine::with_jit(JitMode::Off);
        reference.register("t", logical_table().clone());
        let engine = Engine::with_jit(if jit { JitMode::On } else { JitMode::Off });
        engine.register("t", table);
        for _ in 0..4 {
            let sql = random_statement(&mut g);
            prop_assert_eq!(
                run(&engine, &sql),
                run(&reference, &sql),
                "layouts [{}] jit={} on: {}",
                layouts,
                jit,
                sql
            );
        }
    }
}
