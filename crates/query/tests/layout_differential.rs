//! End-to-end differential guarantee over storage layouts: the same SQL
//! over the same logical data must give byte-identical results no matter
//! which layout each column is stored in — plain, dictionary, bit-packed,
//! frame-of-reference, byte-sliced, or a mix — and no matter whether the
//! JIT is on. This is the contract that lets the background advisor
//! re-encode chunks without anyone noticing.

use fts_query::{Engine, JitMode, QueryResult};
use fts_storage::{Column, ColumnDef, DataType, Table};

const ROWS: usize = 30_000;
const CHUNK: usize = 4096;

/// Deterministic data with compression-friendly shape: `qty` narrow
/// domain, `base` a large-offset narrow span (FoR bait), `code` wider
/// domain (multi-plane byte-slicing), `price` i64 ramp for phase-2 mixes.
fn logical_table() -> Table {
    Table::from_chunked_columns(
        vec![
            ColumnDef::new("qty", DataType::U32),
            ColumnDef::new("base", DataType::U32),
            ColumnDef::new("code", DataType::U32),
            ColumnDef::new("price", DataType::I64),
        ],
        vec![
            Column::from_fn(ROWS, |i| (i % 50) as u32),
            Column::from_fn(ROWS, |i| 3_000_000_000 + ((i * 7) % 1000) as u32),
            Column::from_fn(ROWS, |i| ((i * 2654435761usize) % 100_000) as u32),
            Column::from_fn(ROWS, |i| i as i64 - 1000),
        ],
        CHUNK,
    )
    .expect("logical table")
}

/// Every layout assignment under test, as (name, table) pairs.
fn variants() -> Vec<(&'static str, Table)> {
    let t = logical_table();
    vec![
        ("plain", t.clone()),
        ("dict", t.with_dictionary_encoding(&[0]).unwrap()),
        ("packed", t.with_bitpacking(&[0, 2]).unwrap()),
        ("for", t.with_for_encoding(&[0, 1, 2]).unwrap()),
        ("bs", t.with_byte_slicing(&[0, 1, 2]).unwrap()),
        (
            "mixed",
            t.with_for_encoding(&[1])
                .unwrap()
                .with_byte_slicing(&[2])
                .unwrap()
                .with_bitpacking(&[0])
                .unwrap(),
        ),
        (
            "for_dict",
            t.with_dictionary_encoding(&[0])
                .unwrap()
                .with_for_encoding(&[1, 2])
                .unwrap(),
        ),
    ]
}

fn render(r: &QueryResult) -> String {
    match r {
        QueryResult::Count(n) => format!("count={n}"),
        QueryResult::Explain(p) => p.clone(),
        QueryResult::Rows { columns, rows } => {
            let mut out = columns.join(",");
            for row in rows {
                out.push('\n');
                out.push_str(
                    &row.iter()
                        .map(|v| v.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                );
            }
            out
        }
    }
}

#[test]
fn all_layouts_agree_on_all_statements() {
    let statements = [
        // Single-predicate, each compressible column.
        "SELECT COUNT(*) FROM t WHERE qty < 25",
        "SELECT COUNT(*) FROM t WHERE base >= 3000000500",
        "SELECT COUNT(*) FROM t WHERE code = 41728",
        // Compressed-domain edge needles: below/above the stored range.
        "SELECT COUNT(*) FROM t WHERE base < 10",
        "SELECT COUNT(*) FROM t WHERE base <= 4000000000",
        "SELECT COUNT(*) FROM t WHERE qty >= 50",
        // Multi-predicate chains mixing layouts within one statement.
        "SELECT COUNT(*) FROM t WHERE qty < 25 AND base >= 3000000500",
        "SELECT COUNT(*) FROM t WHERE qty = 7 AND code < 50000 AND base > 3000000100",
        // Phase-2: typed i64 predicate on top of compressed phase-1.
        "SELECT COUNT(*) FROM t WHERE qty < 10 AND price >= 0",
        "SELECT SUM(price) FROM t WHERE qty = 5 AND base < 3000000900",
        "SELECT MIN(code) FROM t WHERE qty < 3",
        "SELECT MAX(base) FROM t WHERE code >= 50000",
        // Disjunctions route through the boolean-tree path.
        "SELECT COUNT(*) FROM t WHERE qty < 5 OR code >= 99000",
        // Projection output (ordered rows with LIMIT).
        "SELECT qty, base, price FROM t WHERE qty = 49 AND code < 60000 LIMIT 7",
        // One driver per chunk, every other predicate filters survivors;
        // each layout group drives in turn. A byte-sliced BETWEEN drives a
        // FoR follower (`mixed`: code byte-sliced, base FoR) ...
        "SELECT COUNT(*) FROM t WHERE code BETWEEN 1000 AND 2500 AND base >= 3000000100",
        // ... FoR drives a packed follower (`mixed`: qty packed) ...
        "SELECT SUM(price) FROM t WHERE base BETWEEN 3000000100 AND 3000000110 AND qty < 40",
        // ... an i64 driver with a u32 follower, and the reverse.
        "SELECT COUNT(*) FROM t WHERE price BETWEEN 100 AND 400 AND qty < 40",
        "SELECT MAX(price) FROM t WHERE price >= 0 AND qty = 3",
        // Nine predicates over FoR + dictionary columns: the first eight
        // drive, the ninth filters survivors.
        "SELECT COUNT(*) FROM t WHERE qty >= 1 AND qty < 49 AND qty <> 7 \
         AND base >= 3000000010 AND base < 3000000990 AND base <> 3000000500 \
         AND code > 10 AND code < 99990 AND code <> 41728",
        "SELECT code, price FROM t WHERE code BETWEEN 1000 AND 9000 AND price >= 0 \
         AND base < 3000000500 AND qty <> 3 LIMIT 9",
    ];

    for jit in [JitMode::Off, JitMode::On] {
        // Reference: the plain-layout engine.
        let reference = Engine::with_jit(jit);
        reference.register("t", logical_table());
        let expected: Vec<String> = statements
            .iter()
            .map(|s| {
                let p = reference.prepare(s).expect(s);
                render(&reference.execute(&p).expect(s))
            })
            .collect();

        for (name, table) in variants() {
            let engine = Engine::with_jit(jit);
            engine.register("t", table);
            for (stmt, expect) in statements.iter().zip(&expected) {
                let p = engine.prepare(stmt).expect(stmt);
                let got = render(&engine.execute(&p).expect(stmt));
                assert_eq!(
                    &got, expect,
                    "layout `{name}` diverged (jit {jit:?}) on: {stmt}"
                );
            }
        }
    }
}

#[test]
fn nine_predicate_for_dict_chain_returns_the_correct_count() {
    let sql = "SELECT COUNT(*) FROM t WHERE qty >= 1 AND qty < 49 AND qty <> 7 \
               AND base >= 3000000010 AND base < 3000000990 AND base <> 3000000500 \
               AND code > 10 AND code < 99990 AND code <> 41728";
    let expected = (0..ROWS)
        .filter(|&i| {
            let (qty, base, code) = (
                (i % 50) as u32,
                3_000_000_000 + ((i * 7) % 1000) as u32,
                ((i * 2654435761usize) % 100_000) as u32,
            );
            (1..49).contains(&qty)
                && qty != 7
                && (3_000_000_010..3_000_000_990).contains(&base)
                && base != 3_000_000_500
                && code > 10
                && code < 99_990
                && code != 41_728
        })
        .count() as u64;
    for (name, table) in variants() {
        for jit in [JitMode::Off, JitMode::On] {
            let engine = Engine::with_jit(jit);
            engine.register("t", table.clone());
            let p = engine.prepare(sql).expect(sql);
            let got = engine.execute(&p).expect(sql);
            assert_eq!(got, QueryResult::Count(expected), "{name} {jit:?}");
        }
    }
}
