//! End-to-end SQL tests for boolean predicate trees: WHERE clauses with
//! OR/NOT/parentheses must produce exactly the brute-force answer through
//! the driver-plus-filter-tree path, report rows in and out per tree node
//! under `EXPLAIN ANALYZE`, keep the JIT kernel cache hit rate at 100% in
//! steady state, and never mix adaptive calibration across drivers.

use fts_query::executor::{execute, execute_analyzed, ExecContext, JitMode, QueryResult};
use fts_query::lqp::plan;
use fts_query::optimizer::optimize;
use fts_query::parser::parse;
use fts_query::Catalog;
use fts_simd::SimdLevel;
use fts_storage::{Column, ColumnDef, DataType, Table};

fn avx512() -> bool {
    fts_simd::detect() >= SimdLevel::Avx512
}

/// 1000 rows in 256-row chunks: `a = i % 10`, `b = i % 4`, `big = i - 500`.
/// `t_dict` dictionary-encodes `a` and `big`.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    let t = Table::from_chunked_columns(
        vec![
            ColumnDef::new("a", DataType::U32),
            ColumnDef::new("b", DataType::U32),
            ColumnDef::new("big", DataType::I64),
        ],
        vec![
            Column::from_fn(1000, |i| (i % 10) as u32),
            Column::from_fn(1000, |i| (i % 4) as u32),
            Column::from_fn(1000, |i| i as i64 - 500),
        ],
        256,
    )
    .unwrap();
    cat.register("t", t.clone());
    cat.register("t_dict", t.with_dictionary_encoding(&[0, 2]).unwrap());
    cat
}

/// 20480 rows in 512-row chunks — enough chunks for adaptive calibration
/// to converge per sub-chain.
fn many_chunk_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let t = Table::from_chunked_columns(
        vec![
            ColumnDef::new("a", DataType::U32),
            ColumnDef::new("b", DataType::U32),
        ],
        vec![
            Column::from_fn(20_480, |i| (i % 10) as u32),
            Column::from_fn(20_480, |i| (i % 4) as u32),
        ],
        512,
    )
    .unwrap();
    cat.register("big", t);
    cat
}

fn run(cat: &Catalog, sql: &str, jit: JitMode) -> QueryResult {
    let ctx = ExecContext {
        jit,
        ..Default::default()
    };
    let p = optimize(plan(&parse(sql).unwrap(), cat).unwrap());
    execute(&p, &ctx).unwrap()
}

type BruteCase = (&'static str, Box<dyn Fn(u64, u64, i64) -> bool>);

fn brute(f: impl Fn(u64, u64, i64) -> bool) -> u64 {
    (0..1000u64)
        .filter(|&i| f(i % 10, i % 4, i as i64 - 500))
        .count() as u64
}

#[test]
fn disjunctive_counts_match_brute_force() {
    let cat = catalog();
    let cases: Vec<BruteCase> = vec![
        ("a = 5 OR a = 7", Box::new(|a, _, _| a == 5 || a == 7)),
        ("a = 5 OR b = 1", Box::new(|a, b, _| a == 5 || b == 1)),
        ("a < 2 OR a > 8", Box::new(|a, _, _| !(2..=8).contains(&a))),
        (
            "a = 5 AND b = 1 OR a = 6 AND b = 2",
            Box::new(|a, b, _| (a == 5 && b == 1) || (a == 6 && b == 2)),
        ),
        (
            "(a = 5 OR a = 6) AND b = 1",
            Box::new(|a, b, _| (a == 5 || a == 6) && b == 1),
        ),
        (
            "a = 5 AND b = 1 OR a = 5 AND b = 2",
            Box::new(|a, b, _| a == 5 && (b == 1 || b == 2)),
        ),
        (
            "a BETWEEN 2 AND 4 OR b = 3",
            Box::new(|a, b, _| (2..=4).contains(&a) || b == 3),
        ),
        (
            "big < -400 OR big >= 400",
            Box::new(|_, _, big| !(-400..400).contains(&big)),
        ),
        (
            "a = 1 OR b = 2 OR big = 0",
            Box::new(|a, b, big| a == 1 || b == 2 || big == 0),
        ),
        // A compound child that runs as one loop on a column, ordered
        // before a leaf on that column, keeps its own connective: the
        // BETWEENs under an OR (estimated above the `=`, so they run first)
        // and the one-column OR under an AND (estimated below `a < 5`).
        (
            "b = 1 AND (a BETWEEN 2 AND 6 OR a = 9)",
            Box::new(|a, b, _| b == 1 && ((2..=6).contains(&a) || a == 9)),
        ),
        (
            "b = 1 AND (big BETWEEN -100 AND 100 OR big = 301)",
            Box::new(|_, b, big| b == 1 && ((-100..=100).contains(&big) || big == 301)),
        ),
        (
            "b = 2 AND (big = 6 OR ((a = 2 OR a = 8) AND a < 5))",
            Box::new(|a, b, big| b == 2 && (big == 6 || ((a == 2 || a == 8) && a < 5))),
        ),
    ];
    for (sql, f) in &cases {
        let expected = brute(f);
        assert!(expected > 0, "{sql}: test data must produce matches");
        for jit in [JitMode::Off, JitMode::On] {
            let full = format!("SELECT COUNT(*) FROM t WHERE {sql}");
            assert_eq!(
                run(&cat, &full, jit),
                QueryResult::Count(expected),
                "{sql} ({jit:?})"
            );
        }
    }
}

#[test]
fn negated_counts_match_brute_force() {
    let cat = catalog();
    let cases: Vec<BruteCase> = vec![
        ("NOT a = 5", Box::new(|a, _, _| a != 5)),
        (
            "NOT (a = 5 AND b = 1)",
            Box::new(|a, b, _| !(a == 5 && b == 1)),
        ),
        (
            "NOT (a < 3 OR b = 2)",
            Box::new(|a, b, _| !(a < 3 || b == 2)),
        ),
        (
            "a = 5 OR NOT (b = 1 OR b = 2)",
            Box::new(|a, b, _| a == 5 || !(b == 1 || b == 2)),
        ),
        ("NOT NOT a = 5", Box::new(|a, _, _| a == 5)),
        (
            "NOT a BETWEEN 2 AND 7",
            Box::new(|a, _, _| !(2..=7).contains(&a)),
        ),
    ];
    for (sql, f) in &cases {
        let expected = brute(f);
        assert!(expected > 0, "{sql}: test data must produce matches");
        for jit in [JitMode::Off, JitMode::On] {
            let full = format!("SELECT COUNT(*) FROM t WHERE {sql}");
            assert_eq!(
                run(&cat, &full, jit),
                QueryResult::Count(expected),
                "{sql} ({jit:?})"
            );
        }
    }
}

#[test]
fn dictionary_encoded_disjunctions_match_brute_force() {
    let cat = catalog();
    let expected = brute(|a, _, big| a == 5 || big >= 250);
    for jit in [JitMode::Off, JitMode::On] {
        assert_eq!(
            run(
                &cat,
                "SELECT COUNT(*) FROM t_dict WHERE a = 5 OR big >= 250",
                jit
            ),
            QueryResult::Count(expected),
            "{jit:?}"
        );
    }
}

#[test]
fn disjunctive_projections_match_the_static_engines() {
    let cat = catalog();
    let sql = "SELECT a, b FROM t WHERE a = 5 AND b = 1 OR a = 6 AND b = 2";
    let on = run(&cat, sql, JitMode::On);
    let off = run(&cat, sql, JitMode::Off);
    assert_eq!(on, off, "row order must not depend on the engine");
    let QueryResult::Rows { rows, .. } = on else {
        panic!("projection returns rows");
    };
    assert_eq!(
        rows.len() as u64,
        brute(|a, b, _| (a == 5 && b == 1) || (a == 6 && b == 2))
    );
}

/// An AND of 6 ORs (64 disjuncts in DNF) runs as one tree: the first OR
/// drives, the other five filter its survivors — the exact answer.
#[test]
fn dnf_blowup_falls_back_to_tree_filter() {
    let cat = catalog();
    let clauses: Vec<String> = (0..6)
        .map(|k| format!("(a = {k} OR b = {})", k % 4))
        .collect();
    let sql = format!("SELECT COUNT(*) FROM t WHERE {}", clauses.join(" AND "));
    let expected = brute(|a, b, _| (0..6u64).all(|k| a == k || b == k % 4));
    let p = optimize(plan(&parse(&sql).unwrap(), &cat).unwrap());
    assert!(
        p.explain().contains("FilterTree"),
        "blown-up DNF keeps the tree: {}",
        p.explain()
    );
    for jit in [JitMode::Off, JitMode::On] {
        assert_eq!(
            run(&cat, &sql, jit),
            QueryResult::Count(expected),
            "{jit:?}"
        );
    }
}

#[test]
fn explain_shows_the_ordered_tree() {
    let cat = catalog();
    let explain = |sql: &str| optimize(plan(&parse(sql).unwrap(), &cat).unwrap()).explain();

    // An OR's children run most accepting first: (b = 1 AND b <= 2)
    // estimates 0.19, a = 5 0.1. No common prefix is hoisted.
    let text = explain("SELECT COUNT(*) FROM t WHERE a = 5 OR b = 1 AND b <= 2");
    assert!(text.contains("FilterTree"), "{text}");
    assert!(text.contains("    ∨ [sel≈"), "{text}");
    let (and, a) = (
        text.find("      ∧ [sel≈"),
        text.find("      a = 5 [sel≈0.1000]"),
    );
    assert!(and.unwrap() < a.unwrap(), "{text}");
    let text = explain("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 1 OR a = 5 AND b = 2");
    assert_eq!(text.matches("a = 5 [sel≈").count(), 2, "{text}");

    // An AND's children run most selective first.
    let text = explain("SELECT COUNT(*) FROM t WHERE b = 1 AND (a = 5 OR a = 7)");
    let (or, b) = (text.find("∨ [sel≈0.1900]"), text.find("b = 1 [sel≈0.2500]"));
    assert!(or.unwrap() < b.unwrap(), "{text}");

    // NOT normalizes to complemented operators before planning: the plan
    // is an ordinary conjunctive chain, not a tree.
    let text = explain("SELECT COUNT(*) FROM t WHERE NOT (a = 5 OR b = 1)");
    assert!(!text.contains("FilterTree"), "{text}");
    assert!(text.contains("a <> 5"), "{text}");
    assert!(text.contains("b <> 1"), "{text}");
}

/// The root's leaf conjuncts drive; an OR below them filters only the
/// driver's survivors, and each of its children only the candidates no
/// earlier child accepted.
#[test]
fn explain_analyze_reports_rows_per_tree_node() {
    let cat = catalog();
    let ctx = ExecContext {
        jit: JitMode::Off,
        ..Default::default()
    };
    let analyze = |sql: &str| {
        let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
        execute_analyzed(&p, &ctx).unwrap()
    };

    // A one-column OR is one node: one loop over the driver's survivors.
    let (result, report) =
        analyze("SELECT COUNT(*) FROM t WHERE (a = 5 OR a = 7) AND b BETWEEN 1 AND 2");
    let expected = brute(|a, b, _| (a == 5 || a == 7) && (1..=2).contains(&b));
    assert_eq!(result, QueryResult::Count(expected));
    let b = report.bool_scan.as_ref().expect("a boolean tree");
    let driver = b.prefix.as_ref().expect("b BETWEEN … drives");
    assert!(driver.drives);
    assert_eq!(driver.label, "b >= 1 AND b <= 2");
    assert_eq!((driver.rows_in, driver.rows_out), (1000, 500));
    assert_eq!(b.disjuncts.len(), 1, "{:?}", b.disjuncts);
    let or = &b.disjuncts[0];
    assert_eq!(or.label, "a = 5 OR a = 7");
    assert!(!or.drives && or.adaptive.is_none());
    assert_eq!((or.rows_in, or.rows_out), (driver.rows_out, expected));
    assert_eq!(
        (report.phase2_rows_in, report.phase2_rows_out),
        (500, expected)
    );
    let text = report.render(10.0);
    assert!(text.contains("bool scan: 2 nodes"), "{text}");
    assert!(text.contains("  ꔖ[b >= 1 AND b <= 2]: sel≈"), "{text}");
    assert!(text.contains("  rows 1000 -> 500\n"), "{text}");
    assert!(
        text.contains(&format!(
            "a = 5 OR a = 7: sel≈0.1900  rows 500 -> {expected}"
        )),
        "{text}"
    );

    // An OR over two columns: its second child sees what its first child
    // left undecided.
    let (result, report) =
        analyze("SELECT COUNT(*) FROM t WHERE (a = 5 OR big < -400) AND b BETWEEN 1 AND 2");
    let expected = brute(|a, b, big| (a == 5 || big < -400) && (1..=2).contains(&b));
    assert_eq!(result, QueryResult::Count(expected));
    let b = report.bool_scan.as_ref().expect("a boolean tree");
    let driver = b.prefix.as_ref().expect("b BETWEEN … drives");
    let [or, first, second] = &b.disjuncts[..] else {
        panic!("{:?}", b.disjuncts)
    };
    assert_eq!((or.label.as_str(), or.depth), ("∨", 0));
    assert_eq!((first.depth, second.depth), (1, 1));
    assert_eq!(or.rows_in, driver.rows_out);
    assert_eq!(first.rows_in, driver.rows_out);
    assert_eq!(second.rows_in, first.rows_in - first.rows_out);
    assert_eq!(first.rows_out + second.rows_out, expected);
    assert_eq!(or.rows_out, expected);
}

/// Once an OR's children have accepted every candidate, the rest never
/// run; a root OR's children each drive over the whole chunk.
#[test]
fn or_children_stop_once_every_candidate_is_accepted() {
    let cat = catalog();
    let ctx = ExecContext {
        jit: JitMode::Off,
        ..Default::default()
    };
    let sql = "SELECT COUNT(*) FROM t WHERE (a < 10 OR big = 7) AND b = 1";
    let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
    let (result, report) = execute_analyzed(&p, &ctx).unwrap();
    assert_eq!(result, QueryResult::Count(250));
    let b = report.bool_scan.as_ref().expect("a boolean tree");
    // The least selective child runs first and accepts every candidate.
    let [_, first, second] = &b.disjuncts[..] else {
        panic!("{:?}", b.disjuncts)
    };
    assert_eq!(first.label, "a < 10");
    assert_eq!((first.rows_in, first.rows_out), (250, 250));
    assert_eq!(second.label, "big = 7");
    assert_eq!((second.rows_in, second.rows_out), (0, 0));

    let sql = "SELECT COUNT(*) FROM t WHERE a < 10 OR b = 1";
    let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
    let (result, report) = execute_analyzed(&p, &ctx).unwrap();
    assert_eq!(result, QueryResult::Count(1000));
    let b = report.bool_scan.as_ref().expect("a boolean tree");
    assert!(b.prefix.is_none());
    let labels: Vec<&str> = b.disjuncts.iter().map(|d| d.label.as_str()).collect();
    assert_eq!(labels, vec!["a < 10", "b = 1"]);
    for d in &b.disjuncts {
        assert!(d.drives, "{}", d.label);
        assert_eq!(d.rows_in, 1000, "{}", d.label);
    }
}

/// A NaN row fails every comparison, `=`, `<=` and `>=` included, in every
/// shape of tree — also the AND of six ORs, which earlier ran row by row
/// through a comparison that took unordered floats for equal.
#[test]
fn nan_rows_never_match_in_any_tree() {
    let rows = 300;
    let f = |i: usize| if i.is_multiple_of(3) { f64::NAN } else { 1.0 };
    let mut cat = Catalog::new();
    cat.register(
        "n",
        Table::from_chunked_columns(
            vec![
                ColumnDef::new("f", DataType::F64),
                ColumnDef::new("a", DataType::U32),
            ],
            vec![
                Column::from_fn(rows, f),
                Column::from_fn(rows, |i| i as u32),
            ],
            128,
        )
        .unwrap(),
    );
    let six = |op: &str| {
        (0..6)
            .map(|k| format!("(f {op} 1.0 OR a = {})", 10_000 + k))
            .collect::<Vec<_>>()
            .join(" AND ")
    };
    type Case = (String, Box<dyn Fn(f64, u32) -> bool>);
    let cases: Vec<Case> = vec![
        ("f = 1.0 OR a = 100000".into(), Box::new(|f, _| f == 1.0)),
        (
            "f <= 1.0 OR a = 7".into(),
            Box::new(|f, a| f <= 1.0 || a == 7),
        ),
        (
            "f >= 1.0 OR a < 4".into(),
            Box::new(|f, a| f >= 1.0 || a < 4),
        ),
        (
            "f <> 2.0 OR a = 3".into(),
            Box::new(|f, a| f.partial_cmp(&2.0).is_some_and(|o| o.is_ne()) || a == 3),
        ),
        (six("="), Box::new(|f, _| f == 1.0)),
        (six("<="), Box::new(|f, _| f <= 1.0)),
        (six(">="), Box::new(|f, _| f >= 1.0)),
    ];
    for (clause, holds) in &cases {
        let expected = (0..rows).filter(|&i| holds(f(i), i as u32)).count() as u64;
        for jit in [JitMode::Off, JitMode::On] {
            let sql = format!("SELECT COUNT(*) FROM n WHERE {clause}");
            assert_eq!(
                run(&cat, &sql, jit),
                QueryResult::Count(expected),
                "{sql} ({jit:?})"
            );
        }
    }
    assert_eq!(
        run(
            &cat,
            &format!("SELECT COUNT(*) FROM n WHERE {}", six("=")),
            JitMode::Off
        ),
        QueryResult::Count(200)
    );
}

#[test]
fn repeated_disjunctive_queries_hit_the_jit_cache() {
    if !avx512() {
        eprintln!("skipping: no AVX-512");
        return;
    }
    let cat = many_chunk_catalog();
    let ctx = ExecContext {
        jit: JitMode::On,
        ..Default::default()
    };
    let sql = "SELECT COUNT(*) FROM big WHERE a = 5 AND b = 1 OR a = 6 AND b = 2";
    let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
    let (first_result, first) = execute_analyzed(&p, &ctx).unwrap();
    let expected = (0..20_480u64)
        .filter(|i| (i % 10 == 5 && i % 4 == 1) || (i % 10 == 6 && i % 4 == 2))
        .count() as u64;
    assert_eq!(first_result, QueryResult::Count(expected));
    // Each sub-chain compiles its candidates at most once; the tree shape
    // itself is never a cache key.
    assert!(
        first.jit_misses <= 4,
        "per-sub-chain compilation only: {first:?}"
    );
    let (_, second) = execute_analyzed(&p, &ctx).unwrap();
    assert_eq!(second.jit_misses, 0, "steady state recompiled: {second:?}");
    assert_eq!(second.jit_evictions, 0);

    // A different tree over the same sub-chains reuses the same kernels:
    // sub-chains are content-addressed, so nothing new compiles.
    let sql2 = "SELECT COUNT(*) FROM big WHERE a = 6 AND b = 2 OR a = 5 AND b = 1";
    let p2 = optimize(plan(&parse(sql2).unwrap(), &cat).unwrap());
    let (r2, third) = execute_analyzed(&p2, &ctx).unwrap();
    assert_eq!(r2, QueryResult::Count(expected));
    assert_eq!(
        third.jit_misses, 0,
        "shared sub-chains recompiled: {third:?}"
    );
}

/// Regression test for calibration mixing: the two sub-chains of one
/// disjunction have very different selectivities (0.1 vs 0.25); each
/// calibrator must observe its own, not a blend.
#[test]
fn per_sub_chain_calibration_is_not_mixed() {
    let cat = many_chunk_catalog();
    let ctx = ExecContext {
        jit: JitMode::Off,
        ..Default::default()
    };
    let sql = "SELECT COUNT(*) FROM big WHERE a = 5 OR b = 1";
    let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
    let (result, report) = execute_analyzed(&p, &ctx).unwrap();
    let expected = (0..20_480u64).filter(|i| i % 10 == 5 || i % 4 == 1).count() as u64;
    assert_eq!(result, QueryResult::Count(expected));

    let b = report.bool_scan.as_ref().expect("disjunctive statement");
    assert!(b.prefix.is_none(), "no common predicate to factor");
    assert_eq!(b.disjuncts.len(), 2);
    for d in &b.disjuncts {
        let a = d
            .adaptive
            .as_ref()
            .unwrap_or_else(|| panic!("{}: u32 sub-chain is covered by the selector", d.label));
        let own = match d.label.as_str() {
            "a = 5" => 0.1,
            "b = 1" => 0.25,
            other => panic!("unexpected sub-chain {other}"),
        };
        assert!(
            (a.observed_selectivity - own).abs() < 1e-6,
            "{}: observed {} but own selectivity is {own} — calibration mixed \
             across sub-chains",
            d.label,
            a.observed_selectivity
        );
        assert!(a.winner.is_some(), "{}: 40 chunks must converge", d.label);
    }
}
