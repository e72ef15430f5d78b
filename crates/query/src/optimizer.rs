//! The rule-based optimizer (paper §V, Figs. 8–9).
//!
//! Three rules, applied in order:
//!
//! 1. **Predicate pushdown** — σ nodes (plain and boolean-tree) sink below
//!    projections so scans see them ("make sure that predicates are
//!    evaluated as early as possible").
//! 2. **Predicate reordering** — consecutive σ chains are sorted by
//!    estimated selectivity, most selective first ("… and in the most
//!    efficient order"), one column at a time: a column's conjuncts stay
//!    adjacent, and the columns run ascending by their combined estimate,
//!    so a `BETWEEN` counts as the range it is and forms one fused stage.
//!    The driver stage of the fused scan then filters the most rows,
//!    minimizing gather traffic. A boolean tree ([`Lqp::FilterTree`]) is
//!    ordered the same way at every node: an AND's children ascending by
//!    estimate (its leaf conjuncts grouped by column), an OR's children
//!    descending, so the set of rows its later children still have to
//!    decide shrinks fastest (DESIGN.md §6.2).
//! 3. **Fused-chain tagging** — a maximal chain of ≥ 2 consecutive σ nodes
//!    is collapsed into one [`Lqp::FusedFilterChain`], which the translator
//!    turns into a Fused Table Scan operator (Fig. 8's right-hand plan).

use fts_core::BoolExpr;

use crate::lqp::{and_selectivity, leaf, tree_selectivity, BoundPred, Lqp};

/// Apply all rules and return the optimized plan.
pub fn optimize(plan: Lqp) -> Lqp {
    let plan = pushdown(plan);
    let plan = reorder_predicates(plan);
    fuse_chains(plan)
}
/// Rule 1: sink σ below Project (column sets are index-based and unchanged
/// by projection, so the move is always valid for our plan shapes).
pub fn pushdown(plan: Lqp) -> Lqp {
    match plan {
        Lqp::Filter { input, pred } => {
            let input = pushdown(*input);
            match input {
                Lqp::Project {
                    input: pin,
                    columns,
                    names,
                } => {
                    let pushed = pushdown(Lqp::Filter { input: pin, pred });
                    Lqp::Project {
                        input: Box::new(pushed),
                        columns,
                        names,
                    }
                }
                other => Lqp::Filter {
                    input: Box::new(other),
                    pred,
                },
            }
        }
        Lqp::FilterTree { input, expr } => {
            let input = pushdown(*input);
            match input {
                Lqp::Project {
                    input: pin,
                    columns,
                    names,
                } => {
                    let pushed = pushdown(Lqp::FilterTree { input: pin, expr });
                    Lqp::Project {
                        input: Box::new(pushed),
                        columns,
                        names,
                    }
                }
                other => Lqp::FilterTree {
                    input: Box::new(other),
                    expr,
                },
            }
        }
        other => map_input(other, pushdown),
    }
}

/// Rule 2: order maximal σ chains most selective first, one column at a
/// time (a column's predicates adjacent, columns ascending by their
/// combined estimate), and order every boolean tree's nodes by estimate.
pub fn reorder_predicates(plan: Lqp) -> Lqp {
    match plan {
        Lqp::FilterTree { input, expr } => Lqp::FilterTree {
            input: Box::new(reorder_predicates(*input)),
            expr: order_tree(expr),
        },
        Lqp::Filter { .. } => {
            let (preds, below) = collect_chain(plan);
            let preds = order_conjuncts(preds.into_iter().map(BoolExpr::Pred).collect())
                .into_iter()
                .filter_map(|c| match c {
                    BoolExpr::Pred(p) => Some(p),
                    _ => None,
                })
                .collect();
            rebuild_chain(preds, reorder_predicates(below))
        }
        other => map_input(other, reorder_predicates),
    }
}

/// Order a tree's children at every node: an AND's by
/// [`order_conjuncts`] (its leaf conjuncts become the driver chain), an
/// OR's descending by estimate (the child that accepts the most runs
/// first, so later children see the fewest undecided rows). Sorting is
/// stable, so equal estimates keep the written order.
fn order_tree(expr: BoolExpr<BoundPred>) -> BoolExpr<BoundPred> {
    match expr {
        BoolExpr::And(cs) => {
            BoolExpr::And(order_conjuncts(cs.into_iter().map(order_tree).collect()))
        }
        BoolExpr::Or(cs) => {
            let mut keyed: Vec<(f64, BoolExpr<BoundPred>)> = cs
                .into_iter()
                .map(|c| {
                    let c = order_tree(c);
                    (tree_selectivity(&c), c)
                })
                .collect();
            keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
            BoolExpr::Or(keyed.into_iter().map(|(_, c)| c).collect())
        }
        other => other,
    }
}

/// Order a conjunction's children, most selective first, one column at a
/// time: each column's leaf conjuncts form one group, ascending by their
/// own estimates, and every other child is a group of its own. Groups run
/// ascending by their combined estimate, so a `BETWEEN` counts as the
/// range it is, and a column's conjuncts stay adjacent: the fused scan
/// evaluates each column's run as one stage. Both sorts are stable, so
/// equal estimates keep the written order.
fn order_conjuncts(children: Vec<BoolExpr<BoundPred>>) -> Vec<BoolExpr<BoundPred>> {
    let column = |c: &BoolExpr<BoundPred>| leaf(c).map(|p| p.column);
    let mut groups: Vec<Vec<BoolExpr<BoundPred>>> = Vec::new();
    for c in children {
        match groups
            .iter_mut()
            .find(|g| column(&c).is_some() && column(&g[0]) == column(&c))
        {
            Some(group) => group.push(c),
            None => groups.push(vec![c]),
        }
    }
    let mut keyed: Vec<(f64, Vec<BoolExpr<BoundPred>>)> = groups
        .into_iter()
        .map(|mut group| {
            group.sort_by(|a, b| tree_selectivity(a).total_cmp(&tree_selectivity(b)));
            (and_selectivity(&group), group)
        })
        .collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().flat_map(|(_, group)| group).collect()
}

/// Rule 3: tag maximal σ chains of length ≥ 2 as fused.
pub fn fuse_chains(plan: Lqp) -> Lqp {
    match plan {
        Lqp::Filter { .. } => {
            let (preds, below) = collect_chain(plan);
            let below = fuse_chains(below);
            if preds.len() >= 2 {
                Lqp::FusedFilterChain {
                    input: Box::new(below),
                    preds,
                }
            } else {
                rebuild_chain(preds, below)
            }
        }
        other => map_input(other, fuse_chains),
    }
}

/// Split a σ chain into its predicates (top-first = evaluation-last …) and
/// the node below. Returned predicates are in *evaluation order* (the
/// bottom-most σ is evaluated first).
fn collect_chain(plan: Lqp) -> (Vec<BoundPred>, Lqp) {
    let mut preds_top_down = Vec::new();
    let mut node = plan;
    loop {
        match node {
            Lqp::Filter { input, pred } => {
                preds_top_down.push(pred);
                node = *input;
            }
            other => {
                preds_top_down.reverse();
                return (preds_top_down, other);
            }
        }
    }
}

/// Rebuild a σ chain from evaluation-ordered predicates.
fn rebuild_chain(preds: Vec<BoundPred>, below: Lqp) -> Lqp {
    preds.into_iter().fold(below, |input, pred| Lqp::Filter {
        input: Box::new(input),
        pred,
    })
}

/// Recurse into the (single) input of a non-Filter node.
fn map_input(plan: Lqp, f: impl Fn(Lqp) -> Lqp) -> Lqp {
    match plan {
        Lqp::StoredTable { .. } => plan,
        Lqp::Filter { input, pred } => Lqp::Filter {
            input: Box::new(f(*input)),
            pred,
        },
        Lqp::FusedFilterChain { input, preds } => Lqp::FusedFilterChain {
            input: Box::new(f(*input)),
            preds,
        },
        Lqp::FilterTree { input, expr } => Lqp::FilterTree {
            input: Box::new(f(*input)),
            expr,
        },
        Lqp::Aggregate { input, aggs } => Lqp::Aggregate {
            input: Box::new(f(*input)),
            aggs,
        },
        Lqp::Project {
            input,
            columns,
            names,
        } => Lqp::Project {
            input: Box::new(f(*input)),
            columns,
            names,
        },
        Lqp::Limit { input, n } => Lqp::Limit {
            input: Box::new(f(*input)),
            n,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::lqp::plan;
    use crate::parser::parse;
    use fts_storage::{Column, ColumnDef, DataType, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            "t",
            Table::from_columns(
                vec![
                    ColumnDef::new("wide", DataType::U32),   // 2 distinct → sel 0.5
                    ColumnDef::new("narrow", DataType::U32), // 100 distinct → sel 0.01
                    ColumnDef::new("mid", DataType::U32),    // 10 distinct → sel 0.1
                ],
                vec![
                    Column::from_fn(1000, |i| (i % 2) as u32),
                    Column::from_fn(1000, |i| (i % 100) as u32),
                    Column::from_fn(1000, |i| (i % 10) as u32),
                ],
            )
            .unwrap(),
        );
        cat
    }

    fn optimized(sql: &str) -> Lqp {
        let cat = catalog();
        optimize(plan(&parse(sql).unwrap(), &cat).unwrap())
    }

    #[test]
    fn chains_are_fused_and_reordered() {
        let p = optimized("SELECT COUNT(*) FROM t WHERE wide = 1 AND narrow = 7 AND mid = 3");
        let Lqp::Aggregate { input, .. } = &p else {
            panic!("{p:?}")
        };
        let Lqp::FusedFilterChain { preds, input } = input.as_ref() else {
            panic!("{p:?}")
        };
        // Most selective first: narrow (0.01), mid (0.1), wide (0.5).
        let names: Vec<&str> = preds.iter().map(|q| q.column_name.as_str()).collect();
        assert_eq!(names, vec!["narrow", "mid", "wide"]);
        assert!(matches!(input.as_ref(), Lqp::StoredTable { .. }));
    }

    #[test]
    fn single_predicate_stays_a_filter() {
        let p = optimized("SELECT COUNT(*) FROM t WHERE mid = 3");
        let Lqp::Aggregate { input, .. } = &p else {
            panic!()
        };
        assert!(matches!(input.as_ref(), Lqp::Filter { .. }));
    }

    #[test]
    fn no_where_clause() {
        let p = optimized("SELECT COUNT(*) FROM t");
        let Lqp::Aggregate { input, .. } = &p else {
            panic!()
        };
        assert!(matches!(input.as_ref(), Lqp::StoredTable { .. }));
    }

    #[test]
    fn explain_shows_fused_tag() {
        let text = optimized("SELECT COUNT(*) FROM t WHERE wide = 1 AND mid = 3").explain();
        assert!(
            text.contains("FusedTableScan ꔖ[mid = 3 AND wide = 1]"),
            "{text}"
        );
    }

    #[test]
    fn projection_queries_fuse_below_project() {
        let p = optimized("SELECT narrow FROM t WHERE wide = 0 AND mid = 2 LIMIT 3");
        let Lqp::Limit { input, .. } = &p else {
            panic!("{p:?}")
        };
        let Lqp::Project { input, .. } = input.as_ref() else {
            panic!("{p:?}")
        };
        assert!(matches!(input.as_ref(), Lqp::FusedFilterChain { .. }));
    }

    #[test]
    fn trees_order_and_children_ascending_and_or_children_descending() {
        // wide = 0.5, narrow = 0.01, mid = 0.1.
        let p = optimized(
            "SELECT COUNT(*) FROM t WHERE wide = 1 AND (narrow = 7 OR mid = 3 AND wide = 1) \
             AND mid = 2",
        );
        let Lqp::Aggregate { input, .. } = &p else {
            panic!("{p:?}")
        };
        let Lqp::FilterTree { expr, .. } = input.as_ref() else {
            panic!("{p:?}")
        };
        let BoolExpr::And(cs) = expr else {
            panic!("{expr:?}")
        };
        let text = |e: &BoolExpr<BoundPred>| match e {
            BoolExpr::Pred(p) => p.column_name.clone(),
            BoolExpr::And(_) => "and".into(),
            BoolExpr::Or(_) => "or".into(),
            BoolExpr::Not(_) => "not".into(),
        };
        // The OR estimates 1 − 0.99 × 0.95 ≈ 0.06, below mid's 0.1 and
        // wide's 0.5, so it comes first.
        let names: Vec<String> = cs.iter().map(text).collect();
        assert_eq!(names, vec!["or", "mid", "wide"]);
        let BoolExpr::Or(ds) = &cs[0] else {
            panic!("{expr:?}")
        };
        // The OR's children run most accepting first: (mid AND wide)
        // estimates 0.05, narrow 0.01.
        let names: Vec<String> = ds.iter().map(text).collect();
        assert_eq!(names, vec!["and", "narrow"]);
        let BoolExpr::And(inner) = &ds[0] else {
            panic!("{expr:?}")
        };
        let names: Vec<String> = inner.iter().map(text).collect();
        assert_eq!(names, vec!["mid", "wide"]);
        // A NOT over an OR is a conjunction: it stays a fused chain.
        let p = optimized("SELECT COUNT(*) FROM t WHERE NOT (mid = 3 OR wide = 1)");
        let Lqp::Aggregate { input, .. } = &p else {
            panic!("{p:?}")
        };
        assert!(
            matches!(input.as_ref(), Lqp::FusedFilterChain { .. }),
            "{p:?}"
        );
    }

    #[test]
    fn explain_prints_the_ordered_tree_with_estimates() {
        let text = optimized(
            "SELECT COUNT(*) FROM t WHERE mid = 3 AND wide = 1 AND (narrow = 7 OR narrow = 9)",
        )
        .explain();
        // One line per node in execution order, each with its estimate:
        // the AND's 0.05 × 0.0199, the OR's 1 − 0.99².
        let tree = [
            "    ∧ [sel≈0.0010]",
            "      ∨ [sel≈0.0199]",
            "        narrow = 7 [sel≈0.0100]",
            "        narrow = 9 [sel≈0.0100]",
            "      mid = 3 [sel≈0.1000]",
            "      wide = 1 [sel≈0.5000]",
        ]
        .join("\n");
        assert!(text.contains(&tree), "{text}");
    }

    #[test]
    fn a_column_s_conjuncts_stay_adjacent_and_drive_as_a_range() {
        let mut cat = Catalog::new();
        cat.register(
            "l",
            Table::from_columns(
                vec![
                    ColumnDef::new("shipdate", DataType::U32), // 0..=1000
                    ColumnDef::new("discount", DataType::U32), // 0..=10
                    ColumnDef::new("quantity", DataType::U32), // 0..=50
                ],
                vec![
                    Column::from_fn(1001, |i| i as u32),
                    Column::from_fn(1001, |i| (i % 11) as u32),
                    Column::from_fn(1001, |i| (i % 51) as u32),
                ],
            )
            .unwrap(),
        );
        let columns = |sql: &str| -> Vec<String> {
            let p = optimize(plan(&parse(sql).unwrap(), &cat).unwrap());
            let Lqp::Aggregate { input, .. } = &p else {
                panic!("{p:?}")
            };
            match input.as_ref() {
                Lqp::FusedFilterChain { preds, .. } => {
                    preds.iter().map(|q| q.column_name.clone()).collect()
                }
                Lqp::FilterTree {
                    expr: BoolExpr::And(cs),
                    ..
                } => cs
                    .iter()
                    .map(|c| leaf(c).map_or("tree".into(), |q| q.column_name.clone()))
                    .collect(),
                other => panic!("{other:?}"),
            }
        };
        // Q6's shape: the shipdate range (0.7 + 0.44 − 1 = 0.14) drives,
        // though each half alone is wider than `quantity < 24` (0.48); the
        // discount range (0.29) follows as one stage.
        assert_eq!(
            columns(
                "SELECT COUNT(*) FROM l WHERE shipdate >= 300 AND shipdate < 440 \
                 AND discount >= 5 AND discount <= 7 AND quantity < 24"
            ),
            ["shipdate", "shipdate", "discount", "discount", "quantity"]
        );
        // A BETWEEN's halves (0.8 and 0.72) stay adjacent around a
        // predicate whose estimate (0.75) falls between them.
        assert_eq!(
            columns("SELECT COUNT(*) FROM l WHERE quantity BETWEEN 10 AND 35 AND shipdate < 750"),
            ["quantity", "quantity", "shipdate"]
        );
        // The same among an AND's leaf conjuncts next to an OR.
        assert_eq!(
            columns(
                "SELECT COUNT(*) FROM l WHERE (discount = 3 OR discount = 4) \
                 AND quantity >= 10 AND shipdate < 750 AND quantity <= 35"
            ),
            ["tree", "quantity", "quantity", "shipdate"]
        );
    }

    #[test]
    fn reorder_is_stable_for_equal_selectivities() {
        let p = optimized("SELECT COUNT(*) FROM t WHERE mid = 1 AND mid = 2");
        let Lqp::Aggregate { input, .. } = &p else {
            panic!()
        };
        let Lqp::FusedFilterChain { preds, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(preds[0].value, fts_storage::Value::U32(1));
        assert_eq!(preds[1].value, fts_storage::Value::U32(2));
    }
}
