//! Logical query plans (paper Fig. 9: "logical query plans … contain
//! relational operators but do not define the actual implementation") and
//! the binder that builds them from an AST.

use std::sync::Arc;

use fts_core::BoolExpr;
use fts_storage::{CmpOp, Table, Value};

use crate::ast::{AggFunc, AstPredicate, Literal, Projection, Select};
use crate::catalog::{Catalog, CatalogEntry};

/// A bound aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAgg {
    /// The function.
    pub func: AggFunc,
    /// Argument column index (`None` only for `COUNT(*)`).
    pub column: Option<usize>,
    /// Output label, e.g. `sum(price)`.
    pub label: String,
}

/// A bound predicate: column resolved, literal cast, selectivity estimated.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPred {
    /// Column index in the table schema.
    pub column: usize,
    /// Column name (for plan printing).
    pub column_name: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal, cast to the column's type.
    pub value: Value,
    /// Estimated fraction of qualifying rows.
    pub selectivity: f64,
}

/// Logical plan nodes (σ chains are kept as individual `Filter` nodes until
/// the optimizer tags them — Fig. 8's left side).
#[derive(Debug, Clone)]
pub enum Lqp {
    /// A stored table (leaf).
    StoredTable {
        /// Table name.
        name: String,
        /// Resolved table handle.
        table: Arc<Table>,
        /// Catalog entry (statistics + chunk ranges for pruning).
        entry: CatalogEntry,
    },
    /// One σ node.
    Filter {
        /// Input plan.
        input: Box<Lqp>,
        /// The predicate.
        pred: BoundPred,
    },
    /// A σ chain tagged for translation into one Fused Table Scan
    /// (Fig. 8's right side — produced by the optimizer only).
    FusedFilterChain {
        /// Input plan.
        input: Box<Lqp>,
        /// Predicates in evaluation order.
        preds: Vec<BoundPred>,
    },
    /// A non-conjunctive WHERE clause as a bound boolean tree in negation
    /// normal form (the binder rewrites `NOT` into complemented operators
    /// via [`CmpOp::negate`], so the tree holds only AND/OR over leaves).
    /// The optimizer orders every node's children by estimate; the
    /// executor runs the root's leaf conjuncts as one fused driver scan per
    /// chunk, and the rest of the tree filters the driver's survivors
    /// (DESIGN.md §6). A conjunctive chain is the tree's simplest case and
    /// keeps its σ nodes.
    FilterTree {
        /// Input plan.
        input: Box<Lqp>,
        /// The predicate tree (NNF).
        expr: BoolExpr<BoundPred>,
    },
    /// Whole-table aggregation (COUNT/SUM/MIN/MAX/AVG, no GROUP BY).
    Aggregate {
        /// Input plan.
        input: Box<Lqp>,
        /// The aggregate expressions.
        aggs: Vec<BoundAgg>,
    },
    /// Column projection.
    Project {
        /// Input plan.
        input: Box<Lqp>,
        /// Projected column indexes.
        columns: Vec<usize>,
        /// Their names.
        names: Vec<String>,
    },
    /// Row limit.
    Limit {
        /// Input plan.
        input: Box<Lqp>,
        /// Maximum rows.
        n: u64,
    },
}

impl Lqp {
    /// The input of a unary node, if any.
    pub fn input(&self) -> Option<&Lqp> {
        match self {
            Lqp::StoredTable { .. } => None,
            Lqp::Filter { input, .. }
            | Lqp::FusedFilterChain { input, .. }
            | Lqp::FilterTree { input, .. }
            | Lqp::Aggregate { input, .. }
            | Lqp::Project { input, .. }
            | Lqp::Limit { input, .. } => Some(input),
        }
    }

    /// The name of the stored table this plan ultimately scans, if the
    /// plan bottoms out in one (it always does for plans the current
    /// binder produces). The scan-sharing batcher keys on this.
    pub fn scan_table(&self) -> Option<&str> {
        match self {
            Lqp::StoredTable { name, .. } => Some(name),
            other => other.input()?.scan_table(),
        }
    }

    /// Pretty-print the plan tree (used for `EXPLAIN`).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            Lqp::StoredTable { name, table, .. } => {
                // Per-column storage layout of the first chunk (chunks may
                // diverge while the advisor re-encodes in the background).
                let layouts = match table.chunks().first() {
                    Some(chunk) => (0..table.columns())
                        .map(|i| {
                            format!("{}:{}", table.schema()[i].name, chunk.segment(i).layout())
                        })
                        .collect::<Vec<_>>()
                        .join(" "),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{pad}StoredTable {name} [{} rows] [{layouts}]",
                    table.rows()
                );
            }
            Lqp::Filter { input, pred } => {
                let _ = writeln!(
                    out,
                    "{pad}Filter σ({} {} {}) [sel≈{:.4}]",
                    pred.column_name, pred.op, pred.value, pred.selectivity
                );
                input.explain_into(out, depth + 1);
            }
            Lqp::FusedFilterChain { input, preds } => {
                let _ = writeln!(out, "{pad}FusedTableScan ꔖ[{}]", chain_text(preds));
                input.explain_into(out, depth + 1);
            }
            Lqp::FilterTree { input, expr } => {
                let _ = writeln!(out, "{pad}FilterTree σ({})", bool_text(expr));
                explain_tree(out, expr, depth + 1);
                input.explain_into(out, depth + 1);
            }
            Lqp::Aggregate { input, aggs } => {
                let labels: Vec<&str> = aggs.iter().map(|a| a.label.as_str()).collect();
                let _ = writeln!(out, "{pad}Aggregate {}", labels.join(", ").to_uppercase());
                input.explain_into(out, depth + 1);
            }
            Lqp::Project { input, names, .. } => {
                let _ = writeln!(out, "{pad}Project [{}]", names.join(", "));
                input.explain_into(out, depth + 1);
            }
            Lqp::Limit { input, n } => {
                let _ = writeln!(out, "{pad}Limit {n}");
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// Render one bound predicate as `name OP value`.
pub(crate) fn pred_text(p: &BoundPred) -> String {
    format!("{} {} {}", p.column_name, p.op, p.value)
}

/// Render a conjunctive sub-chain as `a = 5 AND b = 1` (evaluation order).
pub(crate) fn chain_text(preds: &[BoundPred]) -> String {
    preds
        .iter()
        .map(pred_text)
        .collect::<Vec<_>>()
        .join(" AND ")
}

/// Estimated selectivity of a conjunction. Per column, the tightest
/// lower bound and the tightest upper bound combine as one range
/// (`s_lo + s_hi − 1`) instead of independent factors — the halves of a
/// narrow `BETWEEN` are each unselective, their intersection is not.
/// Every other predicate, and every column, multiplies.
pub(crate) fn conjunction_selectivity<'p>(preds: impl Iterator<Item = &'p BoundPred>) -> f64 {
    // Per column: (column, tightest lower bound, tightest upper bound,
    // product of the other predicates).
    let mut cols: Vec<(usize, Option<f64>, Option<f64>, f64)> = Vec::new();
    for p in preds {
        let at = match cols.iter().position(|c| c.0 == p.column) {
            Some(at) => at,
            None => {
                cols.push((p.column, None, None, 1.0));
                cols.len() - 1
            }
        };
        let c = &mut cols[at];
        let s = p.selectivity;
        match p.op {
            CmpOp::Gt | CmpOp::Ge => c.1 = Some(c.1.map_or(s, |lo| lo.min(s))),
            CmpOp::Lt | CmpOp::Le => c.2 = Some(c.2.map_or(s, |hi| hi.min(s))),
            CmpOp::Eq | CmpOp::Ne => c.3 *= s,
        }
    }
    cols.iter()
        .map(|&(_, lo, hi, other)| {
            let range = match (lo, hi) {
                (Some(lo), Some(hi)) => (lo + hi - 1.0).max(0.0),
                (Some(s), None) | (None, Some(s)) => s,
                (None, None) => 1.0,
            };
            range * other
        })
        .product()
}

/// Estimated selectivity of a disjunction of independent children,
/// `1 − Π(1 − sᵢ)`.
pub(crate) fn disjunction_selectivity(children: impl IntoIterator<Item = f64>) -> f64 {
    1.0 - children.into_iter().map(|s| 1.0 - s).product::<f64>()
}

/// The leaf of a tree node, if it is one.
pub(crate) fn leaf(expr: &BoolExpr<BoundPred>) -> Option<&BoundPred> {
    match expr {
        BoolExpr::Pred(p) => Some(p),
        _ => None,
    }
}

/// Estimated selectivity of an NNF tree node: an AND's leaf conjuncts
/// combine by [`conjunction_selectivity`] and multiply with its other
/// children's estimates; an OR's children combine by
/// [`disjunction_selectivity`].
pub(crate) fn tree_selectivity(expr: &BoolExpr<BoundPred>) -> f64 {
    match expr {
        BoolExpr::Pred(p) => p.selectivity,
        BoolExpr::And(cs) => and_selectivity(cs),
        BoolExpr::Or(cs) => disjunction_selectivity(cs.iter().map(tree_selectivity)),
        BoolExpr::Not(c) => 1.0 - tree_selectivity(c),
    }
}

/// Estimated selectivity of conjoined NNF nodes: the leaves combine by
/// [`conjunction_selectivity`] and multiply with the other nodes'
/// estimates.
pub(crate) fn and_selectivity(cs: &[BoolExpr<BoundPred>]) -> f64 {
    let others: f64 = cs
        .iter()
        .filter(|c| leaf(c).is_none())
        .map(tree_selectivity)
        .product();
    conjunction_selectivity(cs.iter().filter_map(leaf)) * others
}

/// Append a tree one node per line, children indented below their parent
/// in execution order, each with its estimate.
fn explain_tree(out: &mut String, expr: &BoolExpr<BoundPred>, depth: usize) {
    use std::fmt::Write;
    let node = match expr {
        BoolExpr::Pred(p) => pred_text(p),
        BoolExpr::And(_) => "∧".to_string(),
        BoolExpr::Or(_) => "∨".to_string(),
        BoolExpr::Not(_) => "NOT".to_string(),
    };
    let _ = writeln!(
        out,
        "{}{node} [sel≈{:.4}]",
        "  ".repeat(depth),
        tree_selectivity(expr)
    );
    match expr {
        BoolExpr::Pred(_) => {}
        BoolExpr::And(cs) | BoolExpr::Or(cs) => {
            cs.iter().for_each(|c| explain_tree(out, c, depth + 1));
        }
        BoolExpr::Not(c) => explain_tree(out, c, depth + 1),
    }
}

/// Render a bound boolean tree with explicit grouping parentheses.
fn bool_text(expr: &BoolExpr<BoundPred>) -> String {
    match expr {
        BoolExpr::Pred(p) => pred_text(p),
        BoolExpr::And(cs) => {
            let parts: Vec<String> = cs.iter().map(bool_text).collect();
            format!("({})", parts.join(" AND "))
        }
        BoolExpr::Or(ds) => {
            let parts: Vec<String> = ds.iter().map(bool_text).collect();
            format!("({})", parts.join(" OR "))
        }
        BoolExpr::Not(inner) => format!("NOT {}", bool_text(inner)),
    }
}

/// Binding/planning errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Table not in the catalog.
    UnknownTable(String),
    /// Column not in the table schema.
    UnknownColumn {
        /// The offending column.
        column: String,
        /// The table searched.
        table: String,
    },
    /// Literal does not fit the column's type (e.g. `-1` against `uint`).
    LiteralOutOfRange {
        /// The column.
        column: String,
        /// The literal as written.
        literal: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            PlanError::UnknownColumn { column, table } => {
                write!(f, "unknown column '{column}' in table '{table}'")
            }
            PlanError::LiteralOutOfRange { column, literal } => {
                write!(f, "literal {literal} does not fit column '{column}'")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Bind one AST predicate: resolve the column, cast the literal and
/// estimate selectivity from the column statistics.
fn bind_pred(
    p: &AstPredicate,
    table: &Table,
    entry: &CatalogEntry,
    table_name: &str,
) -> Result<BoundPred, PlanError> {
    let column = table
        .column_index(&p.column)
        .ok_or_else(|| PlanError::UnknownColumn {
            column: p.column.clone(),
            table: table_name.to_string(),
        })?;
    let raw = match p.literal {
        Literal::Int(v) => {
            // Widen through i64/u64 then cast precisely.
            if let Ok(v) = i64::try_from(v) {
                Value::I64(v)
            } else if let Ok(v) = u64::try_from(v) {
                Value::U64(v)
            } else {
                return Err(PlanError::LiteralOutOfRange {
                    column: p.column.clone(),
                    literal: v.to_string(),
                });
            }
        }
        Literal::Float(v) => Value::F64(v),
    };
    let ty = table.schema()[column].data_type;
    let value = raw
        .cast_to(ty)
        .ok_or_else(|| PlanError::LiteralOutOfRange {
            column: p.column.clone(),
            literal: format!("{raw}"),
        })?;
    let selectivity = entry.stats[column].selectivity(p.op, value);
    Ok(BoundPred {
        column,
        column_name: p.column.clone(),
        op: p.op,
        value,
        selectivity,
    })
}

/// Flatten a conjunctive NNF tree into its leaves in source order. The
/// caller must have checked [`BoolExpr::is_conjunctive`].
fn flatten_conjuncts(expr: BoolExpr<BoundPred>, out: &mut Vec<BoundPred>) {
    match expr {
        BoolExpr::Pred(p) => out.push(p),
        BoolExpr::And(cs) => {
            for c in cs {
                flatten_conjuncts(c, out);
            }
        }
        other => unreachable!("caller checked is_conjunctive: {other:?}"),
    }
}

/// Bind an AST to the catalog and build the (un-optimized) logical plan:
/// table → (σ…σ | σ-tree) → (aggregate | project) → limit.
///
/// The WHERE tree is normalized to negation normal form *before* binding,
/// so `NOT` disappears into complemented comparison operators
/// ([`CmpOp::negate`]) and every bound leaf gets a selectivity estimate for
/// the operator that will actually run. Conjunctive clauses (the common
/// paper-query shape) lower to the classic σ chain so the existing
/// reorder/fuse rules and executor paths apply unchanged; anything with an
/// OR becomes a [`Lqp::FilterTree`] for the optimizer's DNF lowering.
pub fn plan(select: &Select, catalog: &Catalog) -> Result<Lqp, PlanError> {
    let entry = catalog
        .get(&select.table)
        .ok_or_else(|| PlanError::UnknownTable(select.table.clone()))?;
    let table = &entry.table;

    let mut node = Lqp::StoredTable {
        name: select.table.clone(),
        table: Arc::clone(table),
        entry: entry.clone(),
    };

    if let Some(w) = &select.where_clause {
        let nnf = w.clone().to_nnf(&|p| AstPredicate {
            op: p.op.negate(),
            ..p
        });
        let bound = nnf.try_map(&mut |p| bind_pred(&p, table, entry, &select.table))?;
        if bound.is_conjunctive() {
            let mut preds = Vec::with_capacity(bound.leaf_count());
            flatten_conjuncts(bound, &mut preds);
            for pred in preds {
                node = Lqp::Filter {
                    input: Box::new(node),
                    pred,
                };
            }
        } else {
            node = Lqp::FilterTree {
                input: Box::new(node),
                expr: bound,
            };
        }
    }

    node =
        match &select.projection {
            Projection::Aggregates(aggs) => {
                let mut bound = Vec::with_capacity(aggs.len());
                for a in aggs {
                    let column =
                        match &a.column {
                            Some(c) => Some(table.column_index(c).ok_or_else(|| {
                                PlanError::UnknownColumn {
                                    column: c.clone(),
                                    table: select.table.clone(),
                                }
                            })?),
                            None => None,
                        };
                    let label = match &a.column {
                        Some(c) => format!("{}({c})", a.func.name()),
                        None => format!("{}(*)", a.func.name()),
                    };
                    bound.push(BoundAgg {
                        func: a.func,
                        column,
                        label,
                    });
                }
                Lqp::Aggregate {
                    input: Box::new(node),
                    aggs: bound,
                }
            }
            Projection::Star => {
                let columns: Vec<usize> = (0..table.columns()).collect();
                let names = table.schema().iter().map(|c| c.name.clone()).collect();
                Lqp::Project {
                    input: Box::new(node),
                    columns,
                    names,
                }
            }
            Projection::Columns(cols) => {
                let mut columns = Vec::with_capacity(cols.len());
                for c in cols {
                    columns.push(table.column_index(c).ok_or_else(|| {
                        PlanError::UnknownColumn {
                            column: c.clone(),
                            table: select.table.clone(),
                        }
                    })?);
                }
                Lqp::Project {
                    input: Box::new(node),
                    columns,
                    names: cols.clone(),
                }
            }
        };

    if let Some(n) = select.limit {
        node = Lqp::Limit {
            input: Box::new(node),
            n,
        };
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use fts_storage::{Column, ColumnDef, DataType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            "tbl",
            Table::from_columns(
                vec![
                    ColumnDef::new("a", DataType::U32),
                    ColumnDef::new("b", DataType::U32),
                    ColumnDef::new("f", DataType::F32),
                ],
                vec![
                    Column::from_fn(100, |i| (i % 10) as u32),
                    Column::from_fn(100, |i| (i % 4) as u32),
                    Column::from_fn(100, |i| i as f32),
                ],
            )
            .unwrap(),
        );
        cat
    }

    #[test]
    fn plans_the_paper_query() {
        let cat = catalog();
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2").unwrap();
        let plan = plan(&ast, &cat).unwrap();
        let Lqp::Aggregate { input, aggs } = &plan else {
            panic!("expected Aggregate root")
        };
        assert_eq!(aggs[0].label, "count(*)");
        let Lqp::Filter {
            input: f2,
            pred: p2,
        } = input.as_ref()
        else {
            panic!()
        };
        assert_eq!(p2.column_name, "b");
        assert_eq!(p2.value, Value::U32(2));
        assert!((p2.selectivity - 0.25).abs() < 1e-9);
        let Lqp::Filter {
            input: f1,
            pred: p1,
        } = f2.as_ref()
        else {
            panic!()
        };
        assert_eq!(p1.column_name, "a");
        assert!((p1.selectivity - 0.1).abs() < 1e-9);
        assert!(matches!(f1.as_ref(), Lqp::StoredTable { .. }));
    }

    #[test]
    fn literal_casting() {
        let cat = catalog();
        // Integer literal against a float column becomes F32.
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE f < 50").unwrap();
        let p = plan(&ast, &cat).unwrap();
        let Lqp::Aggregate { input, .. } = &p else {
            panic!()
        };
        let Lqp::Filter { pred, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(pred.value, Value::F32(50.0));

        // Negative literal against unsigned column is rejected.
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE a = -1").unwrap();
        assert!(matches!(
            plan(&ast, &cat),
            Err(PlanError::LiteralOutOfRange { .. })
        ));

        // Float literal against integer column is rejected.
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE a = 1.5").unwrap();
        assert!(matches!(
            plan(&ast, &cat),
            Err(PlanError::LiteralOutOfRange { .. })
        ));
    }

    #[test]
    fn unknown_names() {
        let cat = catalog();
        let ast = parse("SELECT COUNT(*) FROM nope").unwrap();
        assert!(matches!(plan(&ast, &cat), Err(PlanError::UnknownTable(t)) if t == "nope"));
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE zz = 1").unwrap();
        assert!(matches!(
            plan(&ast, &cat),
            Err(PlanError::UnknownColumn { .. })
        ));
        let ast = parse("SELECT zz FROM tbl").unwrap();
        assert!(matches!(
            plan(&ast, &cat),
            Err(PlanError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn projections_and_limit() {
        let cat = catalog();
        let ast = parse("SELECT a, f FROM tbl WHERE b = 1 LIMIT 5").unwrap();
        let p = plan(&ast, &cat).unwrap();
        let Lqp::Limit { input, n: 5 } = &p else {
            panic!("{p:?}")
        };
        let Lqp::Project { columns, names, .. } = input.as_ref() else {
            panic!()
        };
        assert_eq!(columns, &vec![0, 2]);
        assert_eq!(names, &vec!["a".to_string(), "f".to_string()]);
    }

    #[test]
    fn explain_renders_tree() {
        let cat = catalog();
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2").unwrap();
        let text = plan(&ast, &cat).unwrap().explain();
        assert!(text.contains("Aggregate COUNT(*)"));
        assert!(text.contains("Filter σ(a = 5)"));
        assert!(text.contains("StoredTable tbl [100 rows]"), "{text}");
        // Per-column layouts render on the leaf.
        assert!(text.contains("a:plain"), "{text}");
    }

    #[test]
    fn disjunctive_where_binds_to_a_filter_tree() {
        let cat = catalog();
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE a = 5 OR b = 2").unwrap();
        let p = plan(&ast, &cat).unwrap();
        let Lqp::Aggregate { input, .. } = &p else {
            panic!()
        };
        let Lqp::FilterTree { expr, .. } = input.as_ref() else {
            panic!("{p:?}")
        };
        let BoolExpr::Or(ds) = expr else {
            panic!("{expr:?}")
        };
        assert_eq!(ds.len(), 2);
        let text = p.explain();
        assert!(text.contains("FilterTree σ((a = 5 OR b = 2))"), "{text}");
    }

    #[test]
    fn not_normalizes_to_complemented_operator_before_binding() {
        let cat = catalog();
        // NOT (a = 5 AND b < 2) → a <> 5 OR b >= 2 (De Morgan + negate).
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE NOT (a = 5 AND b < 2)").unwrap();
        let p = plan(&ast, &cat).unwrap();
        let Lqp::Aggregate { input, .. } = &p else {
            panic!()
        };
        let Lqp::FilterTree { expr, .. } = input.as_ref() else {
            panic!("{p:?}")
        };
        let leaves = expr.leaves();
        assert_eq!(leaves.len(), 2);
        assert_eq!(leaves[0].op, CmpOp::Ne);
        assert_eq!(leaves[1].op, CmpOp::Ge);
        // Selectivity was estimated for the *negated* operator: a has 10
        // distinct values, so a <> 5 keeps ≈ 0.9 of the rows.
        assert!(leaves[0].selectivity > 0.5, "{}", leaves[0].selectivity);

        // A purely conjunctive rewrite lowers to plain σ nodes: NOT a = 5
        // is just a <> 5.
        let ast = parse("SELECT COUNT(*) FROM tbl WHERE NOT a = 5").unwrap();
        let p = plan(&ast, &cat).unwrap();
        let Lqp::Aggregate { input, .. } = &p else {
            panic!()
        };
        let Lqp::Filter { pred, .. } = input.as_ref() else {
            panic!("{p:?}")
        };
        assert_eq!(pred.op, CmpOp::Ne);
    }
}
