//! Abstract syntax tree for the supported SQL subset:
//!
//! ```sql
//! [EXPLAIN [ANALYZE]] SELECT COUNT(*) | * | col [, col …]
//! FROM table
//! [WHERE expr]
//! [LIMIT n]
//! ```
//!
//! where `expr` is a boolean tree over `col OP literal` /
//! `col BETWEEN lo AND hi` atoms combined with `AND`, `OR`, `NOT` and
//! parentheses (precedence `NOT` > `AND` > `OR`). This is the shape of the
//! paper's motivating query (§II) generalized to the boolean trees of
//! DESIGN.md §6, plus enough projection support for the examples.

use fts_core::BoolExpr;
use fts_storage::CmpOp;

/// A literal in a predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Literal {
    /// Integer literal (widened; cast to the column type during planning).
    Int(i128),
    /// Float literal.
    Float(f64),
}

/// One `column OP literal` predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct AstPredicate {
    /// Column name.
    pub column: String,
    /// Comparison operator (already flipped if the literal was on the left).
    pub op: CmpOp,
    /// Literal operand.
    pub literal: Literal,
}

/// The WHERE clause as a boolean tree over leaf predicates. This is
/// [`BoolExpr`] from `fts-core` instantiated at the AST level, so the
/// binder can normalize (NNF via [`CmpOp::negate`]) and bind leaves with
/// the tree combinators instead of bespoke recursion.
pub type WhereExpr = BoolExpr<AstPredicate>;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate expression: function + argument column (`None` = `*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Argument column; only `COUNT(*)` has none.
    pub column: Option<String>,
}

/// What the query projects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// One or more aggregate expressions (no GROUP BY — whole-table).
    Aggregates(Vec<AggExpr>),
    /// `*`.
    Star,
    /// Explicit column list.
    Columns(Vec<String>),
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projection clause.
    pub projection: Projection,
    /// Table name.
    pub table: String,
    /// The WHERE clause as a boolean predicate tree (`None` = no WHERE).
    pub where_clause: Option<WhereExpr>,
    /// Optional LIMIT.
    pub limit: Option<u64>,
    /// Whether the statement was prefixed with EXPLAIN.
    pub explain: bool,
    /// Whether the statement was prefixed with EXPLAIN ANALYZE (execute
    /// and report scan telemetry alongside the plan).
    pub analyze: bool,
}

impl Select {
    /// All leaf predicates of the WHERE clause in source order (empty when
    /// there is no WHERE). An inspection helper for tests and tooling —
    /// the binder works on the [`WhereExpr`] tree itself, because for
    /// non-conjunctive clauses the flat list loses the tree structure.
    pub fn leaf_predicates(&self) -> Vec<&AstPredicate> {
        self.where_clause
            .as_ref()
            .map(|w| w.leaves())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_shapes() {
        let p = AstPredicate {
            column: "a".into(),
            op: CmpOp::Eq,
            literal: Literal::Int(5),
        };
        let s = Select {
            projection: Projection::Aggregates(vec![AggExpr {
                func: AggFunc::Count,
                column: None,
            }]),
            table: "tbl".into(),
            where_clause: Some(WhereExpr::pred(p.clone())),
            limit: None,
            explain: false,
            analyze: false,
        };
        assert_eq!(s.leaf_predicates(), vec![&p]);
        assert_ne!(s.projection, Projection::Star);
    }

    #[test]
    fn where_trees_compose() {
        let leaf = |c: &str| {
            WhereExpr::pred(AstPredicate {
                column: c.into(),
                op: CmpOp::Eq,
                literal: Literal::Int(1),
            })
        };
        let e = WhereExpr::or(vec![
            WhereExpr::and(vec![leaf("a"), leaf("b")]),
            WhereExpr::not(leaf("c")),
        ]);
        assert_eq!(e.leaves().len(), 3);
        assert!(!e.is_conjunctive());
    }
}
