//! Boolean predicate trees over scan predicates — AND/OR/NOT — and their
//! negation normal form.
//!
//! The paper's fused kernels evaluate *conjunctive* chains: one driver
//! predicate streaming all rows and follow-up stages gathering survivors.
//! This module generalizes the IR to arbitrary boolean trees without
//! touching the kernels. The binder normalizes every WHERE clause to
//! **NNF** ([`BoolExpr::to_nnf`]): De Morgan's laws push each `NOT` down to
//! a leaf, where it disappears into the complemented comparison operator
//! ([`fts_storage::CmpOp::negate`]). That is exact on totally ordered
//! domains; on float columns a NaN row fails both `p` and `¬p`, so the SQL
//! layer documents `NOT` over floats as using operator negation (NaN rows
//! never match either side).
//!
//! The query executor runs the NNF tree as **one driver plus a filter
//! tree**, following Kim, Ileri and Madden (*Optimizing Query Predicates
//! with Disjunctions for Column-Oriented Engines*, see PAPERS.md): the
//! root's leaf conjuncts drive one fused kernel scan per chunk, and every
//! other node filters that driver's survivors, each OR child seeing only
//! the positions no earlier child accepted. DESIGN.md §6 documents the IR
//! grammar and these semantics.

use fts_storage::Value;

/// A boolean expression tree over leaf predicates of type `P`.
///
/// `P` is generic so the same tree machinery serves the typed core
/// ([`crate::TypedPred`]) and the query layer's bound predicates.
/// `And`/`Or` are n-ary; an empty `And` is `true` and an empty `Or` is
/// `false` (the usual identity elements).
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr<P> {
    /// A leaf predicate.
    Pred(P),
    /// Conjunction of sub-expressions (empty ⇒ `true`).
    And(Vec<BoolExpr<P>>),
    /// Disjunction of sub-expressions (empty ⇒ `false`).
    Or(Vec<BoolExpr<P>>),
    /// Logical negation.
    Not(Box<BoolExpr<P>>),
}

impl<P> BoolExpr<P> {
    /// A leaf.
    pub fn pred(p: P) -> BoolExpr<P> {
        BoolExpr::Pred(p)
    }

    /// Conjunction of `children`.
    pub fn and(children: Vec<BoolExpr<P>>) -> BoolExpr<P> {
        BoolExpr::And(children)
    }

    /// Disjunction of `children`.
    pub fn or(children: Vec<BoolExpr<P>>) -> BoolExpr<P> {
        BoolExpr::Or(children)
    }

    /// Negation of `child`. An associated constructor like [`Self::and`]
    /// and [`Self::or`], not an `ops::Not` impl — it consumes a child,
    /// not `self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(child: BoolExpr<P>) -> BoolExpr<P> {
        BoolExpr::Not(Box::new(child))
    }

    /// Evaluate the tree with short-circuiting, calling `leaf` for each
    /// leaf predicate reached. The row-at-a-time reference semantics:
    /// `Not` is the logical complement of its child's result.
    pub fn eval(&self, leaf: &mut impl FnMut(&P) -> bool) -> bool {
        match self {
            BoolExpr::Pred(p) => leaf(p),
            BoolExpr::And(cs) => cs.iter().all(|c| c.eval(leaf)),
            BoolExpr::Or(cs) => cs.iter().any(|c| c.eval(leaf)),
            BoolExpr::Not(c) => !c.eval(leaf),
        }
    }

    /// All leaf predicates, in-order.
    pub fn leaves(&self) -> Vec<&P> {
        let mut out = Vec::new();
        self.visit_leaves(&mut |p| out.push(p));
        out
    }

    fn visit_leaves<'a>(&'a self, f: &mut impl FnMut(&'a P)) {
        match self {
            BoolExpr::Pred(p) => f(p),
            BoolExpr::And(cs) | BoolExpr::Or(cs) => cs.iter().for_each(|c| c.visit_leaves(f)),
            BoolExpr::Not(c) => c.visit_leaves(f),
        }
    }

    /// Number of leaf predicates.
    pub fn leaf_count(&self) -> usize {
        match self {
            BoolExpr::Pred(_) => 1,
            BoolExpr::And(cs) | BoolExpr::Or(cs) => cs.iter().map(|c| c.leaf_count()).sum(),
            BoolExpr::Not(c) => c.leaf_count(),
        }
    }

    /// Map every leaf through `f`, preserving the tree shape.
    pub fn map<Q>(self, f: &mut impl FnMut(P) -> Q) -> BoolExpr<Q> {
        match self {
            BoolExpr::Pred(p) => BoolExpr::Pred(f(p)),
            BoolExpr::And(cs) => BoolExpr::And(cs.into_iter().map(|c| c.map(f)).collect()),
            BoolExpr::Or(cs) => BoolExpr::Or(cs.into_iter().map(|c| c.map(f)).collect()),
            BoolExpr::Not(c) => BoolExpr::Not(Box::new(c.map(f))),
        }
    }

    /// Fallible [`Self::map`]: the first `Err` aborts the walk.
    pub fn try_map<Q, E>(self, f: &mut impl FnMut(P) -> Result<Q, E>) -> Result<BoolExpr<Q>, E> {
        Ok(match self {
            BoolExpr::Pred(p) => BoolExpr::Pred(f(p)?),
            BoolExpr::And(cs) => BoolExpr::And(
                cs.into_iter()
                    .map(|c| c.try_map(f))
                    .collect::<Result<_, _>>()?,
            ),
            BoolExpr::Or(cs) => BoolExpr::Or(
                cs.into_iter()
                    .map(|c| c.try_map(f))
                    .collect::<Result<_, _>>()?,
            ),
            BoolExpr::Not(c) => BoolExpr::Not(Box::new(c.try_map(f)?)),
        })
    }

    /// Whether the tree is a pure conjunction (no `Or`/`Not` anywhere) —
    /// the linear-chain special case the pre-tree planner handled.
    pub fn is_conjunctive(&self) -> bool {
        match self {
            BoolExpr::Pred(_) => true,
            BoolExpr::And(cs) => cs.iter().all(|c| c.is_conjunctive()),
            BoolExpr::Or(_) | BoolExpr::Not(_) => false,
        }
    }

    /// Negation-normal form: push every `Not` to the leaves with De
    /// Morgan's laws and eliminate it there via `negate` (for comparison
    /// predicates, [`fts_storage::CmpOp::negate`]). Nested `And(And(..))`
    /// / `Or(Or(..))` are flattened along the way, so the result contains
    /// no `Not` nodes and no same-kind nesting.
    pub fn to_nnf(self, negate: &impl Fn(P) -> P) -> BoolExpr<P> {
        self.nnf_inner(false, negate)
    }

    fn nnf_inner(self, negated: bool, negate: &impl Fn(P) -> P) -> BoolExpr<P> {
        match (self, negated) {
            (BoolExpr::Pred(p), false) => BoolExpr::Pred(p),
            (BoolExpr::Pred(p), true) => BoolExpr::Pred(negate(p)),
            (BoolExpr::Not(c), n) => c.nnf_inner(!n, negate),
            (BoolExpr::And(cs), n) => {
                // ¬(a ∧ b) = ¬a ∨ ¬b.
                let kids = cs.into_iter().map(|c| c.nnf_inner(n, negate));
                if n {
                    BoolExpr::Or(flatten_or(kids))
                } else {
                    BoolExpr::And(flatten_and(kids))
                }
            }
            (BoolExpr::Or(cs), n) => {
                let kids = cs.into_iter().map(|c| c.nnf_inner(n, negate));
                if n {
                    BoolExpr::And(flatten_and(kids))
                } else {
                    BoolExpr::Or(flatten_or(kids))
                }
            }
        }
    }
}

fn flatten_and<P>(kids: impl Iterator<Item = BoolExpr<P>>) -> Vec<BoolExpr<P>> {
    let mut out = Vec::new();
    for k in kids {
        match k {
            BoolExpr::And(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    out
}

fn flatten_or<P>(kids: impl Iterator<Item = BoolExpr<P>>) -> Vec<BoolExpr<P>> {
    let mut out = Vec::new();
    for k in kids {
        match k {
            BoolExpr::Or(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
    out
}

/// Stable 64-bit key bits for a literal [`Value`] — float literals key by
/// IEEE bit pattern, integers by their zero/sign-extended bits. Used to
/// build hashable chain identities (calibrator keys) from predicates whose literal type is not itself `Hash`.
pub fn value_key_bits(v: Value) -> u64 {
    match v {
        Value::I8(x) => x as u8 as u64,
        Value::I16(x) => x as u16 as u64,
        Value::I32(x) => x as u32 as u64,
        Value::I64(x) => x as u64,
        Value::U8(x) => x as u64,
        Value::U16(x) => x as u64,
        Value::U32(x) => x as u64,
        Value::U64(x) => x,
        Value::F32(x) => x.to_bits() as u64,
        Value::F64(x) => x.to_bits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(n: u32) -> BoolExpr<u32> {
        BoolExpr::pred(n)
    }

    #[test]
    fn eval_short_circuits_the_tree() {
        // (1 ∧ ¬2) ∨ 3 with leaves true iff even.
        let e = BoolExpr::or(vec![
            BoolExpr::and(vec![leaf(2), BoolExpr::not(leaf(3))]),
            leaf(4),
        ]);
        assert!(e.eval(&mut |&p| p % 2 == 0));
        assert!(!e.eval(&mut |&p| p % 2 == 1));
        assert_eq!(e.leaf_count(), 3);
        assert_eq!(e.leaves(), vec![&2, &3, &4]);
        assert!(!e.is_conjunctive());
        assert!(BoolExpr::and(vec![leaf(1), leaf(2)]).is_conjunctive());
    }

    #[test]
    fn nnf_pushes_not_to_leaves() {
        // ¬((1 ∨ 2) ∧ ¬3) = (¬1 ∧ ¬2) ∨ 3 — leaves negated via +100.
        let e = BoolExpr::not(BoolExpr::and(vec![
            BoolExpr::or(vec![leaf(1), leaf(2)]),
            BoolExpr::not(leaf(3)),
        ]));
        let nnf = e.to_nnf(&|p| p + 100);
        assert_eq!(
            nnf,
            BoolExpr::Or(vec![BoolExpr::And(vec![leaf(101), leaf(102)]), leaf(3),])
        );
    }

    #[test]
    fn nnf_flattens_nested_same_kind() {
        let e = BoolExpr::and(vec![BoolExpr::and(vec![leaf(1), leaf(2)]), leaf(3)]);
        assert_eq!(
            e.to_nnf(&|p| p),
            BoolExpr::And(vec![leaf(1), leaf(2), leaf(3)])
        );
    }

    #[test]
    fn value_key_bits_distinguish_and_stabilize() {
        assert_eq!(value_key_bits(Value::U32(5)), 5);
        assert_eq!(value_key_bits(Value::I32(-1)), u32::MAX as u64);
        assert_eq!(value_key_bits(Value::F64(1.5)), 1.5f64.to_bits());
        assert_ne!(
            value_key_bits(Value::F32(1.0)),
            value_key_bits(Value::F32(-1.0))
        );
    }
}
