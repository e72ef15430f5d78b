//! Boolean predicate trees over scan predicates — AND/OR/NOT — and their
//! normalization into the disjunction-of-fused-chains form the engine
//! executes.
//!
//! The paper's fused kernels evaluate *conjunctive* chains: one driver
//! predicate streaming all rows and follow-up stages gathering survivors.
//! This module generalizes the IR to arbitrary boolean trees without
//! touching the kernels, following the recipe of Kim, Ileri and Madden
//! (*Optimizing Query Predicates with Disjunctions for Column-Oriented
//! Engines*, see PAPERS.md):
//!
//! 1. **NNF** — push `NOT` down to the leaves with De Morgan's laws and
//!    eliminate it there by negating the comparison operator
//!    ([`fts_storage::CmpOp::negate`]). Exact on totally ordered domains;
//!    on float columns a NaN row fails both `p` and `¬p`, so the SQL layer
//!    documents `NOT` over floats as using operator negation (NaN rows
//!    never match either side).
//! 2. **DNF** — distribute AND over OR into a disjunction of conjunctive
//!    chains, each of which the existing fused kernels (and the JIT) can
//!    run unchanged. Expansion is capped ([`MAX_DNF_DISJUNCTS`]) because
//!    DNF can be exponential; past the cap the caller evaluates the tree
//!    row at a time instead.
//! 3. **Common-prefix factoring** — predicates present in *every* disjunct
//!    are hoisted into a shared prefix chain that runs once:
//!    `(p ∧ A) ∨ (p ∧ B) = p ∧ (A ∨ B)`. The factored prefix both saves
//!    work and gives every disjunct the same (smaller) candidate set.
//! 4. **Selectivity-driven ordering** — within a conjunct, most-selective
//!    predicate first (the usual chain rule); across disjuncts,
//!    *least*-selective first so the running union saturates early and the
//!    remaining disjuncts can be skipped once every row is covered.
//!
//! The query executor runs the factored form as mask combination over
//! position lists: each conjunct is a fused sub-chain producing a
//! [`PosList`], the disjunct lists are merged with [`PosList::union`], and
//! a factored prefix is re-applied with [`PosList::intersect`]. DESIGN.md
//! §6 documents the IR grammar and these semantics.
//!
//! [`PosList`]: fts_storage::PosList
//! [`PosList::union`]: fts_storage::PosList::union
//! [`PosList::intersect`]: fts_storage::PosList::intersect

use std::collections::HashSet;
use std::hash::Hash;

use fts_storage::Value;

/// Cap on the number of disjuncts produced by [`BoolExpr::to_dnf`]. DNF
/// expansion of `(a1 ∨ b1) ∧ … ∧ (an ∨ bn)` is `2^n`; past this bound the
/// planner keeps the tree form and evaluates it row-at-a-time instead.
pub const MAX_DNF_DISJUNCTS: usize = 32;

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

/// Why a tree could not be normalized to DNF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnfError {
    /// Expansion would exceed the disjunct cap passed to
    /// [`BoolExpr::to_dnf`].
    TooManyDisjuncts,
    /// A `Not` node survived to DNF conversion — call
    /// [`BoolExpr::to_nnf`] first.
    NotInNnf,
}

impl std::fmt::Display for DnfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnfError::TooManyDisjuncts => write!(f, "DNF expansion exceeds the disjunct cap"),
            DnfError::NotInNnf => write!(f, "tree contains NOT; normalize to NNF first"),
        }
    }
}

impl std::error::Error for DnfError {}

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

    /// Distribute the (NNF) tree into disjunctive normal form: a list of
    /// conjunctive chains whose union is the tree's match set. Fails with
    /// [`DnfError::TooManyDisjuncts`] once more than `max_disjuncts`
    /// chains would be produced, and with [`DnfError::NotInNnf`] if a
    /// `Not` node is encountered.
    pub fn to_dnf(&self, max_disjuncts: usize) -> Result<Dnf<P>, DnfError>
    where
        P: Clone,
    {
        Ok(Dnf {
            disjuncts: self.dnf_inner(max_disjuncts)?,
        })
    }

    fn dnf_inner(&self, cap: usize) -> Result<Vec<Vec<P>>, DnfError>
    where
        P: Clone,
    {
        match self {
            BoolExpr::Pred(p) => Ok(vec![vec![p.clone()]]),
            BoolExpr::Not(_) => Err(DnfError::NotInNnf),
            BoolExpr::Or(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    out.extend(c.dnf_inner(cap)?);
                    if out.len() > cap {
                        return Err(DnfError::TooManyDisjuncts);
                    }
                }
                Ok(out)
            }
            BoolExpr::And(cs) => {
                // Cross product of the children's disjunct lists.
                let mut acc: Vec<Vec<P>> = vec![vec![]];
                for c in cs {
                    let child = c.dnf_inner(cap)?;
                    if acc.len().saturating_mul(child.len()) > cap {
                        return Err(DnfError::TooManyDisjuncts);
                    }
                    let mut next = Vec::with_capacity(acc.len() * child.len());
                    for a in &acc {
                        for d in &child {
                            let mut merged = a.clone();
                            merged.extend(d.iter().cloned());
                            next.push(merged);
                        }
                    }
                    acc = next;
                }
                Ok(acc)
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

/// A tree in disjunctive normal form: the union of conjunctive chains.
/// An empty conjunct is `true`; an empty disjunct list is `false`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dnf<P> {
    /// The conjunctive chains whose union is the match set.
    pub disjuncts: Vec<Vec<P>>,
}

impl<P> Dnf<P> {
    /// Whether the disjunction is the constant `false` (no disjuncts).
    pub fn is_false(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Estimated selectivity of the whole disjunction under the
    /// independence assumption: `1 - Π(1 - sel(conjunct))`, where each
    /// conjunct's selectivity is the product of its predicates'. Clamped
    /// to `[0, 1]`; overlapping disjuncts make this an upper bound.
    pub fn selectivity(&self, sel: &impl Fn(&P) -> f64) -> f64 {
        let mut none_match = 1.0f64;
        for d in &self.disjuncts {
            none_match *= 1.0 - conjunct_selectivity(d, sel);
        }
        (1.0 - none_match).clamp(0.0, 1.0)
    }

    /// Selectivity-driven ordering (the Kim et al. cost model with
    /// selectivity as the per-chain cost proxy): within each conjunct the
    /// most selective predicate runs first (it becomes the fused chain's
    /// driver and shrinks every later gather stage); across disjuncts the
    /// *least* selective chain runs first so the running
    /// [`fts_storage::PosList::union`] saturates as early as possible and
    /// remaining disjuncts can be skipped once every candidate row is
    /// covered.
    /// Sorting is stable, so equal-selectivity entries keep plan order.
    pub fn order_by_selectivity(&mut self, sel: &impl Fn(&P) -> f64) {
        for d in &mut self.disjuncts {
            d.sort_by(|a, b| sel(a).total_cmp(&sel(b)));
        }
        self.disjuncts
            .sort_by(|a, b| conjunct_selectivity(b, sel).total_cmp(&conjunct_selectivity(a, sel)));
    }

    /// Hoist predicates present in **every** disjunct into a shared prefix
    /// chain: `(p ∧ A) ∨ (p ∧ B) = p ∧ (A ∨ B)`. Predicates are matched
    /// by `key` (e.g. `(column, op, literal)` — the same identity a JIT
    /// sub-chain signature uses), and one occurrence is removed from each
    /// disjunct. If factoring empties a disjunct the residual disjunction
    /// is a tautology, so the result carries no disjuncts at all
    /// (`p ∨ (p ∧ B) = p`). A single-conjunct DNF becomes pure prefix.
    ///
    /// # Panics
    /// On a constant-`false` DNF (no disjuncts): the planner never builds
    /// one — every WHERE tree has at least one leaf.
    pub fn factor<K: Eq + Hash>(self, key: &impl Fn(&P) -> K) -> FactoredDnf<P> {
        assert!(!self.is_false(), "cannot factor a constant-false DNF");
        if self.disjuncts.len() == 1 {
            return FactoredDnf {
                prefix: self.disjuncts.into_iter().next().unwrap(),
                disjuncts: Vec::new(),
            };
        }
        let mut shared: HashSet<K> = self.disjuncts[0].iter().map(key).collect();
        for d in &self.disjuncts[1..] {
            let here: HashSet<K> = d.iter().map(key).collect();
            shared.retain(|k| here.contains(k));
        }
        if shared.is_empty() {
            return FactoredDnf {
                prefix: Vec::new(),
                disjuncts: self.disjuncts,
            };
        }
        let mut prefix = Vec::new();
        let mut rest = Vec::with_capacity(self.disjuncts.len());
        let mut tautology = false;
        for (i, d) in self.disjuncts.into_iter().enumerate() {
            let mut remaining = Vec::with_capacity(d.len());
            let mut taken: HashSet<K> = HashSet::new();
            for p in d {
                let k = key(&p);
                if shared.contains(&k) && !taken.contains(&k) {
                    // First disjunct donates the hoisted instances.
                    taken.insert(k);
                    if i == 0 {
                        prefix.push(p);
                    }
                } else {
                    remaining.push(p);
                }
            }
            tautology |= remaining.is_empty();
            rest.push(remaining);
        }
        FactoredDnf {
            prefix,
            disjuncts: if tautology { Vec::new() } else { rest },
        }
    }
}

fn conjunct_selectivity<P>(conjunct: &[P], sel: &impl Fn(&P) -> f64) -> f64 {
    conjunct.iter().map(sel).product::<f64>().clamp(0.0, 1.0)
}

/// A factored DNF: `prefix ∧ (d₁ ∨ d₂ ∨ …)`, where an empty disjunct list
/// means `true` (the prefix alone decides). This is the execution plan of
/// a boolean scan: the prefix chain runs once, each disjunct chain runs
/// against the full chunk, and the results combine as
/// `prefix ∩ (d₁ ∪ d₂ ∪ …)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoredDnf<P> {
    /// Predicates common to every disjunct, hoisted to run once.
    pub prefix: Vec<P>,
    /// The per-disjunct residual chains (empty ⇒ `true`).
    pub disjuncts: Vec<Vec<P>>,
}

impl<P> FactoredDnf<P> {
    /// Row-at-a-time evaluation of the factored form (for differential
    /// tests against the original tree).
    pub fn matches(&self, leaf: &mut impl FnMut(&P) -> bool) -> bool {
        self.prefix.iter().all(&mut *leaf)
            && (self.disjuncts.is_empty()
                || self.disjuncts.iter().any(|d| d.iter().all(&mut *leaf)))
    }

    /// Estimated selectivity: prefix product × disjunction union estimate.
    pub fn selectivity(&self, sel: &impl Fn(&P) -> f64) -> f64 {
        let disj = if self.disjuncts.is_empty() {
            1.0
        } else {
            let mut none_match = 1.0f64;
            for d in &self.disjuncts {
                none_match *= 1.0 - conjunct_selectivity(d, sel);
            }
            (1.0 - none_match).clamp(0.0, 1.0)
        };
        (conjunct_selectivity(&self.prefix, sel) * disj).clamp(0.0, 1.0)
    }
}

/// Stable 64-bit key bits for a literal [`Value`] — float literals key by
/// IEEE bit pattern, integers by their zero/sign-extended bits. Used to
/// build hashable sub-chain identities (factoring keys, calibrator keys)
/// from predicates whose literal type is not itself `Hash`.
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
    fn dnf_distributes_and_over_or() {
        // (1 ∨ 2) ∧ 3 = (1 ∧ 3) ∨ (2 ∧ 3).
        let e = BoolExpr::and(vec![BoolExpr::or(vec![leaf(1), leaf(2)]), leaf(3)]);
        let dnf = e.to_dnf(16).unwrap();
        assert_eq!(dnf.disjuncts, vec![vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn dnf_cap_and_nnf_requirement() {
        // (1∨2) ∧ (3∨4) ∧ (5∨6) has 8 disjuncts — a cap of 4 rejects it.
        let e = BoolExpr::and(vec![
            BoolExpr::or(vec![leaf(1), leaf(2)]),
            BoolExpr::or(vec![leaf(3), leaf(4)]),
            BoolExpr::or(vec![leaf(5), leaf(6)]),
        ]);
        assert_eq!(e.to_dnf(4), Err(DnfError::TooManyDisjuncts));
        assert_eq!(e.to_dnf(8).unwrap().disjuncts.len(), 8);
        assert_eq!(BoolExpr::not(leaf(1)).to_dnf(4), Err(DnfError::NotInNnf));
    }

    #[test]
    fn factor_hoists_common_prefix() {
        // (1∧2) ∨ (1∧3): 1 is shared.
        let dnf = Dnf {
            disjuncts: vec![vec![1, 2], vec![1, 3]],
        };
        let f = dnf.factor(&|&p| p);
        assert_eq!(f.prefix, vec![1]);
        assert_eq!(f.disjuncts, vec![vec![2], vec![3]]);
    }

    #[test]
    fn factor_detects_tautology_and_single_conjunct() {
        // 1 ∨ (1∧2) = 1.
        let dnf = Dnf {
            disjuncts: vec![vec![1], vec![1, 2]],
        };
        let f = dnf.factor(&|&p| p);
        assert_eq!(f.prefix, vec![1]);
        assert!(f.disjuncts.is_empty());

        let single = Dnf {
            disjuncts: vec![vec![4, 5]],
        };
        let f = single.factor(&|&p| p);
        assert_eq!(f.prefix, vec![4, 5]);
        assert!(f.disjuncts.is_empty());
    }

    #[test]
    fn factored_matches_agrees_with_tree() {
        let e = BoolExpr::or(vec![
            BoolExpr::and(vec![leaf(1), leaf(2)]),
            BoolExpr::and(vec![leaf(1), leaf(3)]),
        ]);
        let f = e.to_dnf(16).unwrap().factor(&|&p| p);
        for bits in 0u32..16 {
            let mut truth = |p: &u32| bits & (1 << (p - 1)) != 0;
            assert_eq!(e.eval(&mut truth), f.matches(&mut truth), "bits={bits:04b}");
        }
    }

    #[test]
    fn ordering_sorts_disjuncts_and_conjuncts() {
        let mut dnf = Dnf {
            disjuncts: vec![vec![1, 2], vec![3]],
        };
        // sel: 1→0.9, 2→0.1, 3→0.5; conjunct sels: 0.09 and 0.5.
        let sel = |p: &u32| match p {
            1 => 0.9,
            2 => 0.1,
            _ => 0.5,
        };
        dnf.order_by_selectivity(&sel);
        // Least selective disjunct first; most selective pred first inside.
        assert_eq!(dnf.disjuncts, vec![vec![3], vec![2, 1]]);
        assert!((dnf.selectivity(&sel) - (1.0 - 0.5 * 0.91)).abs() < 1e-12);
    }

    #[test]
    fn selectivity_estimates_clamp() {
        let dnf = Dnf {
            disjuncts: vec![vec![1], vec![2], vec![3]],
        };
        assert!((dnf.selectivity(&|_| 1.0) - 1.0).abs() < f64::EPSILON);
        assert!((dnf.selectivity(&|_| 0.0)).abs() < f64::EPSILON);
        let f = FactoredDnf {
            prefix: vec![1],
            disjuncts: vec![],
        };
        assert!((f.selectivity(&|_| 0.25) - 0.25).abs() < f64::EPSILON);
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
