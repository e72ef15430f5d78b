//! Statements: a small typed form that renders to SQL and that the
//! reference oracle evaluates, plus the three workloads' statement
//! sources (two fixed warm pools and the ad-hoc stream).

use std::fmt::Write;

use crate::data::{DISCOUNT, DOMAINS, PARTKEY, PRICE, QUANTITY, SHIPDATE};
use crate::rng::{mix, Rng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Eq,
    Lt,
    Le,
    Ge,
}

impl Op {
    fn sql(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Ge => ">=",
        }
    }
}

#[derive(Debug, Clone)]
pub enum Filter {
    Cmp { col: usize, op: Op, lit: i64 },
    Between { col: usize, lo: i64, hi: i64 },
    And(Vec<Filter>),
    Or(Vec<Filter>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    Sum,
    Avg,
    Min,
    Max,
}

#[derive(Debug, Clone)]
pub enum Output {
    Count,
    Aggs(Vec<(AggFn, usize)>),
    Project { cols: Vec<usize>, limit: usize },
}

#[derive(Debug, Clone)]
pub struct Query {
    pub output: Output,
    pub filter: Filter,
}

impl Query {
    pub fn sql(&self, table: &str) -> String {
        let mut s = String::from("SELECT ");
        match &self.output {
            Output::Count => s.push_str("COUNT(*)"),
            Output::Aggs(aggs) => {
                let parts: Vec<String> = aggs
                    .iter()
                    .map(|&(f, c)| {
                        let f = match f {
                            AggFn::Sum => "SUM",
                            AggFn::Avg => "AVG",
                            AggFn::Min => "MIN",
                            AggFn::Max => "MAX",
                        };
                        format!("{f}({})", DOMAINS[c].name)
                    })
                    .collect();
                s.push_str(&parts.join(", "));
            }
            Output::Project { cols, .. } => {
                let names: Vec<&str> = cols.iter().map(|&c| DOMAINS[c].name).collect();
                s.push_str(&names.join(", "));
            }
        }
        let _ = write!(s, " FROM {table} WHERE ");
        render_filter(&self.filter, &mut s, false);
        if let Output::Project { limit, .. } = &self.output {
            let _ = write!(s, " LIMIT {limit}");
        }
        s
    }
}

fn render_filter(f: &Filter, s: &mut String, nested: bool) {
    match f {
        Filter::Cmp { col, op, lit } => {
            let _ = write!(s, "{} {} {lit}", DOMAINS[*col].name, op.sql());
        }
        Filter::Between { col, lo, hi } => {
            let _ = write!(s, "{} BETWEEN {lo} AND {hi}", DOMAINS[*col].name);
        }
        Filter::And(cs) => {
            for (i, c) in cs.iter().enumerate() {
                if i > 0 {
                    s.push_str(" AND ");
                }
                render_filter(c, s, true);
            }
        }
        Filter::Or(ds) => {
            if nested {
                s.push('(');
            }
            for (i, d) in ds.iter().enumerate() {
                if i > 0 {
                    s.push_str(" OR ");
                }
                let paren = matches!(d, Filter::And(_));
                if paren {
                    s.push('(');
                }
                render_filter(d, s, false);
                if paren {
                    s.push(')');
                }
            }
            if nested {
                s.push(')');
            }
        }
    }
}

/// Literal helpers that hit a target selectivity on a uniform column
/// while placing the literal at random, so every seed does the same
/// amount of work on different values.
struct Lits<'r>(&'r mut Rng);

impl Lits<'_> {
    /// `col < L` keeping about `sel` of the rows.
    fn lt(&mut self, col: usize, sel: f64) -> Filter {
        let d = DOMAINS[col];
        let k = ((sel * d.n as f64).round() as i64).max(1);
        Filter::Cmp {
            col,
            op: Op::Lt,
            lit: d.value(k),
        }
    }

    /// `col >= L` keeping about `sel` of the rows.
    fn ge(&mut self, col: usize, sel: f64) -> Filter {
        let d = DOMAINS[col];
        let k = ((sel * d.n as f64).round() as i64).max(1);
        Filter::Cmp {
            col,
            op: Op::Ge,
            lit: d.value(d.n - k),
        }
    }

    /// `col BETWEEN a AND b` keeping about `sel`, placed at random.
    fn between(&mut self, col: usize, sel: f64) -> Filter {
        let d = DOMAINS[col];
        let w = ((sel * d.n as f64).round() as i64).clamp(1, d.n);
        let a = self.0.below((d.n - w + 1) as u64) as i64;
        Filter::Between {
            col,
            lo: d.value(a),
            hi: d.value(a + w - 1),
        }
    }

    /// `col = v` for a random domain value.
    fn eq(&mut self, col: usize) -> Filter {
        let d = DOMAINS[col];
        Filter::Cmp {
            col,
            op: Op::Eq,
            lit: d.value(self.0.below(d.n as u64) as i64),
        }
    }

    /// `col = a OR col = b` for two distinct random domain values.
    fn either(&mut self, col: usize) -> Filter {
        let d = DOMAINS[col];
        let a = self.0.below(d.n as u64) as i64;
        let b = (a + 1 + self.0.below(d.n as u64 - 1) as i64) % d.n;
        let eq = |k| Filter::Cmp {
            col,
            op: Op::Eq,
            lit: d.value(k),
        };
        Filter::Or(vec![eq(a), eq(b)])
    }

    /// TPC-H Q6's chain for a random year: shipdate in [D, D + 365),
    /// discount BETWEEN d - 1 AND d + 1, quantity < 24.
    fn q6(&mut self) -> Filter {
        let year = self.0.below(6) as i64;
        let d0 = DOMAINS[SHIPDATE].lo + year * 365;
        let disc = 2 + self.0.below(7) as i64;
        Filter::And(vec![
            Filter::Cmp {
                col: SHIPDATE,
                op: Op::Ge,
                lit: d0,
            },
            Filter::Cmp {
                col: SHIPDATE,
                op: Op::Lt,
                lit: d0 + 365,
            },
            Filter::Between {
                col: DISCOUNT,
                lo: disc - 1,
                hi: disc + 1,
            },
            Filter::Cmp {
                col: QUANTITY,
                op: Op::Lt,
                lit: 24,
            },
        ])
    }
}

fn and(fs: Vec<Filter>) -> Filter {
    Filter::And(fs)
}

fn or(fs: Vec<Filter>) -> Filter {
    Filter::Or(fs)
}

fn count(filter: Filter) -> Query {
    Query {
        output: Output::Count,
        filter,
    }
}

fn aggs(list: &[(AggFn, usize)], filter: Filter) -> Query {
    Query {
        output: Output::Aggs(list.to_vec()),
        filter,
    }
}

fn project(cols: &[usize], limit: usize, filter: Filter) -> Query {
    Query {
        output: Output::Project {
            cols: cols.to_vec(),
            limit,
        },
        filter,
    }
}

/// The `scan_count` shapes: multi-predicate `COUNT(*)` over `u32` and
/// pure-`i64` chains, 1–5 predicates, chain selectivity 1e-4 .. 0.5.
pub fn scan_count_queries(seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(mix(seed, 101));
    let mut l = Lits(&mut rng);
    let (s, d, q, p, x) = (SHIPDATE, DISCOUNT, QUANTITY, PARTKEY, PRICE);
    // Fig. 7: the same chain grown from one to five predicates.
    let mut filters = vec![
        l.lt(s, 0.5),
        and(vec![l.lt(s, 0.5), l.lt(q, 0.5)]),
        and(vec![l.lt(s, 0.5), l.lt(q, 0.5), l.lt(p, 0.5)]),
        and(vec![l.lt(s, 0.5), l.lt(q, 0.5), l.lt(p, 0.5), l.lt(d, 0.5)]),
        and(vec![
            l.lt(s, 0.3),
            l.lt(q, 0.3),
            l.ge(s, 0.9),
            l.lt(p, 0.3),
            l.ge(q, 0.8),
        ]),
    ];
    // Fig. 5: a two-predicate chain over selectivity.
    for sel in [0.5f64, 0.1, 0.01, 1e-3, 1e-4] {
        let each = sel.sqrt();
        filters.push(and(vec![l.between(s, each), l.lt(q, each)]));
    }
    filters.extend([
        // TPC-H Q6's predicate chain, for three years.
        l.q6(),
        l.q6(),
        l.q6(),
        // OR / BETWEEN trees.
        and(vec![l.either(d), l.lt(q, 0.2)]),
        or(vec![l.lt(s, 0.05), l.lt(p, 0.05)]),
        or(vec![
            and(vec![l.between(s, 0.1), l.eq(q)]),
            and(vec![l.between(q, 0.1), l.lt(p, 0.3)]),
        ]),
        l.between(q, 0.3),
        // Equality, single-column and very selective chains.
        and(vec![l.eq(d), l.eq(q)]),
        l.lt(p, 0.01),
        and(vec![l.between(s, 0.01), l.between(q, 0.1)]),
        and(vec![l.ge(s, 0.1), l.lt(q, 0.2), l.eq(d)]),
        // Pure i64 chains (typed scan on the plain copy, dictionary ids on
        // the encoded one).
        l.lt(x, 0.1),
        l.between(x, 1e-3),
        and(vec![l.ge(x, 0.5), l.lt(x, 0.6)]),
    ]);
    filters.into_iter().map(count).collect()
}

/// The `dashboard` shapes: aggregates over the same kinds of chains, the
/// Q6 revenue sum, mixed `u32`/`i64` chains and selective projections.
/// Every shape appears twice with different literals: the two clients
/// walk the pool half a pool apart, so they issue the same shape at the
/// same time as different SQL.
pub fn dashboard_queries(seed: u64) -> Vec<Query> {
    fn shapes(l: &mut Lits) -> Vec<Query> {
        use AggFn::*;
        let (s, d, q, p, x) = (SHIPDATE, DISCOUNT, QUANTITY, PARTKEY, PRICE);
        vec![
            aggs(&[(Sum, x)], l.between(s, 0.03)),
            aggs(&[(Avg, q)], and(vec![l.between(s, 0.05), l.eq(d)])),
            aggs(
                &[(Min, x)],
                and(vec![l.between(q, 0.06), l.between(d, 0.5)]),
            ),
            aggs(&[(Max, p)], and(vec![l.either(d), l.between(q, 0.1)])),
            aggs(&[(Sum, x)], l.q6()),
            count(and(vec![l.between(x, 0.2), l.between(q, 0.06)])),
            aggs(
                &[(Sum, x)],
                and(vec![l.between(x, 0.3), l.between(s, 0.1), l.eq(d)]),
            ),
            aggs(
                &[(Avg, d)],
                and(vec![l.between(x, 0.3), l.between(p, 0.06)]),
            ),
            aggs(
                &[(Sum, x), (Avg, d), (Min, s), (Max, q)],
                l.between(s, 0.02),
            ),
            aggs(
                &[(Sum, q)],
                or(vec![l.between(s, 0.03), l.between(p, 0.01)]),
            ),
            project(
                &[p, x],
                10,
                and(vec![l.between(p, 5e-4), l.between(d, 0.5)]),
            ),
            project(&[s, q, x], 20, and(vec![l.eq(s), l.eq(d)])),
        ]
    }
    let mut rng = Rng::new(mix(seed, 202));
    let mut l = Lits(&mut rng);
    let mut v = shapes(&mut l);
    v.extend(shapes(&mut l));
    v
}

/// Statement `i` of the ad-hoc stream: a fresh chain of 1–5 predicates
/// (a BETWEEN counts as two) with new columns, operators and literals. A
/// pure function of `(seed, i)`, so the sequence does not depend on how
/// far a run gets. The table copy, chain length and output kind cycle
/// with `i` (40% COUNT, 25% SUM, 20% MAX, 15% projections), so every
/// seed issues the same mix.
pub fn adhoc_query(seed: u64, i: u64) -> (Query, bool) {
    let mut rng = Rng::new(mix(mix(seed, 303), i));
    let encoded = i % 2 == 1;
    let n = 1 + (i / 2 % 5) as usize;
    let out = (i / 10 % 20) as f64 / 20.0;
    let mut l = Lits(&mut rng);
    let mut preds = Vec::with_capacity(n);
    let mut leaves = 0;
    if out >= 0.85 {
        // Projections stay selective: LIMIT only truncates after the
        // whole result has been materialized.
        preds.push(l.between(PARTKEY, 2e-3));
        leaves += 2;
    }
    while leaves < n {
        let col = l.0.below(5) as usize;
        let sel = 0.02 + 0.4 * l.0.unit();
        let pair = leaves + 2 <= n;
        let pred = match l.0.below(4) {
            0 => l.lt(col, sel),
            1 => l.ge(col, sel),
            2 if pair => l.between(col, sel),
            _ if col == DISCOUNT || col == QUANTITY => l.eq(col),
            _ if pair => l.between(col, sel / 4.0),
            _ => l.lt(col, sel / 4.0),
        };
        leaves += if matches!(pred, Filter::Between { .. }) {
            2
        } else {
            1
        };
        preds.push(pred);
    }
    let filter = if preds.len() == 1 {
        preds.pop().expect("one predicate")
    } else {
        Filter::And(preds)
    };
    let col = rng.below(5) as usize;
    let q = if out < 0.4 {
        count(filter)
    } else if out < 0.65 {
        aggs(&[(AggFn::Sum, col)], filter)
    } else if out < 0.85 {
        aggs(&[(AggFn::Max, col)], filter)
    } else {
        let other = (col + 1 + rng.below(4) as usize) % 5;
        project(&[col, other], 10, filter)
    };
    (q, encoded)
}
