//! The reference oracle: a row loop over the generated vectors, written
//! independently of the engine and run outside every timed region.
//! Predicates evaluate column-at-a-time into a byte mask (plain loops the
//! compiler vectorizes), then the output folds over the mask.

use crate::data::{Dataset, PRICE};
use crate::query::{AggFn, Filter, Op, Output, Query};

/// A numeric cell: integers compare exactly, floats with a relative
/// tolerance.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    Int(i128),
    Float(f64),
}

impl Num {
    pub fn matches(self, other: Num) -> bool {
        match (self, other) {
            (Num::Int(a), Num::Int(b)) => a == b,
            (a, b) => {
                let (a, b) = (a.as_f64(), b.as_f64());
                a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
            }
        }
    }

    fn as_f64(self) -> f64 {
        match self {
            Num::Int(v) => v as f64,
            Num::Float(v) => v,
        }
    }
}

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Num::Int(v) => write!(f, "{v}"),
            Num::Float(v) => write!(f, "{v}"),
        }
    }
}

/// What a statement must return.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A lone `COUNT(*)`.
    Count(u64),
    /// One row of aggregates.
    Row(Vec<Num>),
    /// Projected rows, in table order.
    Rows(Vec<Vec<Num>>),
}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let row = |r: &[Num]| r.iter().map(Num::to_string).collect::<Vec<_>>().join(" | ");
        match self {
            Answer::Count(n) => write!(f, "COUNT(*) = {n}"),
            Answer::Row(r) => write!(f, "[{}]", row(r)),
            Answer::Rows(rows) => {
                let rows: Vec<String> = rows.iter().map(|r| row(r)).collect();
                write!(f, "{} row(s) [{}]", rows.len(), rows.join("; "))
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Mode {
    Set,
    And,
    Or,
}

#[inline(always)]
fn fold_mask<T: Copy>(col: &[T], mask: &mut [u8], mode: Mode, f: impl Fn(T) -> bool) {
    match mode {
        Mode::Set => mask.iter_mut().zip(col).for_each(|(m, &v)| *m = f(v) as u8),
        Mode::And => mask
            .iter_mut()
            .zip(col)
            .for_each(|(m, &v)| *m &= f(v) as u8),
        Mode::Or => mask
            .iter_mut()
            .zip(col)
            .for_each(|(m, &v)| *m |= f(v) as u8),
    }
}

fn cmp_col<T: Copy + PartialOrd>(col: &[T], op: Op, lit: T, mask: &mut [u8], mode: Mode) {
    match op {
        Op::Eq => fold_mask(col, mask, mode, |v| v == lit),
        Op::Lt => fold_mask(col, mask, mode, |v| v < lit),
        Op::Le => fold_mask(col, mask, mode, |v| v <= lit),
        Op::Ge => fold_mask(col, mask, mode, |v| v >= lit),
    }
}

fn cmp(data: &Dataset, col: usize, op: Op, lit: i64, mask: &mut [u8], mode: Mode) {
    if col == PRICE {
        cmp_col(&data.price, op, lit, mask, mode);
    } else {
        let lit = u32::try_from(lit).expect("generated u32 literals stay in range");
        cmp_col(&data.u32s[col], op, lit, mask, mode);
    }
}

fn eval(f: &Filter, data: &Dataset, mask: &mut [u8], mode: Mode) {
    match f {
        Filter::Cmp { col, op, lit } => cmp(data, *col, *op, *lit, mask, mode),
        Filter::Between { col, lo, hi } => {
            eval_and(
                &[
                    Filter::Cmp {
                        col: *col,
                        op: Op::Ge,
                        lit: *lo,
                    },
                    Filter::Cmp {
                        col: *col,
                        op: Op::Le,
                        lit: *hi,
                    },
                ],
                data,
                mask,
                mode,
            );
        }
        Filter::And(cs) => eval_and(cs, data, mask, mode),
        Filter::Or(ds) => match mode {
            Mode::Or => ds.iter().for_each(|d| eval(d, data, mask, Mode::Or)),
            _ => {
                let mut tmp = vec![0u8; mask.len()];
                ds.iter().for_each(|d| eval(d, data, &mut tmp, Mode::Or));
                combine(mask, &tmp, mode);
            }
        },
    }
}

fn eval_and(cs: &[Filter], data: &Dataset, mask: &mut [u8], mode: Mode) {
    match mode {
        Mode::And => cs.iter().for_each(|c| eval(c, data, mask, Mode::And)),
        _ => {
            let mut tmp = vec![1u8; mask.len()];
            cs.iter().for_each(|c| eval(c, data, &mut tmp, Mode::And));
            combine(mask, &tmp, mode);
        }
    }
}

fn combine(mask: &mut [u8], tmp: &[u8], mode: Mode) {
    match mode {
        Mode::Set => mask.copy_from_slice(tmp),
        Mode::And => mask.iter_mut().zip(tmp).for_each(|(m, &t)| *m &= t),
        Mode::Or => mask.iter_mut().zip(tmp).for_each(|(m, &t)| *m |= t),
    }
}

fn value(data: &Dataset, col: usize, row: usize) -> i64 {
    if col == PRICE {
        data.price[row]
    } else {
        data.u32s[col][row] as i64
    }
}

fn sum_masked<T: Copy + Into<i64>>(col: &[T], mask: &[u8]) -> i128 {
    col.iter()
        .zip(mask)
        .map(|(&v, &m)| v.into() * m as i64)
        .sum::<i64>() as i128
}

fn aggregate(data: &Dataset, mask: &[u8], n: u64, f: AggFn, col: usize) -> Num {
    let sum = || {
        if col == PRICE {
            sum_masked(&data.price, mask)
        } else {
            sum_masked(&data.u32s[col], mask)
        }
    };
    match f {
        AggFn::Sum => Num::Int(sum()),
        // The engine divides the exact integer sum, as f64, by the count.
        AggFn::Avg if n == 0 => Num::Float(0.0),
        AggFn::Avg => Num::Float(sum() as f64 / n as f64),
        AggFn::Min | AggFn::Max => {
            let want_max = f == AggFn::Max;
            let best = (0..mask.len())
                .filter(|&r| mask[r] != 0)
                .map(|r| value(data, col, r))
                .reduce(|a, b| if want_max { a.max(b) } else { a.min(b) });
            // An empty input yields 0, as the engine reports it.
            Num::Int(best.unwrap_or(0) as i128)
        }
    }
}

/// The reference answer of `q` over `data`.
pub fn answer(q: &Query, data: &Dataset) -> Answer {
    let mut mask = vec![0u8; data.rows()];
    eval(&q.filter, data, &mut mask, Mode::Set);
    let n: u64 = mask.iter().map(|&m| m as u64).sum();
    match &q.output {
        Output::Count => Answer::Count(n),
        Output::Aggs(list) => Answer::Row(
            list.iter()
                .map(|&(f, col)| aggregate(data, &mask, n, f, col))
                .collect(),
        ),
        Output::Project { cols, limit } => Answer::Rows(
            (0..mask.len())
                .filter(|&r| mask[r] != 0)
                .take(*limit)
                .map(|r| {
                    cols.iter()
                        .map(|&c| Num::Int(value(data, c, r) as i128))
                        .collect()
                })
                .collect(),
        ),
    }
}
