//! Predicate and output types shared by every scan implementation.

use fts_storage::{CmpOp, NativeType, PosList};

/// A typed predicate bound to its column data: `data[row] OP needle`.
#[derive(Debug, Clone, Copy)]
pub struct TypedPred<'a, T> {
    /// The column values (one chunk's worth).
    pub data: &'a [T],
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub needle: T,
}

impl<'a, T: NativeType> TypedPred<'a, T> {
    /// Convenience constructor.
    pub fn new(data: &'a [T], op: CmpOp, needle: T) -> Self {
        TypedPred { data, op, needle }
    }

    /// Equality predicate (the paper's running example).
    pub fn eq(data: &'a [T], needle: T) -> Self {
        TypedPred {
            data,
            op: CmpOp::Eq,
            needle,
        }
    }

    /// Evaluate this predicate for one row.
    #[inline(always)]
    pub fn matches(&self, row: usize) -> bool {
        self.data[row].cmp_op(self.op, self.needle)
    }
}

/// What a scan produces: a match count (for `COUNT(*)` pipelines) or the
/// position list handed to the next operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanOutput {
    /// Number of rows matching all predicates.
    Count(u64),
    /// Offsets of matching rows, ascending.
    Positions(PosList),
}

impl ScanOutput {
    /// The match count regardless of representation.
    pub fn count(&self) -> u64 {
        match self {
            ScanOutput::Count(n) => *n,
            ScanOutput::Positions(p) => p.len() as u64,
        }
    }

    /// The position list, if this output carries one.
    pub fn positions(&self) -> Option<&PosList> {
        match self {
            ScanOutput::Positions(p) => Some(p),
            ScanOutput::Count(_) => None,
        }
    }
}

/// Whether a scan should produce positions or only count matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Count matching rows only (cheapest).
    Count,
    /// Materialize the position list for a consuming operator.
    Positions,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_pred_matches() {
        let data = [1u32, 5, 7];
        let p = TypedPred::eq(&data, 5);
        assert!(!p.matches(0));
        assert!(p.matches(1));
        let p = TypedPred::new(&data, CmpOp::Gt, 4u32);
        assert!(p.matches(1) && p.matches(2) && !p.matches(0));
    }

    #[test]
    fn scan_output_count() {
        assert_eq!(ScanOutput::Count(7).count(), 7);
        let pl: PosList = [1u32, 2, 9].into_iter().collect();
        let out = ScanOutput::Positions(pl);
        assert_eq!(out.count(), 3);
        assert_eq!(out.positions().unwrap().as_slice(), &[1, 2, 9]);
        assert!(ScanOutput::Count(0).positions().is_none());
    }
}
