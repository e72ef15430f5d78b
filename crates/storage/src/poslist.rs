//! Position lists — the scan's output format.
//!
//! A scan produces the list of matching row offsets within a chunk (paper
//! §III: "an offset list of the matching positions"). [`PosList`] is a thin
//! newtype over `Vec<u32>` that enforces the discipline the fused kernels
//! rely on: positions are ascending and unique within one chunk, and fit in
//! 32 bits (the gather instructions use signed 32-bit indices, so chunks are
//! capped at 2³¹ rows — see DESIGN.md §6).

/// Maximum number of rows per chunk so that every offset is a valid signed
/// 32-bit gather index.
pub const MAX_CHUNK_ROWS: usize = i32::MAX as usize;

/// An ascending list of matching row offsets within one chunk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PosList(Vec<u32>);

impl PosList {
    /// Empty list.
    pub fn new() -> PosList {
        PosList(Vec::new())
    }

    /// Empty list with reserved capacity.
    pub fn with_capacity(cap: usize) -> PosList {
        PosList(Vec::with_capacity(cap))
    }

    /// Wrap an existing vector; debug-asserts the ascending invariant.
    pub fn from_vec(positions: Vec<u32>) -> PosList {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be strictly ascending"
        );
        PosList(positions)
    }

    /// Append a position; debug-asserts it is larger than the last one.
    #[inline]
    pub fn push(&mut self, pos: u32) {
        debug_assert!(self.0.last().is_none_or(|&last| last < pos));
        self.0.push(pos);
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The positions as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Consume into the underlying vector.
    pub fn into_vec(self) -> Vec<u32> {
        self.0
    }

    /// Mutable access for kernels that write positions in bulk. The caller
    /// must re-establish the ascending invariant; `debug_validate` checks it.
    pub fn as_mut_vec(&mut self) -> &mut Vec<u32> {
        &mut self.0
    }

    /// Check the ascending/unique invariant (O(n), for tests).
    pub fn is_valid(&self) -> bool {
        self.0.windows(2).all(|w| w[0] < w[1])
    }
}

impl FromIterator<u32> for PosList {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        PosList::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a PosList {
    type Item = u32;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u32>>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read() {
        let mut pl = PosList::new();
        pl.push(1);
        pl.push(5);
        pl.push(6);
        assert_eq!(pl.len(), 3);
        assert_eq!(pl.as_slice(), &[1, 5, 6]);
        assert!(pl.is_valid());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn push_rejects_non_ascending() {
        let mut pl = PosList::new();
        pl.push(5);
        pl.push(5);
    }

    #[test]
    fn from_iterator() {
        let pl: PosList = [2u32, 4, 8].into_iter().collect();
        assert_eq!(pl.into_vec(), vec![2, 4, 8]);
    }

    #[test]
    fn validity_check() {
        let mut pl = PosList::new();
        pl.as_mut_vec().extend([3u32, 1]);
        assert!(!pl.is_valid());
    }
}
