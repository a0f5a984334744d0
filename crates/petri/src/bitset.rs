//! A compact, fixed-universe bit set used for markings and transition sets.
//!
//! State-space exploration hashes and compares millions of markings, so the
//! representation is a plain `Vec<u64>` with value semantics: two `BitSet`s
//! over the same universe compare equal iff they contain the same elements,
//! and hashing is position-independent of trailing zero blocks because every
//! set created for a universe of `n` elements carries exactly
//! `ceil(n / 64)` blocks.
//!
//! # Examples
//!
//! ```
//! use petri::BitSet;
//!
//! let mut s = BitSet::new(100);
//! s.insert(3);
//! s.insert(97);
//! assert!(s.contains(3));
//! assert_eq!(s.len(), 2);
//! assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 97]);
//! ```

use std::fmt;

const BITS: usize = 64;

/// A set of `usize` elements drawn from a fixed universe `0..capacity`.
///
/// All binary operations (`union_with`, `intersect_with`, …) require both
/// operands to have the same capacity; this is asserted in debug builds.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            blocks: vec![0; capacity.div_ceil(BITS)],
            capacity,
        }
    }

    /// Creates a set containing every element of the universe.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for b in s.blocks.iter_mut() {
            *b = !0;
        }
        s.clear_excess();
        s
    }

    /// Creates a set from an iterator of elements.
    ///
    /// # Panics
    ///
    /// Panics if any element is `>= capacity`.
    pub fn from_iter_with_capacity<I: IntoIterator<Item = usize>>(
        capacity: usize,
        iter: I,
    ) -> Self {
        let mut s = BitSet::new(capacity);
        for e in iter {
            s.insert(e);
        }
        s
    }

    /// The size of the universe this set draws from.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn clear_excess(&mut self) {
        let rem = self.capacity % BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Inserts `elem`, returning `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `elem >= capacity`.
    pub fn insert(&mut self, elem: usize) -> bool {
        assert!(
            elem < self.capacity,
            "element {elem} out of universe 0..{}",
            self.capacity
        );
        let (blk, bit) = (elem / BITS, elem % BITS);
        let was = self.blocks[blk] & (1 << bit) != 0;
        self.blocks[blk] |= 1 << bit;
        !was
    }

    /// Removes `elem`, returning `true` if it was present.
    pub fn remove(&mut self, elem: usize) -> bool {
        if elem >= self.capacity {
            return false;
        }
        let (blk, bit) = (elem / BITS, elem % BITS);
        let was = self.blocks[blk] & (1 << bit) != 0;
        self.blocks[blk] &= !(1 << bit);
        was
    }

    /// Tests membership of `elem`.
    pub fn contains(&self, elem: usize) -> bool {
        if elem >= self.capacity {
            return false;
        }
        self.blocks[elem / BITS] & (1 << (elem % BITS)) != 0
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for b in self.blocks.iter_mut() {
            *b = 0;
        }
    }

    #[inline]
    fn check_compat(&self, other: &BitSet) {
        debug_assert_eq!(
            self.capacity, other.capacity,
            "bit sets drawn from different universes"
        );
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference: `self \= other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        self.check_compat(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Returns `self ∪ other` as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns `self ∩ other` as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other` as a new set.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// `true` if every element of `self` is in `other`.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check_compat(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` if `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.check_compat(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// `true` if `self` and `other` share at least one element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        !self.is_disjoint(other)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// The raw block words backing this set (64 elements per block,
    /// little-endian bit order). Used by the checkpoint serializer.
    pub fn as_blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Rebuilds a set from raw block words over the universe
    /// `0..capacity`, as produced by [`as_blocks`](Self::as_blocks).
    ///
    /// Returns `None` when the block count does not match the capacity or
    /// a bit beyond the universe is set — untrusted (e.g. deserialized)
    /// input must not be able to violate the `clear_excess` invariant.
    pub fn from_blocks(capacity: usize, blocks: Vec<u64>) -> Option<Self> {
        if blocks.len() != capacity.div_ceil(BITS) {
            return None;
        }
        let rem = capacity % BITS;
        if rem != 0 {
            if let Some(&last) = blocks.last() {
                if last & !((1u64 << rem) - 1) != 0 {
                    return None;
                }
            }
        }
        Some(BitSet { blocks, capacity })
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<usize> {
        for (i, &b) in self.blocks.iter().enumerate() {
            if b != 0 {
                return Some(i * BITS + b.trailing_zeros() as usize);
            }
        }
        None
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
pub struct Iter<'a> {
    set: &'a BitSet,
    block_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_idx * BITS + bit);
            }
            self.block_idx += 1;
            if self.block_idx >= self.set.blocks.len() {
                return None;
            }
            self.current = self.set.blocks[self.block_idx];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_elements() {
        let s = BitSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.first(), None);
    }

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(0), "second insert reports already-present");
        assert!(s.contains(0));
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn remove_works() {
        let mut s = BitSet::from_iter_with_capacity(10, [1, 2, 3]);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert!(!s.contains(2));
        assert_eq!(s.len(), 2);
        assert!(!s.remove(99), "out-of-universe remove is a no-op");
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn insert_out_of_universe_panics() {
        let mut s = BitSet::new(4);
        s.insert(4);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        let s1 = BitSet::full(64);
        assert_eq!(s1.len(), 64);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter_with_capacity(100, [1, 2, 3, 70]);
        let b = BitSet::from_iter_with_capacity(100, [2, 3, 4, 71]);
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 70, 71]
        );
        assert_eq!(a.intersection(&b).iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 70]);
    }

    #[test]
    fn subset_and_disjoint() {
        let a = BitSet::from_iter_with_capacity(10, [1, 2]);
        let b = BitSet::from_iter_with_capacity(10, [1, 2, 3]);
        let c = BitSet::from_iter_with_capacity(10, [4, 5]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let e = BitSet::new(10);
        let a = BitSet::from_iter_with_capacity(10, [1]);
        assert!(e.is_subset(&a));
        assert!(e.is_subset(&e));
        assert!(e.is_disjoint(&a));
    }

    #[test]
    fn equality_and_hash_are_value_based() {
        use std::collections::HashSet;
        let a = BitSet::from_iter_with_capacity(100, [5, 99]);
        let mut b = BitSet::new(100);
        b.insert(99);
        b.insert(5);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn ord_is_total_and_consistent() {
        let a = BitSet::from_iter_with_capacity(10, [1]);
        let b = BitSet::from_iter_with_capacity(10, [2]);
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
        let mut v = [b.clone(), a.clone()];
        v.sort();
        v.sort(); // idempotent
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn min_returns_smallest() {
        let s = BitSet::from_iter_with_capacity(200, [150, 7, 64]);
        assert_eq!(s.first(), Some(7));
    }

    #[test]
    fn display_formats_elements() {
        let s = BitSet::from_iter_with_capacity(10, [1, 3]);
        assert_eq!(s.to_string(), "{1,3}");
        assert_eq!(BitSet::new(4).to_string(), "{}");
    }

    #[test]
    fn extend_adds_elements() {
        let mut s = BitSet::new(10);
        s.extend([1, 2, 3]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::full(10);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn in_place_ops_match_functional_ops() {
        let a = BitSet::from_iter_with_capacity(128, [0, 63, 64, 127]);
        let b = BitSet::from_iter_with_capacity(128, [63, 64]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i, a.intersection(&b));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
    }
}
