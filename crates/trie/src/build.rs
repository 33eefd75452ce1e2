//! The layout policy every trie build takes, and — for tests only — the
//! mutable Vec-of-`Set` trie that is the oracle [`FrozenTrie`] is compared
//! against (`frozen.rs` tests, `proptests.rs`). Nothing outside this
//! crate's tests constructs one.
//!
//! [`FrozenTrie`]: crate::FrozenTrie

#[cfg(test)]
use eh_setops::{Layout, Set};

#[cfg(test)]
use crate::tuples::TupleBuffer;

/// Which set layouts trie levels may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutPolicy {
    /// Let the per-set layout optimizer choose (paper §II-A2).
    Auto,
    /// Force sorted uint arrays everywhere — the "index layout" baseline
    /// of the Table I +Layout ablation.
    UintOnly,
}

#[cfg(test)]
#[derive(Debug, Clone)]
struct Block {
    set: Set,
    /// Index of this block's first child on the next level; the child of
    /// element rank `r` is block `child_base + r`.
    child_base: usize,
}

/// A materialised trie over fixed-arity tuples (paper §II-A, Figure 1).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct Trie {
    arity: usize,
    levels: Vec<Vec<Block>>,
    num_tuples: usize,
}

#[cfg(test)]
impl Trie {
    /// Build a trie from tuples (sorted + deduplicated internally).
    pub fn build(mut tuples: TupleBuffer, policy: LayoutPolicy) -> Trie {
        tuples.sort_dedup();
        Trie::from_sorted(tuples, policy)
    }

    /// Build from tuples already sorted lexicographically and unique
    /// (e.g. a [`PairTable`](https://docs.rs)-order slice); skips the sort.
    pub fn from_sorted(tuples: TupleBuffer, policy: LayoutPolicy) -> Trie {
        debug_assert!(tuples.is_sorted_unique());
        let arity = tuples.arity();
        assert!(arity > 0, "tries need arity >= 1");
        let n = tuples.len();
        let mut levels: Vec<Vec<Block>> = Vec::with_capacity(arity);
        // Row ranges forming the blocks of the current level.
        let mut ranges: Vec<(usize, usize)> = vec![(0, n)];
        let mut vals: Vec<u32> = Vec::new();
        for level in 0..arity {
            let mut blocks = Vec::with_capacity(ranges.len());
            let mut next_ranges = Vec::new();
            for &(start, end) in &ranges {
                vals.clear();
                let child_base = next_ranges.len();
                let mut i = start;
                while i < end {
                    let v = tuples.row(i)[level];
                    let mut j = i + 1;
                    while j < end && tuples.row(j)[level] == v {
                        j += 1;
                    }
                    vals.push(v);
                    next_ranges.push((i, j));
                    i = j;
                }
                let set = match policy {
                    LayoutPolicy::Auto => Set::from_sorted(&vals),
                    LayoutPolicy::UintOnly => Set::from_sorted_with(&vals, Layout::UintArray),
                };
                blocks.push(Block { set, child_base });
            }
            levels.push(blocks);
            ranges = next_ranges;
        }
        Trie { arity, levels, num_tuples: n }
    }

    /// Tuple width (= number of levels).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of distinct tuples stored.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// True when the trie holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.num_tuples == 0
    }

    /// The level-0 set (distinct values of the first attribute).
    pub fn root_set(&self) -> &Set {
        &self.levels[0][0].set
    }

    /// The set of block `block` at `level`.
    pub fn set(&self, level: usize, block: usize) -> &Set {
        &self.levels[level][block].set
    }

    /// Number of blocks at a level.
    pub fn num_blocks(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// Index of the first child block (on `level + 1`) of `block` at
    /// `level` — the `child_base` the frozen encoding persists per block.
    pub fn child_base(&self, level: usize, block: usize) -> usize {
        self.levels[level][block].child_base
    }

    /// Child block (at `level + 1`) for element `value` of `block` at
    /// `level`; `None` when the value is absent.
    pub fn child(&self, level: usize, block: usize, value: u32) -> Option<usize> {
        debug_assert!(level + 1 < self.arity, "leaf levels have no children");
        let b = &self.levels[level][block];
        b.set.rank(value).map(|r| b.child_base + r)
    }

    /// True when a full or prefix tuple is present.
    pub fn contains_prefix(&self, prefix: &[u32]) -> bool {
        assert!(prefix.len() <= self.arity);
        let mut block = 0usize;
        for (level, &v) in prefix.iter().enumerate() {
            if self.is_empty() {
                return false;
            }
            if level + 1 == self.arity {
                return self.levels[level][block].set.contains(v);
            }
            match self.child(level, block, v) {
                Some(c) => block = c,
                None => return false,
            }
        }
        true
    }

    /// Invoke `f` for every tuple in lexicographic order.
    pub fn for_each_tuple(&self, mut f: impl FnMut(&[u32])) {
        let mut tuple = vec![0u32; self.arity];
        self.walk(0, 0, &mut tuple, &mut f);
    }

    fn walk(&self, level: usize, block: usize, tuple: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
        let b = &self.levels[level][block];
        for (rank, v) in b.set.iter().enumerate() {
            tuple[level] = v;
            if level + 1 == self.arity {
                f(tuple);
            } else {
                self.walk(level + 1, b.child_base + rank, tuple, f);
            }
        }
    }

    /// Collect all tuples into a buffer (lexicographic order).
    pub fn to_tuples(&self) -> TupleBuffer {
        let mut out = TupleBuffer::with_capacity(self.arity, self.num_tuples);
        self.for_each_tuple(|row| out.push(row));
        out
    }

    /// Total bytes used by the sets (for layout ablation reporting).
    pub fn set_bytes(&self) -> usize {
        self.levels.iter().flat_map(|blocks| blocks.iter().map(|b| b.set.bytes())).sum()
    }

    /// Number of bitset-layout blocks (diagnostics for the +Layout
    /// ablation).
    pub fn bitset_blocks(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|blocks| blocks.iter())
            .filter(|b| b.set.layout() == Layout::Bitset)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_trie(policy: LayoutPolicy) -> Trie {
        // Figure 1: suborganizationOf = {(Univ0,Dept0),(Univ0,Dept1),
        // (Univ1,Dept1)} encoded as {(0,1),(0,2),(3,2)}.
        let mut t = TupleBuffer::new(2);
        t.push(&[0, 1]);
        t.push(&[0, 2]);
        t.push(&[3, 2]);
        Trie::build(t, policy)
    }

    #[test]
    fn figure1_structure() {
        let trie = figure1_trie(LayoutPolicy::Auto);
        assert_eq!(trie.arity(), 2);
        assert_eq!(trie.num_tuples(), 3);
        assert_eq!(trie.root_set().to_vec(), vec![0, 3]);
        let c0 = trie.child(0, 0, 0).unwrap();
        let c1 = trie.child(0, 0, 3).unwrap();
        assert_eq!(trie.set(1, c0).to_vec(), vec![1, 2]);
        assert_eq!(trie.set(1, c1).to_vec(), vec![2]);
        assert_eq!(trie.child(0, 0, 7), None);
    }

    #[test]
    fn build_dedups_and_sorts() {
        let mut t = TupleBuffer::new(2);
        for row in [[5, 5], [1, 2], [5, 5], [1, 1]] {
            t.push(&row);
        }
        let trie = Trie::build(t, LayoutPolicy::Auto);
        assert_eq!(trie.num_tuples(), 3);
        let out = trie.to_tuples();
        assert_eq!(out.row(0), &[1, 1]);
        assert_eq!(out.row(1), &[1, 2]);
        assert_eq!(out.row(2), &[5, 5]);
    }

    #[test]
    fn contains_prefix() {
        let trie = figure1_trie(LayoutPolicy::Auto);
        assert!(trie.contains_prefix(&[]));
        assert!(trie.contains_prefix(&[0]));
        assert!(trie.contains_prefix(&[0, 2]));
        assert!(!trie.contains_prefix(&[0, 3]));
        assert!(!trie.contains_prefix(&[1]));
    }

    #[test]
    fn uint_only_policy_has_no_bitsets() {
        let mut t = TupleBuffer::new(1);
        for v in 0..1000 {
            t.push(&[v]);
        }
        let auto = Trie::build(t.clone(), LayoutPolicy::Auto);
        let uint = Trie::build(t, LayoutPolicy::UintOnly);
        assert!(auto.bitset_blocks() > 0);
        assert_eq!(uint.bitset_blocks(), 0);
        assert_eq!(auto.num_tuples(), uint.num_tuples());
    }

    #[test]
    fn unary_trie() {
        let mut t = TupleBuffer::new(1);
        t.push(&[4]);
        t.push(&[2]);
        let trie = Trie::build(t, LayoutPolicy::Auto);
        assert_eq!(trie.root_set().to_vec(), vec![2, 4]);
        assert!(trie.contains_prefix(&[4]));
        assert!(!trie.contains_prefix(&[3]));
    }

    #[test]
    fn empty_trie() {
        let trie = Trie::build(TupleBuffer::new(2), LayoutPolicy::Auto);
        assert!(trie.is_empty());
        assert_eq!(trie.root_set().len(), 0);
        assert!(!trie.contains_prefix(&[0]));
        let mut n = 0;
        trie.for_each_tuple(|_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn ternary_navigation() {
        let mut t = TupleBuffer::new(3);
        t.push(&[1, 2, 3]);
        t.push(&[1, 2, 4]);
        t.push(&[1, 5, 6]);
        t.push(&[7, 2, 3]);
        let trie = Trie::build(t, LayoutPolicy::Auto);
        let b1 = trie.child(0, 0, 1).unwrap();
        assert_eq!(trie.set(1, b1).to_vec(), vec![2, 5]);
        let b12 = trie.child(1, b1, 2).unwrap();
        assert_eq!(trie.set(2, b12).to_vec(), vec![3, 4]);
        assert!(trie.contains_prefix(&[7, 2, 3]));
        assert!(!trie.contains_prefix(&[7, 5]));
    }

    #[test]
    fn set_bytes_positive() {
        assert!(figure1_trie(LayoutPolicy::Auto).set_bytes() > 0);
    }
}
