//! The test oracle [`FrozenTrie`] is compared against (`frozen.rs` tests,
//! `proptests.rs`): a Vec-of-blocks trie holding each block's values as a
//! plain sorted `Vec<u32>`, so it shares neither the layout optimizer nor
//! the block encoder with the arena it checks.
//!
//! [`FrozenTrie`]: crate::FrozenTrie

use crate::tuples::TupleBuffer;

#[derive(Debug, Clone)]
struct Block {
    vals: Vec<u32>,
    /// Index of this block's first child on the next level; the child of
    /// element rank `r` is block `child_base + r`.
    child_base: usize,
}

/// A materialised trie over fixed-arity tuples (paper §II-A, Figure 1).
#[derive(Debug, Clone)]
pub(crate) struct Trie {
    arity: usize,
    levels: Vec<Vec<Block>>,
    num_tuples: usize,
}

impl Trie {
    /// Build a trie from tuples (sorted + deduplicated internally).
    pub fn build(mut tuples: TupleBuffer) -> Trie {
        tuples.sort_dedup();
        let arity = tuples.arity();
        assert!(arity > 0, "tries need arity >= 1");
        let n = tuples.len();
        let mut levels: Vec<Vec<Block>> = Vec::with_capacity(arity);
        // Row ranges forming the blocks of the current level.
        let mut ranges: Vec<(usize, usize)> = vec![(0, n)];
        for level in 0..arity {
            let mut blocks = Vec::with_capacity(ranges.len());
            let mut next_ranges = Vec::new();
            for &(start, end) in &ranges {
                let mut vals = Vec::new();
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
                blocks.push(Block { vals, child_base });
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

    /// The level-0 values (distinct values of the first attribute).
    pub fn root_set(&self) -> &[u32] {
        self.set(0, 0)
    }

    /// The sorted values of block `block` at `level`.
    pub fn set(&self, level: usize, block: usize) -> &[u32] {
        &self.levels[level][block].vals
    }

    /// Number of blocks at a level.
    pub fn num_blocks(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// Child block (at `level + 1`) for element `value` of `block` at
    /// `level`; `None` when the value is absent.
    pub fn child(&self, level: usize, block: usize, value: u32) -> Option<usize> {
        debug_assert!(level + 1 < self.arity, "leaf levels have no children");
        let b = &self.levels[level][block];
        b.vals.binary_search(&value).ok().map(|r| b.child_base + r)
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
                return self.set(level, block).binary_search(&v).is_ok();
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
        for (rank, &v) in b.vals.iter().enumerate() {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_trie() -> Trie {
        // Figure 1: suborganizationOf = {(Univ0,Dept0),(Univ0,Dept1),
        // (Univ1,Dept1)} encoded as {(0,1),(0,2),(3,2)}.
        let mut t = TupleBuffer::new(2);
        t.push(&[0, 1]);
        t.push(&[0, 2]);
        t.push(&[3, 2]);
        Trie::build(t)
    }

    #[test]
    fn figure1_structure() {
        let trie = figure1_trie();
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
        let trie = Trie::build(t);
        assert_eq!(trie.num_tuples(), 3);
        let out = trie.to_tuples();
        assert_eq!(out.row(0), &[1, 1]);
        assert_eq!(out.row(1), &[1, 2]);
        assert_eq!(out.row(2), &[5, 5]);
    }

    #[test]
    fn contains_prefix() {
        let trie = figure1_trie();
        assert!(trie.contains_prefix(&[]));
        assert!(trie.contains_prefix(&[0]));
        assert!(trie.contains_prefix(&[0, 2]));
        assert!(!trie.contains_prefix(&[0, 3]));
        assert!(!trie.contains_prefix(&[1]));
    }

    #[test]
    fn unary_trie() {
        let mut t = TupleBuffer::new(1);
        t.push(&[4]);
        t.push(&[2]);
        let trie = Trie::build(t);
        assert_eq!(trie.root_set().to_vec(), vec![2, 4]);
        assert!(trie.contains_prefix(&[4]));
        assert!(!trie.contains_prefix(&[3]));
    }

    #[test]
    fn empty_trie() {
        let trie = Trie::build(TupleBuffer::new(2));
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
        let trie = Trie::build(t);
        let b1 = trie.child(0, 0, 1).unwrap();
        assert_eq!(trie.set(1, b1).to_vec(), vec![2, 5]);
        let b12 = trie.child(1, b1, 2).unwrap();
        assert_eq!(trie.set(2, b12).to_vec(), vec![3, 4]);
        assert!(trie.contains_prefix(&[7, 2, 3]));
        assert!(!trie.contains_prefix(&[7, 5]));
    }
}
