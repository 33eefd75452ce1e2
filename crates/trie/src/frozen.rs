//! The frozen trie: every level, block, child base, and set payload
//! flattened into one contiguous `u32` arena.
//!
//! The storage is a single allocation that can be written to — and
//! memory-loaded from — a snapshot file wholesale, with no per-block
//! allocation and no re-sorting. Sets decode in place as [`SetRef`]
//! views, the one form every intersection kernel reads.
//!
//! ## Arena layout
//!
//! ```text
//! arena = [ block | block | ...
//!         | level-0 offset table | level-1 offset table | ... ]
//!
//! offset table entry  = arena index of the block's first word
//! block               = [ child_base, frozen set encoding... ]
//! ```
//!
//! The offset tables trail the blocks, so a build sizes the whole arena
//! first and then appends every block and every table to one allocation
//! of exactly that size.
//!
//! Per-level table positions live in the (tiny, `arity`-sized) `levels`
//! side array; everything whose size scales with the data is inside the
//! arena. Offsets are `u32` arena indices, capping one trie's arena at
//! 16 GiB — far beyond any per-predicate index this engine builds.
//!
//! ## Arena storage
//!
//! The arena is either *owned* (one heap allocation, the build path) or a
//! *shared* window into an [`ArenaBytes`] region — a snapshot file mapped
//! into the address space, served zero-copy. Navigation never sees the
//! difference: every access goes through one `&[u32]` view, so a mapped
//! trie runs the exact same kernels over page-cache-backed memory.

use std::sync::Arc;

use eh_setops::{
    decode_set, encode_sorted_into, encoded_words, validate_encoded_set, Layout, SetRef,
};

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

/// A shared byte region a [`FrozenTrie`] arena may live inside — in
/// practice a memory-mapped snapshot file (`eh-rdf`'s `MappedRegion`),
/// abstracted here so this crate needs no platform code.
///
/// Contract: `bytes()` must return the same region (same address, same
/// length) for the lifetime of the value — the trie reinterprets a window
/// of it as native-endian `u32`s and holds that view across calls. The
/// constructor validates 4-byte alignment once against this stability.
pub trait ArenaBytes: Send + Sync + std::fmt::Debug {
    /// The region's bytes. Must be stable for `self`'s lifetime.
    fn bytes(&self) -> &[u8];
}

/// The arena's backing storage: one owned allocation, or a borrowed
/// window of a shared region kept alive by the `Arc`.
#[derive(Debug, Clone)]
enum ArenaStore {
    Owned(Box<[u32]>),
    Shared {
        region: Arc<dyn ArenaBytes>,
        /// Byte offset of the arena inside the region (4-byte aligned,
        /// validated at construction).
        offset: usize,
        /// Arena length in `u32` words.
        words: usize,
    },
}

impl ArenaStore {
    #[inline]
    fn words(&self) -> &[u32] {
        match self {
            ArenaStore::Owned(a) => a,
            ArenaStore::Shared { region, offset, words } => {
                let bytes = region.bytes();
                debug_assert!(offset + words * 4 <= bytes.len());
                // SAFETY: the constructor validated that the window is in
                // bounds and that `base + offset` is 4-byte aligned, and
                // the `ArenaBytes` contract pins the region's address and
                // length for the lifetime of the Arc we hold.
                unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr().add(*offset).cast::<u32>(), *words)
                }
            }
        }
    }
}

/// A materialised trie over fixed-arity tuples whose entire payload lives
/// in one contiguous `u32` arena (see the module docs).
#[derive(Debug, Clone)]
pub struct FrozenTrie {
    arity: u32,
    num_tuples: u32,
    /// Per level: (arena index of the block offset table, block count).
    levels: Box<[(u32, u32)]>,
    arena: ArenaStore,
}

/// Equality is over contents — an owned trie and a mapped view of the
/// same persisted arena compare equal, which is exactly what the
/// snapshot roundtrip tests assert.
impl PartialEq for FrozenTrie {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.num_tuples == other.num_tuples
            && self.levels == other.levels
            && self.arena() == other.arena()
    }
}

impl Eq for FrozenTrie {}

impl FrozenTrie {
    /// Build a frozen trie from tuples (sorted + deduplicated internally).
    pub fn build(mut tuples: TupleBuffer, policy: LayoutPolicy) -> FrozenTrie {
        tuples.sort_dedup();
        FrozenTrie::from_sorted(tuples, policy)
    }

    /// Build from tuples already sorted lexicographically and unique,
    /// writing set payloads straight into the arena.
    pub fn from_sorted(tuples: TupleBuffer, policy: LayoutPolicy) -> FrozenTrie {
        debug_assert!(tuples.is_sorted_unique());
        FrozenTrie::build_sorted(tuples.arity(), tuples.len(), |i, l| tuples.row(i)[l], policy)
    }

    /// Build a binary trie from pairs already sorted and unique (one order
    /// of a relation), read in place — no tuple buffer is copied out.
    pub fn from_sorted_pairs(pairs: &[(u32, u32)], policy: LayoutPolicy) -> FrozenTrie {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "pairs must be sorted unique");
        let value = |i: usize, l: usize| if l == 0 { pairs[i].0 } else { pairs[i].1 };
        FrozenTrie::build_sorted(2, pairs.len(), value, policy)
    }

    /// The one build: `n` sorted-unique tuples of `arity`, column `l` of
    /// row `i` read through `value(i, l)`. A first pass splits every
    /// level into its blocks' row ranges and sizes each block's encoding;
    /// the second encodes into an arena allocated once, at exactly that
    /// size.
    fn build_sorted(
        arity: usize,
        n: usize,
        value: impl Fn(usize, usize) -> u32,
        policy: LayoutPolicy,
    ) -> FrozenTrie {
        assert!(arity > 0, "tries need arity >= 1");
        assert!(u32::try_from(n).is_ok(), "frozen tries cap at 2^32 tuples");
        let forced = match policy {
            LayoutPolicy::Auto => None,
            LayoutPolicy::UintOnly => Some(Layout::UintArray),
        };
        // Rows are sorted, so a block's values run from its first row's to
        // its last row's. Below the leaf level each distinct value (a run
        // of equal rows) opens one block on the next level; at the leaf
        // every row is its own value (rows are unique).
        let mut ranges: Vec<Vec<(usize, usize)>> = vec![vec![(0, n)]];
        let mut words = 0usize;
        for level in 0..arity {
            let leaf = level + 1 == arity;
            let mut children = Vec::new();
            for &(start, end) in &ranges[level] {
                let before = children.len();
                let mut i = start;
                while i < end && !leaf {
                    let v = value(i, level);
                    let mut j = i + 1;
                    while j < end && value(j, level) == v {
                        j += 1;
                    }
                    children.push((i, j));
                    i = j;
                }
                let len = if leaf { end - start } else { children.len() - before };
                let (min, max) =
                    if len == 0 { (0, 0) } else { (value(start, level), value(end - 1, level)) };
                // Offset-table entry, child base, encoded set.
                words += 2 + encoded_words(len, min, max, forced);
            }
            if !leaf {
                ranges.push(children);
            }
        }
        assert!(u32::try_from(words).is_ok(), "frozen trie arena caps at 2^32 words");
        // Blocks level by level, then each level's offset table.
        let mut arena: Vec<u32> = Vec::with_capacity(words);
        let mut tables: Vec<Vec<u32>> = Vec::with_capacity(arity);
        let mut vals: Vec<u32> = Vec::new();
        for (level, blocks) in ranges.iter().enumerate() {
            let (mut table, mut child) = (Vec::with_capacity(blocks.len()), 0usize);
            for &(start, end) in blocks {
                vals.clear();
                // The first child block's index; at the leaf, the count of
                // values (= rows) before this block.
                let child_base = match ranges.get(level + 1) {
                    None => {
                        vals.extend((start..end).map(|i| value(i, level)));
                        start
                    }
                    Some(children) => {
                        let first = child;
                        while child < children.len() && children[child].0 < end {
                            vals.push(value(children[child].0, level));
                            child += 1;
                        }
                        first
                    }
                };
                table.push(arena.len() as u32);
                arena.push(child_base as u32);
                encode_sorted_into(&vals, forced, &mut arena);
            }
            tables.push(table);
        }
        let mut levels = Vec::with_capacity(arity);
        for table in tables {
            levels.push((arena.len() as u32, table.len() as u32));
            arena.extend(table);
        }
        debug_assert_eq!(arena.len(), words);
        FrozenTrie {
            arity: arity as u32,
            num_tuples: n as u32,
            levels: levels.into_boxed_slice(),
            arena: ArenaStore::Owned(arena.into_boxed_slice()),
        }
    }

    /// The arena as one `u32` slice, whatever backs it.
    #[inline]
    fn arena(&self) -> &[u32] {
        self.arena.words()
    }

    /// True when the arena is a window of a shared [`ArenaBytes`] region
    /// (a mapped snapshot) rather than an owned allocation.
    pub fn is_shared(&self) -> bool {
        matches!(self.arena, ArenaStore::Shared { .. })
    }

    /// Tuple width (= number of levels).
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// Number of distinct tuples stored.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples as usize
    }

    /// True when the trie holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.num_tuples == 0
    }

    /// The level-0 set (distinct values of the first attribute).
    pub fn root_set(&self) -> SetRef<'_> {
        self.set(0, 0)
    }

    /// The set of block `block` at `level`, decoded in place from the
    /// arena.
    pub fn set(&self, level: usize, block: usize) -> SetRef<'_> {
        let off = self.block_offset(level, block);
        decode_set(&self.arena()[off + 1..]).0
    }

    /// Number of blocks at a level.
    pub fn num_blocks(&self, level: usize) -> usize {
        self.levels[level].1 as usize
    }

    #[inline]
    fn block_offset(&self, level: usize, block: usize) -> usize {
        let (table, count) = self.levels[level];
        debug_assert!(block < count as usize, "block out of range");
        self.arena()[table as usize + block] as usize
    }

    /// Child block (at `level + 1`) for element `value` of `block` at
    /// `level`; `None` when the value is absent.
    pub fn child(&self, level: usize, block: usize, value: u32) -> Option<usize> {
        debug_assert!(level + 1 < self.arity(), "leaf levels have no children");
        let off = self.block_offset(level, block);
        let child_base = self.arena()[off] as usize;
        decode_set(&self.arena()[off + 1..]).0.rank(value).map(|r| child_base + r)
    }

    /// True when a full or prefix tuple is present.
    pub fn contains_prefix(&self, prefix: &[u32]) -> bool {
        assert!(prefix.len() <= self.arity());
        let mut block = 0usize;
        for (level, &v) in prefix.iter().enumerate() {
            if self.is_empty() {
                return false;
            }
            if level + 1 == self.arity() {
                return self.set(level, block).contains(v);
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
        let mut tuple = vec![0u32; self.arity()];
        self.walk(0, 0, &mut tuple, &mut f);
    }

    fn walk(&self, level: usize, block: usize, tuple: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
        let off = self.block_offset(level, block);
        let child_base = self.arena()[off] as usize;
        for (rank, v) in decode_set(&self.arena()[off + 1..]).0.iter().enumerate() {
            tuple[level] = v;
            if level + 1 == self.arity() {
                f(tuple);
            } else {
                self.walk(level + 1, child_base + rank, tuple, f);
            }
        }
    }

    /// Collect all tuples into a buffer (lexicographic order).
    pub fn to_tuples(&self) -> TupleBuffer {
        let mut out = TupleBuffer::with_capacity(self.arity(), self.num_tuples());
        self.for_each_tuple(|row| out.push(row));
        out
    }

    /// Total bytes used by the set payloads (for layout ablation
    /// reporting).
    pub fn set_bytes(&self) -> usize {
        self.blocks().map(|(_, set)| set.bytes()).sum()
    }

    /// Number of bitset-layout blocks (diagnostics for the +Layout
    /// ablation).
    pub fn bitset_blocks(&self) -> usize {
        self.blocks().filter(|(_, set)| set.layout() == Layout::Bitset).count()
    }

    /// Every block of every level as `(child_base, set)`.
    fn blocks(&self) -> impl Iterator<Item = (usize, SetRef<'_>)> + '_ {
        (0..self.arity()).flat_map(move |level| {
            (0..self.num_blocks(level)).map(move |block| {
                let off = self.block_offset(level, block);
                (self.arena()[off] as usize, decode_set(&self.arena()[off + 1..]).0)
            })
        })
    }

    /// Largest value stored on any level, `None` when empty. Snapshot
    /// loading uses this to bound every id against the dictionary before
    /// the trie is served (a crafted arena must not be able to smuggle
    /// out-of-dictionary ids into query results). Bitset maxima are O(1)
    /// scans from the extent's end, so this is O(blocks), not O(values).
    pub fn max_symbol(&self) -> Option<u32> {
        self.blocks().filter_map(|(_, set)| set.max()).max()
    }

    /// Every tuple of a binary trie as `(first, second)`, in order — one
    /// flat in-place decode pass, no recursion and no per-row allocation.
    ///
    /// # Panics
    /// Panics when the trie's arity is not 2.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        assert_eq!(self.arity(), 2, "pairs() reads binary tries");
        let root_base = self.arena()[self.block_offset(0, 0)] as usize;
        self.root_set().iter().enumerate().flat_map(move |(r, a)| {
            let leaf = self.set(1, root_base + r);
            leaf.iter().map(move |b| (a, b))
        })
    }

    /// Number of children of `value` in the root set (0 when absent) — a
    /// binary relation's per-key match count, read off one set header.
    pub fn fanout(&self, value: u32) -> usize {
        self.child(0, 0, value).map_or(0, |block| self.set(1, block).len())
    }

    /// Total arena size in bytes (the single allocation a snapshot
    /// persists).
    pub fn arena_bytes(&self) -> usize {
        std::mem::size_of_val(self.arena())
    }

    /// The raw parts a snapshot writer persists: `(arity, num_tuples,
    /// levels, arena)`.
    pub fn raw_parts(&self) -> (u32, u32, &[(u32, u32)], &[u32]) {
        (self.arity, self.num_tuples, &self.levels, self.arena())
    }

    /// Reassemble a frozen trie from persisted raw parts, structurally
    /// validating every offset, block, and set encoding so that corrupt
    /// input yields `Err` instead of a later panic (or out-of-bounds
    /// index) during navigation.
    pub fn from_raw_parts(
        arity: u32,
        num_tuples: u32,
        levels: Vec<(u32, u32)>,
        arena: Vec<u32>,
    ) -> Result<FrozenTrie, &'static str> {
        validate_parts(arity, num_tuples, &levels, &arena)?;
        Ok(FrozenTrie {
            arity,
            num_tuples,
            levels: levels.into_boxed_slice(),
            arena: ArenaStore::Owned(arena.into_boxed_slice()),
        })
    }

    /// Reassemble a frozen trie whose arena is a window of `region` —
    /// `words` `u32`s starting `byte_offset` bytes in — without copying
    /// it. The same structural validation as [`FrozenTrie::from_raw_parts`]
    /// runs over the shared bytes, plus the window's bounds and 4-byte
    /// alignment (of the region's base address *and* the offset: the
    /// reinterpretation is only defined on an aligned window).
    ///
    /// The words are read as native-endian; the snapshot format is
    /// little-endian, so callers on big-endian targets must take the
    /// copy path instead of constructing shared arenas.
    pub fn from_shared_region(
        arity: u32,
        num_tuples: u32,
        levels: Vec<(u32, u32)>,
        region: Arc<dyn ArenaBytes>,
        byte_offset: usize,
        words: usize,
    ) -> Result<FrozenTrie, &'static str> {
        let bytes = region.bytes();
        let byte_len = words.checked_mul(4).ok_or("arena window overflows")?;
        let end = byte_offset.checked_add(byte_len).ok_or("arena window overflows")?;
        if end > bytes.len() {
            return Err("arena window outside region");
        }
        if !(bytes.as_ptr() as usize + byte_offset).is_multiple_of(4) {
            return Err("arena window is not 4-byte aligned");
        }
        let store = ArenaStore::Shared { region, offset: byte_offset, words };
        validate_parts(arity, num_tuples, &levels, store.words())?;
        Ok(FrozenTrie { arity, num_tuples, levels: levels.into_boxed_slice(), arena: store })
    }
}

/// The structural validation shared by [`FrozenTrie::from_raw_parts`] and
/// [`FrozenTrie::from_shared_region`]: every offset, block, child base,
/// and set encoding checked over a borrowed arena, so corrupt input
/// yields `Err` instead of a later panic (or out-of-bounds index) during
/// navigation — wherever the arena's bytes live.
fn validate_parts(
    arity: u32,
    num_tuples: u32,
    levels: &[(u32, u32)],
    arena: &[u32],
) -> Result<(), &'static str> {
    if arity == 0 || levels.len() != arity as usize {
        return Err("level directory does not match arity");
    }
    let mut next_level_blocks = 1u64; // level 0 always has one block
    for (level, &(table, count)) in levels.iter().enumerate() {
        if count as u64 != next_level_blocks {
            return Err("level block count does not chain");
        }
        let table = table as usize;
        let Some(offsets) = arena.get(table..table + count as usize) else {
            return Err("offset table out of bounds");
        };
        let mut child_blocks = 0u64;
        for &off in offsets {
            let off = off as usize;
            if off >= arena.len() {
                return Err("block offset out of bounds");
            }
            let Some((_, set_len)) = validate_encoded_set(&arena[off + 1..]) else {
                return Err("corrupt set encoding");
            };
            // Every block below the root hangs off one value of its parent,
            // so an empty one is a value with no tuples behind it.
            if level > 0 && set_len == 0 {
                return Err("empty set below the root");
            }
            if arena[off] as u64 != child_blocks {
                return Err("child bases do not tile the next level");
            }
            child_blocks += set_len as u64;
        }
        next_level_blocks = child_blocks;
        if level + 1 == arity as usize && num_tuples as u64 != child_blocks {
            return Err("leaf cardinality does not match num_tuples");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Trie;

    fn figure1_tuples() -> TupleBuffer {
        // Figure 1: suborganizationOf = {(Univ0,Dept0),(Univ0,Dept1),
        // (Univ1,Dept1)} encoded as {(0,1),(0,2),(3,2)}.
        let mut t = TupleBuffer::new(2);
        t.push(&[0, 1]);
        t.push(&[0, 2]);
        t.push(&[3, 2]);
        t
    }

    #[test]
    fn figure1_structure() {
        let trie = FrozenTrie::build(figure1_tuples(), LayoutPolicy::Auto);
        assert_eq!(trie.arity(), 2);
        assert_eq!(trie.num_tuples(), 3);
        assert_eq!(trie.root_set().to_vec(), vec![0, 3]);
        let c0 = trie.child(0, 0, 0).unwrap();
        let c1 = trie.child(0, 0, 3).unwrap();
        assert_eq!(trie.set(1, c0).to_vec(), vec![1, 2]);
        assert_eq!(trie.set(1, c1).to_vec(), vec![2]);
        assert_eq!(trie.child(0, 0, 7), None);
        assert!(trie.contains_prefix(&[0, 2]));
        assert!(!trie.contains_prefix(&[1]));
    }

    #[test]
    fn matches_mutable_trie_everywhere() {
        // A mixed-density relation: frozen values, ranks, child blocks and
        // enumeration must agree with the Vec-of-blocks oracle exactly,
        // whatever layout each block took.
        let mut t = TupleBuffer::new(3);
        for a in 0..4u32 {
            for b in 0..300u32 {
                if (a + b) % 3 == 0 {
                    t.push(&[a, b, (b * 7) % 40]);
                    t.push(&[a, b, 1000 + b]);
                }
            }
        }
        let mutable = Trie::build(t.clone());
        for policy in [LayoutPolicy::Auto, LayoutPolicy::UintOnly] {
            let frozen = FrozenTrie::build(t.clone(), policy);
            assert_eq!(frozen.num_tuples(), mutable.num_tuples());
            assert_eq!(frozen.to_tuples(), mutable.to_tuples());
            for level in 0..mutable.arity() {
                assert_eq!(frozen.num_blocks(level), mutable.num_blocks(level));
                for block in 0..mutable.num_blocks(level) {
                    let (set, vals) = (frozen.set(level, block), mutable.set(level, block));
                    assert_eq!(set.to_vec(), vals, "level {level} block {block}");
                    for (rank, &v) in vals.iter().enumerate() {
                        assert_eq!(set.rank(v), Some(rank));
                        if level + 1 < mutable.arity() {
                            assert_eq!(
                                frozen.child(level, block, v),
                                mutable.child(level, block, v)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        let trie = FrozenTrie::build(figure1_tuples(), LayoutPolicy::Auto);
        let (arity, n, levels, arena) = trie.raw_parts();
        let rebuilt =
            FrozenTrie::from_raw_parts(arity, n, levels.to_vec(), arena.to_vec()).unwrap();
        assert_eq!(rebuilt, trie);

        // Structural corruption is rejected, not panicked on.
        assert!(FrozenTrie::from_raw_parts(0, n, levels.to_vec(), arena.to_vec()).is_err());
        assert!(FrozenTrie::from_raw_parts(3, n, levels.to_vec(), arena.to_vec()).is_err());
        assert!(FrozenTrie::from_raw_parts(arity, n + 1, levels.to_vec(), arena.to_vec()).is_err());
        let mut bad_levels = levels.to_vec();
        bad_levels[1].0 = arena.len() as u32;
        assert!(FrozenTrie::from_raw_parts(arity, n, bad_levels, arena.to_vec()).is_err());
        for i in 0..arena.len() {
            let mut bad = arena.to_vec();
            bad[i] = bad[i].wrapping_add(1_000_000);
            // Any single-word corruption either fails validation or still
            // decodes structurally — it must never panic.
            let _ = FrozenTrie::from_raw_parts(arity, n, levels.to_vec(), bad);
        }
        assert!(FrozenTrie::from_raw_parts(arity, n, levels.to_vec(), vec![]).is_err());
    }

    #[test]
    fn pairs_and_fanout_read_a_binary_trie() {
        let mut pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i / 7, i * 3)).collect();
        pairs.sort_unstable();
        for policy in [LayoutPolicy::Auto, LayoutPolicy::UintOnly] {
            let trie = FrozenTrie::from_sorted(TupleBuffer::from_pairs(&pairs), policy);
            assert_eq!(trie.pairs().collect::<Vec<_>>(), pairs);
            assert_eq!(trie.fanout(0), 7);
            assert_eq!(trie.fanout(28), 4);
            assert_eq!(trie.fanout(29), 0, "absent key");
        }
        let empty = FrozenTrie::build(TupleBuffer::new(2), LayoutPolicy::Auto);
        assert_eq!(empty.pairs().count(), 0);
        assert_eq!(empty.fanout(0), 0);
    }

    #[test]
    fn an_empty_set_below_the_root_is_rejected() {
        // Root {0, 3} where 3's child block is hand-emptied: the root
        // would claim a value that has no tuples.
        let trie = FrozenTrie::build(figure1_tuples(), LayoutPolicy::UintOnly);
        let (arity, n, levels, arena) = trie.raw_parts();
        let mut arena = arena.to_vec();
        let block = arena[levels[1].0 as usize + 1] as usize;
        assert_eq!(&arena[block + 1..block + 4], &[0, 1, 2], "uint block [tag, len, 2]");
        arena[block + 2] = 0;
        assert_eq!(
            FrozenTrie::from_raw_parts(arity, n - 1, levels.to_vec(), arena),
            Err("empty set below the root")
        );
    }

    /// A heap-backed [`ArenaBytes`] stand-in for the mapped region the
    /// snapshot layer provides, with a controllable misalignment.
    #[derive(Debug)]
    struct HeapRegion {
        bytes: Vec<u8>,
    }

    impl ArenaBytes for HeapRegion {
        fn bytes(&self) -> &[u8] {
            &self.bytes
        }
    }

    /// `arena` serialized after `lead` zero bytes. The second return is
    /// an in-bounds window offset that is *not* 4-byte aligned relative
    /// to the region's base address (for the rejection case).
    fn region_of(arena: &[u32], lead: usize) -> (Arc<dyn ArenaBytes>, usize) {
        let mut bytes = vec![0u8; lead];
        for &w in arena {
            bytes.extend_from_slice(&w.to_ne_bytes());
        }
        let region: Arc<dyn ArenaBytes> = Arc::new(HeapRegion { bytes });
        let base = region.bytes().as_ptr() as usize;
        let misaligned = (0..4).find(|o| !(base + o).is_multiple_of(4)).expect("offset misaligns");
        (region, misaligned)
    }

    #[test]
    fn shared_region_arena_is_equal_and_validated() {
        let trie = FrozenTrie::build(figure1_tuples(), LayoutPolicy::Auto);
        let (arity, n, levels, arena) = trie.raw_parts();
        let (region, misaligned) = region_of(arena, 4);
        let base = region.bytes().as_ptr() as usize;
        // The arena sits 4 bytes in; Vec allocations are word-aligned in
        // practice, but derive the aligned offset from the base to be
        // safe rather than assume it.
        assert_eq!(base % 4, 0, "allocator returned a sub-word-aligned Vec");
        let shared = FrozenTrie::from_shared_region(
            arity,
            n,
            levels.to_vec(),
            Arc::clone(&region),
            4,
            arena.len(),
        )
        .unwrap();
        assert!(shared.is_shared() && !trie.is_shared());
        assert_eq!(shared, trie);
        assert_eq!(shared.to_tuples(), trie.to_tuples());
        // Clones share the region; equality still holds by contents.
        assert_eq!(shared.clone(), trie);

        // A misaligned window is rejected before any validation runs.
        assert!(matches!(
            FrozenTrie::from_shared_region(
                arity,
                n,
                levels.to_vec(),
                Arc::clone(&region),
                misaligned,
                arena.len()
            ),
            Err(e) if e.contains("aligned")
        ));
        // A window past the region's end is rejected.
        assert!(FrozenTrie::from_shared_region(
            arity,
            n,
            levels.to_vec(),
            Arc::clone(&region),
            4,
            arena.len() + 1
        )
        .is_err());
        // Structural corruption inside the shared bytes is rejected too:
        // point the root block offset past the arena's end.
        let mut bad = arena.to_vec();
        bad[levels[0].0 as usize] = bad.len() as u32;
        let (bad_region, _) = region_of(&bad, 0);
        assert!(FrozenTrie::from_shared_region(
            arity,
            n,
            levels.to_vec(),
            bad_region,
            0,
            bad.len()
        )
        .is_err());
    }

    #[test]
    fn unary_and_empty() {
        let mut t = TupleBuffer::new(1);
        t.push(&[4]);
        t.push(&[2]);
        let trie = FrozenTrie::build(t, LayoutPolicy::Auto);
        assert_eq!(trie.root_set().to_vec(), vec![2, 4]);
        assert!(trie.contains_prefix(&[4]));
        assert!(!trie.contains_prefix(&[3]));

        let empty = FrozenTrie::build(TupleBuffer::new(2), LayoutPolicy::Auto);
        assert!(empty.is_empty());
        assert_eq!(empty.root_set().len(), 0);
        assert!(!empty.contains_prefix(&[0]));
        let mut count = 0;
        empty.for_each_tuple(|_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn uint_only_policy_has_no_bitsets() {
        let mut t = TupleBuffer::new(1);
        for v in 0..1000 {
            t.push(&[v]);
        }
        let auto = FrozenTrie::build(t.clone(), LayoutPolicy::Auto);
        let uint = FrozenTrie::build(t, LayoutPolicy::UintOnly);
        assert!(auto.bitset_blocks() > 0);
        assert_eq!(uint.bitset_blocks(), 0);
        assert_eq!(auto.num_tuples(), uint.num_tuples());
        assert!(auto.arena_bytes() < uint.arena_bytes());
        // 1000 values as 4-byte array elements vs 1000 bits in 32 words.
        assert_eq!((uint.set_bytes(), auto.set_bytes()), (4000, 128));
    }
}
