//! The encoded set block and its borrowed views — the one set
//! representation of the crate.
//!
//! A set is a contiguous run of `u32` words inside a larger arena (a
//! trie's, in practice), written once by [`encode_sorted_into`], checked
//! by [`validate_encoded_set`] where the words cross a trust boundary,
//! and read in place through [`decode_set`] with no per-block allocation:
//!
//! ```text
//! uint:   [TAG_UINT,   len, v0, v1, ... v(len-1)]
//! bitset: [TAG_BITSET, len, base_word, nwords, words..., ranks...]
//! ```
//!
//! [`SetRef`] is the read interface over both layouts: every membership,
//! rank, iteration, merge and intersection kernel in the crate is written
//! once over these views. The bitset's rank directory (prefix popcounts)
//! is part of the block, so rank — a trie's child lookup — is O(1).
//!
//! There is no owned set type: code that wants to keep a set keeps the
//! sorted `Vec<u32>` it encoded from, or the words it encoded into.

use crate::bitset::{BitIter, WORD_BITS};
use crate::optimizer::{choose_layout, Layout};

/// Block tag for a sorted uint array payload.
pub(crate) const TAG_UINT: u32 = 0;
/// Block tag for a bitset payload.
pub(crate) const TAG_BITSET: u32 = 1;

/// A borrowed bitset: base word plus the word and rank slices of a
/// `TAG_BITSET` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitsRef<'a> {
    base_word: u32,
    words: &'a [u32],
    ranks: &'a [u32],
    len: u32,
}

impl<'a> BitsRef<'a> {
    pub(crate) fn new(base_word: u32, words: &'a [u32], ranks: &'a [u32], len: u32) -> BitsRef<'a> {
        debug_assert_eq!(words.len(), ranks.len());
        BitsRef { base_word, words, ranks, len }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First covered word index.
    #[inline]
    pub(crate) fn base_word(&self) -> u32 {
        self.base_word
    }

    /// The payload words.
    #[inline]
    pub(crate) fn words(&self) -> &'a [u32] {
        self.words
    }

    /// Constant-time membership probe.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        let w = v / WORD_BITS;
        if w < self.base_word || (w - self.base_word) as usize >= self.words.len() {
            return false;
        }
        self.words[(w - self.base_word) as usize] & (1u32 << (v % WORD_BITS)) != 0
    }

    /// Rank of `v` (its index in sorted order), if present — O(1) via the
    /// rank directory.
    pub fn rank(&self, v: u32) -> Option<usize> {
        let w = v / WORD_BITS;
        if w < self.base_word || (w - self.base_word) as usize >= self.words.len() {
            return None;
        }
        let word = (w - self.base_word) as usize;
        let bit = 1u32 << (v % WORD_BITS);
        if self.words[word] & bit == 0 {
            return None;
        }
        let below = (self.words[word] & (bit - 1)).count_ones();
        Some(self.ranks[word] as usize + below as usize)
    }

    /// Smallest element.
    pub fn min(&self) -> Option<u32> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| (self.base_word + i as u32) * WORD_BITS + w.trailing_zeros())
    }

    /// Largest element.
    pub fn max(&self) -> Option<u32> {
        self.words.iter().enumerate().rev().find(|(_, w)| **w != 0).map(|(i, w)| {
            (self.base_word + i as u32) * WORD_BITS + WORD_BITS - 1 - w.leading_zeros()
        })
    }

    /// Iterate elements in increasing order.
    pub fn iter(&self) -> BitIter<'a> {
        BitIter {
            words: self.words,
            base_word: self.base_word,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            remaining: self.len as usize,
        }
    }
}

/// A borrowed, layout-polymorphic set view — the read-side currency of
/// the crate (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetRef<'a> {
    /// A sorted unique `u32` slice.
    Uint(&'a [u32]),
    /// A borrowed bitset.
    Bits(BitsRef<'a>),
}

impl<'a> SetRef<'a> {
    /// The physical layout of the viewed set.
    pub fn layout(&self) -> Layout {
        match self {
            SetRef::Uint(_) => Layout::UintArray,
            SetRef::Bits(_) => Layout::Bitset,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SetRef::Uint(v) => v.len(),
            SetRef::Bits(b) => b.len(),
        }
    }

    /// True when the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership probe: `O(1)` for bitsets, `O(log n)` for uint arrays.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        match self {
            SetRef::Uint(s) => s.binary_search(&v).is_ok(),
            SetRef::Bits(b) => b.contains(v),
        }
    }

    /// Rank (index in sorted order) of `v`, if present.
    #[inline]
    pub fn rank(&self, v: u32) -> Option<usize> {
        match self {
            SetRef::Uint(s) => s.binary_search(&v).ok(),
            SetRef::Bits(b) => b.rank(v),
        }
    }

    /// Smallest element.
    pub fn min(&self) -> Option<u32> {
        match self {
            SetRef::Uint(s) => s.first().copied(),
            SetRef::Bits(b) => b.min(),
        }
    }

    /// Largest element.
    pub fn max(&self) -> Option<u32> {
        match self {
            SetRef::Uint(s) => s.last().copied(),
            SetRef::Bits(b) => b.max(),
        }
    }

    /// Iterate elements in increasing order regardless of layout.
    pub fn iter(&self) -> SetRefIter<'a> {
        match self {
            SetRef::Uint(s) => SetRefIter::Uint(s.iter()),
            SetRef::Bits(b) => SetRefIter::Bits(b.iter()),
        }
    }

    /// Copy out the elements as a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<u32> {
        match self {
            SetRef::Uint(s) => s.to_vec(),
            SetRef::Bits(b) => b.iter().collect(),
        }
    }

    /// Payload bytes of the viewed set.
    pub fn bytes(&self) -> usize {
        match self {
            SetRef::Uint(s) => std::mem::size_of_val(*s),
            SetRef::Bits(b) => std::mem::size_of_val(b.words()),
        }
    }
}

/// Layout-polymorphic iterator over a [`SetRef`].
pub enum SetRefIter<'a> {
    /// Iterating a sorted uint slice.
    Uint(std::slice::Iter<'a, u32>),
    /// Iterating a bitset.
    Bits(BitIter<'a>),
}

impl Iterator for SetRefIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            SetRefIter::Uint(it) => it.next().copied(),
            SetRefIter::Bits(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SetRefIter::Uint(it) => it.size_hint(),
            SetRefIter::Bits(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for SetRefIter<'_> {}

/// The layout a sorted duplicate-free set of `len` values spanning
/// `[min, max]` is encoded in: the standard optimizer's choice unless
/// `forced` pins one, and always uint when empty.
fn layout_of(len: usize, min: u32, max: u32, forced: Option<Layout>) -> Layout {
    match (forced, len) {
        (_, 0) => Layout::UintArray,
        (Some(l), _) => l,
        (None, _) => choose_layout(len, min, max),
    }
}

/// The words [`encode_sorted_into`] writes for a sorted duplicate-free
/// set of `len` values spanning `[min, max]` — known without encoding it,
/// so a builder can allocate its arena exactly once.
pub fn encoded_words(len: usize, min: u32, max: u32, forced: Option<Layout>) -> usize {
    match layout_of(len, min, max, forced) {
        Layout::UintArray => 2 + len,
        Layout::Bitset => 4 + 2 * (max / WORD_BITS - min / WORD_BITS + 1) as usize,
    }
}

/// Append the encoded block of a sorted duplicate-free slice to `out`,
/// choosing the layout with the standard optimizer unless `forced` pins
/// one. Returns the number of words written.
pub fn encode_sorted_into(vals: &[u32], forced: Option<Layout>, out: &mut Vec<u32>) -> usize {
    debug_assert!(vals.windows(2).all(|w| w[0] < w[1]), "input must be strictly increasing");
    let start = out.len();
    let (min, max) = (vals.first().copied().unwrap_or(0), vals.last().copied().unwrap_or(0));
    match layout_of(vals.len(), min, max, forced) {
        Layout::UintArray => {
            out.push(TAG_UINT);
            out.push(vals.len() as u32);
            out.extend_from_slice(vals);
        }
        Layout::Bitset => {
            out.push(TAG_BITSET);
            out.push(vals.len() as u32);
            let base_word = vals[0] / WORD_BITS;
            let last_word = vals[vals.len() - 1] / WORD_BITS;
            let nwords = (last_word - base_word + 1) as usize;
            out.push(base_word);
            out.push(nwords as u32);
            let word_start = out.len();
            out.resize(word_start + nwords, 0);
            for &v in vals {
                out[word_start + (v / WORD_BITS - base_word) as usize] |= 1u32 << (v % WORD_BITS);
            }
            // Rank directory, computed from the words just written.
            let mut acc = 0u32;
            for i in 0..nwords {
                let ones = out[word_start + i].count_ones();
                out.push(acc);
                acc += ones;
            }
        }
    }
    out.len() - start
}

/// Decode the block starting at `words[0]`, returning the view and the
/// number of words the encoding occupies.
///
/// # Panics
/// Panics (via slice indexing) when `words` is not a valid encoding —
/// arena content is produced by [`encode_sorted_into`] and integrity-
/// checked (checksummed) before it is trusted; see [`validate_encoded_set`] for
/// the non-panicking structural check used at snapshot load.
#[inline]
pub fn decode_set(words: &[u32]) -> (SetRef<'_>, usize) {
    let len = words[1] as usize;
    match words[0] {
        TAG_UINT => (SetRef::Uint(&words[2..2 + len]), 2 + len),
        TAG_BITSET => {
            let base_word = words[2];
            let nwords = words[3] as usize;
            let payload = &words[4..4 + 2 * nwords];
            (
                SetRef::Bits(BitsRef::new(
                    base_word,
                    &payload[..nwords],
                    &payload[nwords..],
                    len as u32,
                )),
                4 + 2 * nwords,
            )
        }
        tag => panic!("corrupt frozen set: unknown tag {tag}"),
    }
}

/// Structurally validate the block at `words[0]`: bounds, tag,
/// element count, sortedness (uint) / rank-directory consistency (bitset).
/// Returns `(encoded length, cardinality)`, or `None` when the bytes are
/// not a valid encoding — the defence that turns a corrupt-but-
/// checksum-valid snapshot into an `Err` instead of a later panic.
pub fn validate_encoded_set(words: &[u32]) -> Option<(usize, usize)> {
    if words.len() < 2 {
        return None;
    }
    let len = words[1] as usize;
    match words[0] {
        TAG_UINT => {
            let vals = words.get(2..2 + len)?;
            if !vals.windows(2).all(|w| w[0] < w[1]) {
                return None;
            }
            Some((2 + len, len))
        }
        TAG_BITSET => {
            let base_word = *words.get(2)? as u64;
            let nwords = *words.get(3)? as usize;
            if nwords == 0 {
                return None;
            }
            // The largest representable element must fit in u32, or later
            // navigation arithmetic ((base + i) * 32) would overflow.
            if (base_word + nwords as u64) * WORD_BITS as u64 - 1 > u32::MAX as u64 {
                return None;
            }
            let payload = words.get(4..4 + 2 * nwords)?;
            let (bits, ranks) = payload.split_at(nwords);
            let mut acc = 0u32;
            for (w, &r) in bits.iter().zip(ranks) {
                if r != acc {
                    return None;
                }
                acc += w.count_ones();
            }
            if acc as usize != len {
                return None;
            }
            Some((4 + 2 * nwords, len))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{block, view};

    const LAYOUTS: [Layout; 2] = [Layout::UintArray, Layout::Bitset];

    #[test]
    fn views_agree_with_the_encoded_values_in_both_layouts() {
        let vals = [3u32, 31, 32, 64, 65, 127, 128, 300];
        for layout in LAYOUTS {
            let words = block(&vals, layout);
            let r = view(&words);
            assert_eq!(r.layout(), layout);
            assert_eq!(r.len(), vals.len());
            assert!(!r.is_empty());
            assert_eq!(r.to_vec(), vals);
            assert_eq!(r.iter().len(), vals.len(), "exact size hint");
            assert_eq!((r.min(), r.max()), (Some(3), Some(300)));
            for probe in 0..400u32 {
                let rank = vals.binary_search(&probe).ok();
                assert_eq!(r.contains(probe), rank.is_some(), "contains {probe}");
                assert_eq!(r.rank(probe), rank, "rank {probe}");
            }
            assert!(!r.contains(100_000), "above the extent");
        }
    }

    #[test]
    fn bitset_block_is_offset_by_its_first_word() {
        // A dense cluster far from zero costs one payload word, not 200.
        let words = block(&[6400, 6401], Layout::Bitset);
        assert_eq!(words, vec![TAG_BITSET, 2, 200, 1, 0b11, 0]);
        let r = view(&words);
        assert_eq!(r.bytes(), 4);
        assert!(!r.contains(0), "below the base word");
        assert_eq!(r.rank(6399), None);
        assert_eq!(r.to_vec(), vec![6400, 6401]);
    }

    #[test]
    fn frozen_roundtrip_both_layouts() {
        let vals = [0u32, 5, 31, 32, 200, 4096];
        for forced in [Some(Layout::UintArray), Some(Layout::Bitset), None] {
            let mut arena = vec![0xdead_beef]; // offset != 0 start
            let written = encode_sorted_into(&vals, forced, &mut arena);
            let (r, consumed) = decode_set(&arena[1..]);
            assert_eq!(consumed, written);
            assert_eq!(r.to_vec(), vals);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(r.rank(v), Some(i));
            }
            assert_eq!(validate_encoded_set(&arena[1..]), Some((written, vals.len())));
        }
    }

    #[test]
    fn encoded_words_predicts_every_encoding() {
        let sets: [&[u32]; 5] = [&[], &[7], &[3, 31, 32, 64, 300], &[0, 100_000], &[6400, 6401]];
        for vals in sets {
            for forced in [None, Some(Layout::UintArray), Some(Layout::Bitset)] {
                let mut out = Vec::new();
                let written = encode_sorted_into(vals, forced, &mut out);
                let (min, max) =
                    (vals.first().copied().unwrap_or(0), vals.last().copied().unwrap_or(0));
                assert_eq!(
                    encoded_words(vals.len(), min, max, forced),
                    written,
                    "{vals:?} {forced:?}"
                );
            }
        }
    }

    #[test]
    fn optimizer_picks_the_layout_when_none_is_forced() {
        let mut out = Vec::new();
        encode_sorted_into(&(100..400).collect::<Vec<u32>>(), None, &mut out);
        assert_eq!(decode_set(&out).0.layout(), Layout::Bitset);
        out.clear();
        encode_sorted_into(&[1, 100_000, 4_000_000], None, &mut out);
        assert_eq!(decode_set(&out).0.layout(), Layout::UintArray);
    }

    #[test]
    fn empty_set_encodes_as_uint() {
        for forced in [None, Some(Layout::Bitset)] {
            let mut out = Vec::new();
            let n = encode_sorted_into(&[], forced, &mut out);
            assert_eq!(out, vec![TAG_UINT, 0]);
            let (r, consumed) = decode_set(&out);
            assert_eq!(consumed, n);
            assert!(r.is_empty());
            assert_eq!(r.iter().count(), 0);
            assert_eq!((r.min(), r.max()), (None, None));
            assert!(!r.contains(0));
        }
    }

    #[test]
    fn validate_rejects_corruption() {
        let mut out = Vec::new();
        encode_sorted_into(&(0..200).collect::<Vec<u32>>(), None, &mut out);
        assert_eq!(validate_encoded_set(&out), Some((out.len(), 200)));
        // Unknown tag.
        assert_eq!(validate_encoded_set(&[7, 0]), None);
        // Truncated payloads.
        assert_eq!(validate_encoded_set(&out[..out.len() - 1]), None);
        assert_eq!(validate_encoded_set(&[TAG_UINT, 3, 1]), None);
        // Unsorted uint payload.
        assert_eq!(validate_encoded_set(&[TAG_UINT, 2, 9, 4]), None);
        // Bitset whose rank directory disagrees with its words.
        let mut bits = block(&[0, 1, 64], Layout::Bitset);
        let last = bits.len() - 1;
        bits[last] ^= 1;
        assert_eq!(validate_encoded_set(&bits), None);
        // Bitset whose cardinality disagrees with its popcount.
        let mut bits2 = block(&[0, 1, 64], Layout::Bitset);
        bits2[1] = 9;
        assert_eq!(validate_encoded_set(&bits2), None);
        // Too short to even carry a header.
        assert_eq!(validate_encoded_set(&[TAG_UINT]), None);
        // Bitset whose base_word would overflow element arithmetic: a
        // crafted arena must be rejected up front, not wrap to aliased
        // ids during navigation.
        assert_eq!(validate_encoded_set(&[TAG_BITSET, 1, u32::MAX, 1, 1, 0]), None);
        // The largest legitimate base word still validates.
        let top = u32::MAX / WORD_BITS;
        assert_eq!(validate_encoded_set(&[TAG_BITSET, 1, top, 1, 1, 0]), Some((6, 1)));
    }
}
