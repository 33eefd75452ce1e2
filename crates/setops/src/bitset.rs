//! Bitset payload words (paper §II-A2): a `TAG_BITSET` block stores an
//! uncompressed bitset over **32-bit words**, covering the word-aligned
//! range `[32*base_word, 32*(base_word + words.len()))`. The offset keeps
//! dense clusters far from zero compact, which matters for dictionary-
//! encoded RDF data where each predicate's ids are clustered.

/// Bits per payload word.
pub(crate) const WORD_BITS: u32 = 32;

/// Iterator over the elements of a [`BitsRef`](crate::BitsRef) in
/// increasing order.
pub struct BitIter<'a> {
    pub(crate) words: &'a [u32],
    pub(crate) base_word: u32,
    pub(crate) word_idx: usize,
    pub(crate) current: u32,
    pub(crate) remaining: usize,
}

impl Iterator for BitIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros();
        self.current &= self.current - 1; // clear lowest set bit
        self.remaining -= 1;
        Some((self.base_word + self.word_idx as u32) * WORD_BITS + bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BitIter<'_> {}
