//! Test support: encoded-block builders, and the pairwise-fold reference
//! the adaptive driver is pinned against.

use crate::optimizer::Layout;
use crate::view::{decode_set, encode_sorted_into, BitsRef, SetRef};

/// The encoded block of `vals` in a forced layout.
pub(crate) fn block(vals: &[u32], layout: Layout) -> Vec<u32> {
    let mut out = Vec::new();
    encode_sorted_into(vals, Some(layout), &mut out);
    out
}

/// The view over a block built by [`block`].
pub(crate) fn view(block: &[u32]) -> SetRef<'_> {
    decode_set(block).0
}

/// The blocks of `operands` (`None` = the optimizer's layout) back to
/// back in one arena, with the offset each starts at — how a trie holds
/// them. `arena_views` decodes them.
pub(crate) fn arena(operands: &[(Vec<u32>, Option<Layout>)]) -> (Vec<u32>, Vec<usize>) {
    let mut words = Vec::new();
    let offsets = operands
        .iter()
        .map(|(vals, forced)| {
            let at = words.len();
            encode_sorted_into(vals, *forced, &mut words);
            at
        })
        .collect();
    (words, offsets)
}

/// The views over an [`arena`].
pub(crate) fn arena_views<'a>(words: &'a [u32], offsets: &[usize]) -> Vec<SetRef<'a>> {
    offsets.iter().map(|&at| decode_set(&words[at..]).0).collect()
}

/// The reference multiway intersection: a pairwise fold over plain
/// `Vec<u32>`s, smallest operand first, on private scalar kernels
/// (element-wise merge, exponential-seek gallop past a ratio of 32,
/// word-at-a-time `AND`). It deliberately shares no code with the
/// kernels under test — a bug in the crate's `gallop_seek` or word-`AND`
/// must not corrupt both sides identically.
pub(crate) fn intersect_all_refs_fold(sets: &[SetRef<'_>]) -> Option<Vec<u32>> {
    let mut order: Vec<SetRef<'_>> = sets.to_vec();
    order.sort_by_key(|s| s.len());
    match order.len() {
        0 => None,
        1 => Some(order[0].to_vec()),
        _ => {
            let mut acc = pair_scalar(order[0], order[1]);
            for s in &order[2..] {
                if acc.is_empty() {
                    break;
                }
                acc = pair_scalar(SetRef::Uint(&acc), *s);
            }
            Some(acc)
        }
    }
}

/// The pre-SIMD gallop crossover.
const GALLOP_RATIO: usize = 32;

fn pair_scalar(a: SetRef<'_>, b: SetRef<'_>) -> Vec<u32> {
    match (a, b) {
        (SetRef::Uint(x), SetRef::Uint(y)) => {
            let (small, large) = if x.len() <= y.len() { (x, y) } else { (y, x) };
            let mut out = Vec::new();
            if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
                gallop_scalar(small, large, &mut out);
            } else {
                merge_scalar(x, y, &mut out);
            }
            out
        }
        (SetRef::Bits(x), SetRef::Bits(y)) => and_scalar(x, y),
        (SetRef::Uint(x), SetRef::Bits(y)) | (SetRef::Bits(y), SetRef::Uint(x)) => {
            x.iter().copied().filter(|&v| y.contains(v)).collect()
        }
    }
}

fn merge_scalar(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn gallop_seek_scalar(list: &[u32], lo: usize, v: u32) -> usize {
    let mut step = 1usize;
    let mut prev = lo;
    let mut probe = lo;
    while probe < list.len() && list[probe] < v {
        prev = probe + 1;
        probe += step;
        step <<= 1;
    }
    let hi = probe.min(list.len());
    prev + list[prev..hi].partition_point(|&x| x < v)
}

fn gallop_scalar(small: &[u32], large: &[u32], out: &mut Vec<u32>) {
    let mut lo = 0usize;
    for &v in small {
        if lo >= large.len() {
            break;
        }
        let idx = gallop_seek_scalar(large, lo, v);
        if idx < large.len() && large[idx] == v {
            out.push(v);
            lo = idx + 1;
        } else {
            lo = idx;
        }
    }
}

fn and_scalar(a: BitsRef<'_>, b: BitsRef<'_>) -> Vec<u32> {
    let lo = a.base_word().max(b.base_word());
    let hi = (a.base_word() + a.words().len() as u32).min(b.base_word() + b.words().len() as u32);
    let mut out = Vec::new();
    for w in lo..hi {
        let mut word =
            a.words()[(w - a.base_word()) as usize] & b.words()[(w - b.base_word()) as usize];
        while word != 0 {
            out.push(w * 32 + word.trailing_zeros());
            word &= word - 1;
        }
    }
    out
}
