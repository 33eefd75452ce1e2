//! Kernels over the sorted unsigned-integer-array layout (paper §II-A2):
//! EmptyHeaded's default layout is a sorted array of unique `u32`s —
//! compact for sparse sets, `O(log n)` membership by binary search, and
//! merge or galloping intersection.

use crate::optimizer::{choose_uint_strategy, UintStrategy};
use crate::simd::intersect_merge_v;

/// Merge-based intersection of two sorted slices, appending to `out` —
/// the scalar reference the vectorized kernels are checked against.
#[cfg(test)]
pub(crate) fn intersect_merge(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping seek: the first index `>= lo` in the sorted slice `list`
/// whose value is `>= v`. Exponential probe from `lo`, then a binary
/// search over the final window — `O(log d)` in the distance `d`
/// advanced, so a monotone sequence of seeks (the multiway probe
/// driver's cursors) stays linear overall. (A block-linear pre-phase was
/// measured against this on the since-retired `setops_kernels`
/// microbench and lost.)
pub(crate) fn gallop_seek(list: &[u32], lo: usize, v: u32) -> usize {
    // Find a window [prev, hi) with list[prev - 1] < v and
    // (hi == len or list[hi] >= v).
    let mut step = 1usize;
    let mut prev = lo;
    let mut probe = lo;
    while probe < list.len() && list[probe] < v {
        prev = probe + 1;
        probe += step;
        step <<= 1;
    }
    let hi = probe.min(list.len());
    // First index in [prev, hi) not below v; list[hi] >= v when in
    // range, so this is the global partition point for v.
    prev + list[prev..hi].partition_point(|&x| x < v)
}

/// Galloping (exponential-search) intersection for skewed cardinalities:
/// for each element of the smaller slice, gallop through the larger one.
/// `O(|small| * log |large|)` — asymptotically better than merging when
/// `|small| << |large|`.
pub(crate) fn intersect_gallop(small: &[u32], large: &[u32], out: &mut Vec<u32>) {
    let mut lo = 0usize;
    for &v in small {
        if lo >= large.len() {
            break;
        }
        let idx = gallop_seek(large, lo, v);
        if idx < large.len() && large[idx] == v {
            out.push(v);
            lo = idx + 1;
        } else {
            lo = idx;
        }
    }
}

/// Layout-internal intersection of two sorted slices with automatic
/// merge/gallop strategy selection ([`choose_uint_strategy`], using the
/// measured [`crate::optimizer::GALLOP_SKEW`] threshold). The merge arm
/// is the runtime-dispatched SIMD kernel.
pub(crate) fn intersect_uint(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    match choose_uint_strategy(small.len(), large.len()) {
        UintStrategy::Gallop => intersect_gallop(small, large, out),
        UintStrategy::Merge => intersect_merge_v(a, b, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_intersection_basic() {
        let mut out = vec![];
        intersect_merge(&[1, 2, 3, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![2, 3, 7]);
    }

    #[test]
    fn gallop_matches_merge() {
        let small: Vec<u32> = vec![10, 500, 900, 901, 100_000];
        let large: Vec<u32> = (0..1000).map(|x| x * 3).collect();
        let (mut a, mut b) = (vec![], vec![]);
        intersect_merge(&small, &large, &mut a);
        intersect_gallop(&small, &large, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn gallop_match_at_probe_boundary() {
        // Regression: the exponential probe stops at the first index with
        // large[hi] >= v; when large[hi] == v the match must still be
        // found (a previous version excluded index hi from the search
        // window and silently dropped such matches).
        let mut out = vec![];
        intersect_gallop(&[0], &[0, 1, 2], &mut out);
        assert_eq!(out, vec![0]);
        out.clear();
        // v lands exactly on the probe positions 1, 3, 7, ...
        let large: Vec<u32> = (0..100).collect();
        intersect_gallop(&[1, 3, 7, 15, 31, 63], &large, &mut out);
        assert_eq!(out, vec![1, 3, 7, 15, 31, 63]);
        out.clear();
        // Dense equal slices through the gallop path directly.
        intersect_gallop(&large, &large, &mut out);
        assert_eq!(out, large);
    }

    #[test]
    fn gallop_handles_leading_and_trailing_misses() {
        let mut out = vec![];
        intersect_gallop(&[0, 99], &[1, 2, 3], &mut out);
        assert!(out.is_empty());
        out.clear();
        intersect_gallop(&[3], &[1, 2, 3], &mut out);
        assert_eq!(out, vec![3]);
    }

    #[test]
    fn intersect_uint_dispatches_both_paths() {
        // Skewed: takes the gallop path.
        let small = vec![4, 64, 640];
        let large: Vec<u32> = (0..10_000).collect();
        let mut out = vec![];
        intersect_uint(&small, &large, &mut out);
        assert_eq!(out, vec![4, 64, 640]);
        // Balanced: merge path.
        let mut out2 = vec![];
        intersect_uint(&[1, 2, 3], &[2, 3, 4], &mut out2);
        assert_eq!(out2, vec![2, 3]);
    }

    #[test]
    fn gallop_seek_partition_points() {
        let list: Vec<u32> = (0..100).map(|x| x * 3).collect();
        assert_eq!(gallop_seek(&list, 0, 0), 0);
        assert_eq!(gallop_seek(&list, 0, 1), 1);
        assert_eq!(gallop_seek(&list, 0, 297), 99);
        assert_eq!(gallop_seek(&list, 0, 298), 100);
        // Seeks from an advanced cursor never look backwards.
        assert_eq!(gallop_seek(&list, 50, 3), 50);
    }
}
