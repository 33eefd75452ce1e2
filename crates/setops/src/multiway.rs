//! The adaptive k-way intersection driver — Generic-Join's hottest loop.
//!
//! Every unselected attribute of a worst-case optimal join binds to the
//! multiway intersection of its participants' current trie sets, each a
//! [`SetRef`] view decoded in place from an arena. A pairwise fold would
//! allocate an intermediate per operand in the inner loop — exactly the
//! costs the paper's §IV kernels engineer away — so the driver has:
//!
//! * **kernel selection** by the [`choose_multiway`] cost model
//!   (operand census → [`MultiwayKernel`]):
//!   - all bitsets → one-pass k-way SIMD word `AND` over the shared
//!     extent;
//!   - skewed or mixed layouts → leapfrog-style probing of the smallest
//!     operand with monotone galloping cursors;
//!   - balanced all-uint → pairwise vectorized merges ping-ponging
//!     between two scratch buffers;
//! * **caller-provided scratch** ([`IntersectScratch`]) so the steady
//!   state performs zero heap allocation per intersection — the join
//!   executor keeps one scratch per depth per morsel;
//! * an **EXISTS path** ([`intersects_all_refs`]) on the same census that
//!   stops at the first witness and touches no buffer at all.
//!
//! All kernels produce the identical sorted value sequence (pinned
//! against a scalar pairwise fold by proptest), so parallel/sequential
//! byte-identity of join results is preserved.

use crate::optimizer::{choose_multiway, MultiwayKernel};
use crate::simd::{and_words_k_any, and_words_k_into};
use crate::uint::{gallop_seek, intersect_uint};
use crate::view::SetRef;

/// Operand count the driver handles with stack-resident cursors and
/// window tables; wider intersections (which Generic-Join over RDF never
/// produces — arity tops out at the query's atom count) fall back to a
/// heap-allocated path.
const INLINE_K: usize = 8;

/// Reusable buffers for the multiway driver. One scratch serves any
/// number of sequential intersections; the executor keeps one per join
/// depth per morsel so nested intersections never alias. Deliberately
/// not `Clone`: the buffers are transient kernel state, not data —
/// forking call sites (e.g. the executor's per-morsel state split)
/// construct fresh scratches instead.
#[derive(Debug, Default)]
pub struct IntersectScratch {
    /// Final result values, sorted ascending.
    out: Vec<u32>,
    /// Pong buffer for pairwise folds.
    tmp: Vec<u32>,
    /// Word buffer for the k-way bitset `AND`.
    words: Vec<u32>,
    /// Kernel dispatched by the most recent drive, if one ran.
    last_kernel: Option<MultiwayKernel>,
}

impl IntersectScratch {
    /// A scratch with empty buffers (they grow to the high-water mark of
    /// the intersections driven through them).
    pub fn new() -> IntersectScratch {
        IntersectScratch::default()
    }

    /// The values produced by the most recent [`intersect_all_into`].
    #[inline]
    pub fn values(&self) -> &[u32] {
        &self.out
    }

    /// The kernel the most recent [`intersect_all_into`] dispatched, or
    /// `None` when the driver short-circuited without running one
    /// (arity < 2 or an empty smallest operand). This is the executor's
    /// truthful per-intersection provenance: it reports what actually
    /// ran, set by the driver itself at dispatch.
    #[inline]
    pub fn last_kernel(&self) -> Option<MultiwayKernel> {
        self.last_kernel
    }
}

/// Multiway intersection into caller-provided scratch: the sorted result
/// values are returned as a slice borrowed from `scratch` (also readable
/// afterwards via [`IntersectScratch::values`]). Performs no heap
/// allocation once the scratch buffers have grown to workload size.
///
/// An empty `sets` produces an empty result (there is no universe to
/// return); Generic-Join callers always pass at least one operand.
pub fn intersect_all_into<'s>(sets: &[SetRef<'_>], scratch: &'s mut IntersectScratch) -> &'s [u32] {
    scratch.out.clear();
    scratch.last_kernel = None;
    match sets.len() {
        0 => {}
        1 => scratch.out.extend(sets[0].iter()),
        _ => drive(sets, scratch),
    }
    &scratch.out
}

/// Operand census: index of the smallest operand, largest cardinality,
/// and number of bitset operands.
fn census(sets: &[SetRef<'_>]) -> (usize, usize, usize) {
    let mut smallest = 0usize;
    let mut largest = 0usize;
    let mut num_bits = 0usize;
    for (i, s) in sets.iter().enumerate() {
        if s.len() < sets[smallest].len() {
            smallest = i;
        }
        largest = largest.max(s.len());
        if matches!(s, SetRef::Bits(_)) {
            num_bits += 1;
        }
    }
    (smallest, largest, num_bits)
}

fn drive(sets: &[SetRef<'_>], scratch: &mut IntersectScratch) {
    let (smallest, largest, num_bits) = census(sets);
    let smallest_len = sets[smallest].len();
    if smallest_len == 0 {
        return;
    }
    let kernel = choose_multiway(smallest_len, largest, num_bits, sets.len());
    scratch.last_kernel = Some(kernel);
    #[cfg(any(test, feature = "instrument"))]
    crate::instrument::note_kernel(kernel);
    match kernel {
        MultiwayKernel::WordAnd => word_and_into(sets, scratch),
        MultiwayKernel::ProbeSmallest => probe_smallest_into(sets, smallest, &mut scratch.out),
        MultiwayKernel::FoldMerge => fold_merge_into(sets, scratch),
    }
}

/// Run `f` over the operands' aligned word windows on the shared extent
/// (first shared word index, equal-length slices), or return `default`
/// when the extents are disjoint. Windows live in a stack table for
/// arity ≤ [`INLINE_K`]. All operands must be bitsets.
fn with_bit_windows<'a, R>(
    sets: &[SetRef<'a>],
    default: R,
    f: impl FnOnce(u32, &[&[u32]]) -> R,
) -> R {
    fn bits<'a>(s: &SetRef<'a>) -> crate::view::BitsRef<'a> {
        match *s {
            SetRef::Bits(b) => b,
            SetRef::Uint(_) => unreachable!("word-AND kernel requires all-bitset operands"),
        }
    }
    let mut lo = 0u32;
    let mut hi = u32::MAX;
    for s in sets {
        let b = bits(s);
        lo = lo.max(b.base_word());
        hi = hi.min(b.base_word() + b.words().len() as u32);
    }
    if lo >= hi {
        return default;
    }
    let n = (hi - lo) as usize;
    let window = |s: &SetRef<'a>| -> &'a [u32] {
        let b = bits(s);
        &b.words()[(lo - b.base_word()) as usize..][..n]
    };
    let mut table: [&[u32]; INLINE_K] = [&[]; INLINE_K];
    let heap: Vec<&[u32]>;
    let windows: &[&[u32]] = if sets.len() <= INLINE_K {
        for (slot, s) in table.iter_mut().zip(sets) {
            *slot = window(s);
        }
        &table[..sets.len()]
    } else {
        heap = sets.iter().map(window).collect();
        &heap
    };
    f(lo, windows)
}

/// k-way word `AND` over the shared extent, decoded into sorted values.
fn word_and_into(sets: &[SetRef<'_>], scratch: &mut IntersectScratch) {
    let IntersectScratch { out, words, .. } = scratch;
    with_bit_windows(sets, (), |lo, windows| {
        let count = and_words_k_into(windows, words);
        if count == 0 {
            return;
        }
        out.reserve(count);
        for (wi, &w) in words.iter().enumerate() {
            let mut w = w;
            let base = (lo + wi as u32) * crate::bitset::WORD_BITS;
            while w != 0 {
                out.push(base + w.trailing_zeros());
                w &= w - 1;
            }
        }
    });
}

/// Leapfrog-style probe driver: iterate the smallest operand, checking
/// each element against every other operand — O(1) bitset probes,
/// monotone galloping cursors for uint operands (stack-resident for
/// arity ≤ [`INLINE_K`]). `sink` receives each surviving value and
/// returns `false` to stop early; the driver also stops as soon as any
/// uint cursor runs off its slice (no further value can match).
///
/// The single source of the cursor-advance rules — the materialising
/// and existence kernels below differ only in their sink and monomorphize
/// to the same tight loop.
fn probe_smallest(sets: &[SetRef<'_>], smallest: usize, sink: &mut impl FnMut(u32) -> bool) {
    let mut inline_cursors = [0usize; INLINE_K];
    let mut heap_cursors: Vec<usize>;
    let cursors: &mut [usize] = if sets.len() <= INLINE_K {
        &mut inline_cursors[..sets.len()]
    } else {
        heap_cursors = vec![0usize; sets.len()];
        &mut heap_cursors
    };
    'vals: for v in sets[smallest].iter() {
        for (idx, s) in sets.iter().enumerate() {
            if idx == smallest {
                continue;
            }
            match s {
                SetRef::Bits(b) => {
                    if !b.contains(v) {
                        continue 'vals;
                    }
                }
                SetRef::Uint(u) => {
                    let c = gallop_seek(u, cursors[idx], v);
                    if c >= u.len() {
                        return; // no further value can appear in u
                    }
                    cursors[idx] = c;
                    if u[c] != v {
                        continue 'vals;
                    }
                    cursors[idx] = c + 1;
                }
            }
        }
        if !sink(v) {
            return;
        }
    }
}

fn probe_smallest_into(sets: &[SetRef<'_>], smallest: usize, out: &mut Vec<u32>) {
    probe_smallest(sets, smallest, &mut |v| {
        out.push(v);
        true
    });
}

fn probe_smallest_any(sets: &[SetRef<'_>], smallest: usize) -> bool {
    let mut found = false;
    probe_smallest(sets, smallest, &mut |_| {
        found = true;
        false // first witness suffices
    });
    found
}

/// Pairwise vectorized merges, smallest operands first, ping-ponging
/// between the scratch `out`/`tmp` buffers. All operands are uint arrays
/// (guaranteed by [`choose_multiway`]).
fn fold_merge_into(sets: &[SetRef<'_>], scratch: &mut IntersectScratch) {
    let mut inline_order: [(usize, usize); INLINE_K] = [(0, 0); INLINE_K];
    let mut heap_order: Vec<(usize, usize)>;
    let order: &mut [(usize, usize)] = if sets.len() <= INLINE_K {
        for (slot, (i, s)) in inline_order.iter_mut().zip(sets.iter().enumerate()) {
            *slot = (s.len(), i);
        }
        &mut inline_order[..sets.len()]
    } else {
        heap_order = sets.iter().enumerate().map(|(i, s)| (s.len(), i)).collect();
        &mut heap_order
    };
    order.sort_unstable();
    let slice = |i: usize| match sets[order[i].1] {
        SetRef::Uint(u) => u,
        SetRef::Bits(_) => unreachable!("fold-merge kernel requires all-uint operands"),
    };
    intersect_uint(slice(0), slice(1), &mut scratch.out);
    for i in 2..order.len() {
        if scratch.out.is_empty() {
            return;
        }
        std::mem::swap(&mut scratch.out, &mut scratch.tmp);
        scratch.out.clear();
        intersect_uint(&scratch.tmp, slice(i), &mut scratch.out);
    }
}

/// True when the multiway intersection is non-empty, with early exit and
/// zero materialisation — the EXISTS path Generic-Join's trailing
/// existence checks use. An empty `sets` returns `false`, mirroring
/// [`intersect_all_into`] (no universe to return).
pub fn intersects_all_refs(sets: &[SetRef<'_>]) -> bool {
    match sets.len() {
        0 => false,
        1 => !sets[0].is_empty(),
        _ => {
            let (smallest, _, num_bits) = census(sets);
            if sets[smallest].is_empty() {
                return false;
            }
            if num_bits == sets.len() {
                return with_bit_windows(sets, false, |_, windows| and_words_k_any(windows));
            }
            probe_smallest_any(sets, smallest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument;
    use crate::optimizer::Layout;
    use crate::testing::{block, intersect_all_refs_fold, view};

    fn check_all(blocks: &[Vec<u32>], expect: &[u32]) {
        let refs: Vec<SetRef<'_>> = blocks.iter().map(|b| view(b)).collect();
        let mut scratch = IntersectScratch::new();
        assert_eq!(intersect_all_into(&refs, &mut scratch), expect);
        // Scratch reuse: driving again through the same scratch is stable.
        assert_eq!(intersect_all_into(&refs, &mut scratch), expect);
        assert_eq!(intersects_all_refs(&refs), !expect.is_empty());
        assert_eq!(intersect_all_refs_fold(&refs).unwrap(), expect, "fold reference diverged");
    }

    #[test]
    fn all_kernels_agree_on_layout_mixes() {
        let a: Vec<u32> = (0..600).step_by(2).collect();
        let b: Vec<u32> = (0..600).step_by(3).collect();
        let c: Vec<u32> = (0..600).step_by(5).collect();
        let expect: Vec<u32> = (0..600).step_by(30).collect();
        for la in [Layout::UintArray, Layout::Bitset] {
            for lb in [Layout::UintArray, Layout::Bitset] {
                for lc in [Layout::UintArray, Layout::Bitset] {
                    check_all(&[block(&a, la), block(&b, lb), block(&c, lc)], &expect);
                }
            }
        }
    }

    #[test]
    fn skewed_probe_path() {
        let tiny = vec![3u32, 9_000, 54_321, 400_000];
        let large: Vec<u32> = (0..500_000).step_by(3).collect();
        let large2: Vec<u32> = (0..500_000).filter(|v| v % 9 != 1).collect();
        let expect: Vec<u32> = tiny.iter().copied().filter(|v| v % 3 == 0 && v % 9 != 1).collect();
        check_all(
            &[
                block(&tiny, Layout::UintArray),
                block(&large, Layout::UintArray),
                block(&large2, Layout::UintArray),
            ],
            &expect,
        );
    }

    #[test]
    fn probe_cursor_runoff_terminates_early() {
        // The large operand ends before the driver's later values: the
        // probe must stop cleanly, not scan past the end.
        let small = vec![1u32, 2, 1_000_000];
        let big: Vec<u32> = (0..2_000).collect();
        let other: Vec<u32> = (0..3_000).collect();
        check_all(
            &[
                block(&small, Layout::UintArray),
                block(&big, Layout::UintArray),
                block(&other, Layout::UintArray),
            ],
            &[1, 2],
        );
    }

    #[test]
    fn skewed_uint_pair_in_both_argument_orders() {
        // Two operands take the same census → probe route as three: a
        // 3-element leaf against a million-element one (Generic-Join's
        // trailing EXISTS at the final depth) is three galloping seeks,
        // whichever side the small operand is on.
        let large: Vec<u32> = (0..1_000_000).map(|v| v * 2).collect();
        let hits = [10u32, 777_776, 1_999_998];
        let misses = [11u32, 777_777, 1_999_999];
        let beyond = [2_000_001u32, 3_000_000, 4_000_000];
        let first_only = [0u32, 5, 7];
        for (small, expect) in
            [(hits, &hits[..]), (misses, &[]), (beyond, &[]), (first_only, &first_only[..1])]
        {
            let (s, l) = (SetRef::Uint(&small), SetRef::Uint(&large));
            let mut scratch = IntersectScratch::new();
            for pair in [[s, l], [l, s]] {
                assert_eq!(intersects_all_refs(&pair), !expect.is_empty(), "{small:?}");
                assert_eq!(intersect_all_into(&pair, &mut scratch), expect, "{small:?}");
            }
        }
    }

    #[test]
    fn bitset_extent_disjoint() {
        let lo: Vec<u32> = (0..300).collect();
        let hi: Vec<u32> = (100_000..100_300).collect();
        let mid: Vec<u32> = (0..200_000).step_by(64).collect();
        check_all(&[block(&lo, Layout::Bitset), block(&hi, Layout::Bitset)], &[]);
        check_all(
            &[block(&lo, Layout::Bitset), block(&hi, Layout::Bitset), block(&mid, Layout::Bitset)],
            &[],
        );
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut scratch = IntersectScratch::new();
        assert!(intersect_all_into(&[], &mut scratch).is_empty());
        assert!(!intersects_all_refs(&[]));
        let s = SetRef::Uint(&[7, 8]);
        assert_eq!(intersect_all_into(&[s], &mut scratch), &[7, 8]);
        assert!(intersects_all_refs(&[s]));
        let e = SetRef::Uint(&[]);
        assert!(!intersects_all_refs(&[e]));
        assert!(intersect_all_into(&[s, e, s], &mut scratch).is_empty());
        assert!(!intersects_all_refs(&[s, e, s]));
        assert!(!intersects_all_refs(&[e, s]));
    }

    #[test]
    fn last_kernel_reports_what_drove() {
        let mut scratch = IntersectScratch::new();
        let dense = block(&(0..512).collect::<Vec<u32>>(), Layout::Bitset);
        let sparse = SetRef::Uint(&[3, 300, 100_000]);
        intersect_all_into(&[view(&dense), view(&dense)], &mut scratch);
        assert_eq!(scratch.last_kernel(), Some(MultiwayKernel::WordAnd));
        intersect_all_into(&[sparse, view(&dense)], &mut scratch);
        assert_eq!(scratch.last_kernel(), Some(MultiwayKernel::ProbeSmallest));
        // Short circuits report no kernel.
        intersect_all_into(&[sparse], &mut scratch);
        assert_eq!(scratch.last_kernel(), None);
        intersect_all_into(&[SetRef::Uint(&[]), sparse], &mut scratch);
        assert_eq!(scratch.last_kernel(), None);
    }

    #[test]
    fn kernel_tallies_count_dispatches() {
        let a = block(&(0..256).collect::<Vec<u32>>(), Layout::Bitset);
        let refs = [view(&a), view(&a)];
        let mut scratch = IntersectScratch::new();
        let before = instrument::kernel_counts();
        intersect_all_into(&refs, &mut scratch);
        intersect_all_into(&refs, &mut scratch);
        let after = instrument::kernel_counts();
        assert_eq!(after[0] - before[0], 2, "two WordAnd dispatches");
    }

    #[test]
    fn values_reflect_latest_drive() {
        let mut scratch = IntersectScratch::new();
        let s = SetRef::Uint(&[1, 2, 3]);
        intersect_all_into(&[s, s], &mut scratch);
        assert_eq!(scratch.values(), &[1, 2, 3]);
        intersect_all_into(&[s, SetRef::Uint(&[2, 9])], &mut scratch);
        assert_eq!(scratch.values(), &[2]);
    }
}
