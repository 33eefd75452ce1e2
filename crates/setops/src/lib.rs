//! # eh-setops
//!
//! Sets of 32-bit dictionary-encoded values in two layouts, and the
//! layout-aware operations the worst-case optimal join engine runs on
//! them, reproducing §II-A2 and §III-A of Aberger et al. (ICDE 2016).
//!
//! EmptyHeaded stores every trie level as a set in one of two layouts.
//! Here a set has **one representation**: a block of `u32` words inside
//! an arena, written by [`encode_sorted_into`] and read in place through
//! the borrowed [`SetRef`] view that [`decode_set`] returns —
//!
//! * **uint** — a sorted array of unique `u32` values. Membership is
//!   `O(log n)` binary search; intersection is merge- or galloping-based.
//! * **bitset** — an uncompressed bitset over 32-bit words, offset by the
//!   word index of the minimum element, with its rank directory.
//!   Membership and rank are `O(1)`; intersection is word-wise `AND`.
//!
//! The encoder picks the bitset "when more than one out of every 256
//! values appears in the set" (paper footnote 1: 256 is the bit-width of
//! an AVX register), else the uint array, unless the caller forces a
//! [`Layout`]. The paper reports that mixing layouts yields up to an
//! 8.22× speedup on selective queries (Table I, +Layout) — `crates/bench`
//! reproduces that ablation.
//!
//! Intersections dispatch along two axes (the "old techniques" of §IV):
//!
//! * **instruction set** — runtime-detected SSE/AVX2 kernels with a
//!   proptest-pinned byte-identical portable fallback (`simd` module,
//!   `EH_SIMD` override);
//! * **operand shape** — the multiway driver ([`intersect_all_into`])
//!   picks word-`AND` / probe-smallest / vectorized-fold from an operand
//!   census ([`MultiwayKernel`]) and writes into caller-provided
//!   [`IntersectScratch`] buffers (zero allocation in Generic-Join's
//!   inner loop); [`intersects_all_refs`] answers EXISTS shapes on the
//!   same census without materialising anything.
//!
//! ```
//! use eh_setops::{decode_set, encode_sorted_into, intersect_all_into, IntersectScratch, Layout};
//!
//! // Two sets encoded back to back into one arena.
//! let mut arena = Vec::new();
//! let dense_len = encode_sorted_into(&(0..512).collect::<Vec<u32>>(), None, &mut arena);
//! encode_sorted_into(&[3, 300, 100_000], None, &mut arena);
//! let (dense, _) = decode_set(&arena);
//! let (sparse, _) = decode_set(&arena[dense_len..]);
//! assert_eq!(dense.layout(), Layout::Bitset);
//! assert_eq!(sparse.layout(), Layout::UintArray);
//! assert!(dense.contains(300) && sparse.rank(300) == Some(1));
//!
//! let mut scratch = IntersectScratch::new();
//! assert_eq!(intersect_all_into(&[dense, sparse], &mut scratch), &[3, 300]);
//! ```

mod bitset;
mod multiway;
mod optimizer;
mod overlay;
mod simd;
mod uint;
mod view;

pub use multiway::{intersect_all_into, intersects_all_refs, IntersectScratch};
pub use optimizer::{Layout, MultiwayKernel};
pub use overlay::overlay_merge_into;
pub use view::{
    decode_set, encode_sorted_into, encoded_words, validate_encoded_set, BitsRef, SetRef,
    SetRefIter,
};

/// Test-only bookkeeping, compiled under `cfg(test)` or the `instrument`
/// feature (which downstream crates enable from *dev*-dependencies only,
/// so it never reaches a release build): process-global tallies of which
/// [`MultiwayKernel`] the driver ran, the ground truth that
/// `QueryProfile`'s per-depth kernel counts are checked against.
#[cfg(any(test, feature = "instrument"))]
pub mod instrument {
    use crate::optimizer::MultiwayKernel;
    use std::sync::atomic::{AtomicU64, Ordering};

    static KERNEL_COUNTS: [AtomicU64; 3] =
        [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

    fn slot(kernel: MultiwayKernel) -> usize {
        match kernel {
            MultiwayKernel::WordAnd => 0,
            MultiwayKernel::ProbeSmallest => 1,
            MultiwayKernel::FoldMerge => 2,
        }
    }

    /// Record one multiway-driver dispatch of `kernel` (process-global,
    /// all threads).
    pub fn note_kernel(kernel: MultiwayKernel) {
        KERNEL_COUNTS[slot(kernel)].fetch_add(1, Ordering::Relaxed);
    }

    /// Driver dispatches per kernel since the last reset, indexed
    /// `[WordAnd, ProbeSmallest, FoldMerge]`.
    pub fn kernel_counts() -> [u64; 3] {
        [
            KERNEL_COUNTS[0].load(Ordering::Relaxed),
            KERNEL_COUNTS[1].load(Ordering::Relaxed),
            KERNEL_COUNTS[2].load(Ordering::Relaxed),
        ]
    }

    /// Zero the kernel tallies. Callers comparing before/after counts
    /// must serialise against other engine activity in the process.
    pub fn reset_kernel_counts() {
        for c in &KERNEL_COUNTS {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod testing;
