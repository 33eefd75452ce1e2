//! The automatic set-layout optimizer (paper §II-A2).
//!
//! EmptyHeaded "chooses the layout for each set in isolation based on its
//! cardinality and range. The optimizer chooses the bitset layout when more
//! than one out of every 256 values appears in the set. It otherwise
//! defaults to the unsigned integer array layout."

/// Density denominator from the paper (footnote 1: "the size of an AVX
/// register"). A set over range `r` with cardinality `c` becomes a bitset
/// when `c * DENSITY_THRESHOLD >= r`.
pub(crate) const DENSITY_THRESHOLD: u64 = 256;

/// The physical layout of an encoded set block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Sorted array of unique 32-bit unsigned integers.
    UintArray,
    /// Word-aligned uncompressed bitset over the value range.
    Bitset,
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layout::UintArray => write!(f, "uint"),
            Layout::Bitset => write!(f, "bitset"),
        }
    }
}

/// Pick the layout for a set with `cardinality` elements spanning the
/// inclusive value range `[min, max]`.
///
/// Empty and singleton sets stay as uint arrays (a bitset buys nothing).
pub(crate) fn choose_layout(cardinality: usize, min: u32, max: u32) -> Layout {
    if cardinality <= 1 {
        return Layout::UintArray;
    }
    debug_assert!(min <= max);
    let range = u64::from(max - min) + 1;
    if (cardinality as u64).saturating_mul(DENSITY_THRESHOLD) >= range {
        Layout::Bitset
    } else {
        Layout::UintArray
    }
}

/// Skew ratio (`|large| / |small|`) at which galloping replaces the
/// vectorized merge for a uint ∩ uint pair.
///
/// Measured on the CI-class x86_64 machine with the since-retired
/// `setops_kernels` microbench: the SIMD merge processes ~4 elements per
/// compare, so the crossover sits far below the pre-SIMD value of 32 —
/// galloping wins as soon as the smaller side can skip more than a cache
/// line of the larger side per element. 8 is the measured break-even,
/// rounded to a power of two.
pub(crate) const GALLOP_SKEW: usize = 8;

/// Pairwise sorted-array intersection strategy (see [`choose_uint_strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UintStrategy {
    /// Linear merge (vectorized cyclic-compare kernel where available).
    Merge,
    /// Exponential-search galloping driven by the smaller operand.
    Gallop,
}

/// Pick the kernel for a uint ∩ uint pair from the two cardinalities.
pub(crate) fn choose_uint_strategy(a_len: usize, b_len: usize) -> UintStrategy {
    let (small, large) = if a_len <= b_len { (a_len, b_len) } else { (b_len, a_len) };
    if small.saturating_mul(GALLOP_SKEW) < large {
        UintStrategy::Gallop
    } else {
        UintStrategy::Merge
    }
}

/// Skew ratio at which the multiway driver abandons pairwise folding for
/// probing every element of the smallest operand against the rest.
///
/// Folding touches every element of both operands of every pair; probing
/// touches `|smallest| * (k-1)` cursor advances. Measured with the
/// since-retired `setops_kernels` microbench the probe pays for its
/// per-element galloping once the largest operand is ~8x the smallest.
pub(crate) const MULTIWAY_PROBE_SKEW: usize = 8;

/// Kernel the multiway driver selects for a k-way intersection (the
/// `choose_multiway` cost model over the operand census).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiwayKernel {
    /// All operands are bitsets: one-pass k-way word `AND` over the
    /// shared extent (SIMD where available), no intermediates.
    WordAnd,
    /// Iterate the smallest operand, galloping/probing the others with
    /// monotone cursors (leapfrog-style) — for skewed or mixed-layout
    /// inputs.
    ProbeSmallest,
    /// Pairwise vectorized merges, smallest first, ping-ponging between
    /// two scratch buffers — for balanced all-uint inputs.
    FoldMerge,
}

/// Pick the multiway kernel from the operand census: smallest/largest
/// cardinality, how many operands are bitsets, and the arity.
pub(crate) fn choose_multiway(
    smallest: usize,
    largest: usize,
    num_bitsets: usize,
    arity: usize,
) -> MultiwayKernel {
    debug_assert!(num_bitsets <= arity && arity >= 2);
    if num_bitsets == arity {
        return MultiwayKernel::WordAnd;
    }
    if num_bitsets > 0 || smallest.saturating_mul(MULTIWAY_PROBE_SKEW) < largest {
        // Mixed layouts always probe: bitset membership is O(1), so the
        // smallest operand's elements are the only work there is.
        return MultiwayKernel::ProbeSmallest;
    }
    MultiwayKernel::FoldMerge
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton_are_uint() {
        assert_eq!(choose_layout(0, 0, 0), Layout::UintArray);
        assert_eq!(choose_layout(1, 42, 42), Layout::UintArray);
    }

    #[test]
    fn fully_dense_is_bitset() {
        assert_eq!(choose_layout(100, 0, 99), Layout::Bitset);
    }

    #[test]
    fn threshold_boundary() {
        // Exactly 1 in 256 appears: bitset (the paper says "more than one
        // out of every 256", we take >= as the inclusive boundary).
        assert_eq!(choose_layout(4, 0, 1023), Layout::Bitset);
        // Just below the density cut-off: uint array.
        assert_eq!(choose_layout(4, 0, 1024), Layout::UintArray);
    }

    #[test]
    fn offset_range_counts_from_min() {
        // Dense cluster far from zero must still become a bitset: the
        // range is measured from the set minimum, not from zero.
        assert_eq!(choose_layout(128, 1_000_000, 1_000_127), Layout::Bitset);
    }

    #[test]
    fn huge_range_no_overflow() {
        assert_eq!(choose_layout(usize::MAX, 0, u32::MAX), Layout::Bitset);
    }

    #[test]
    fn uint_strategy_threshold() {
        assert_eq!(choose_uint_strategy(100, 100), UintStrategy::Merge);
        // Exactly at the ratio: merge (strict inequality switches).
        assert_eq!(choose_uint_strategy(100, 100 * GALLOP_SKEW), UintStrategy::Merge);
        assert_eq!(choose_uint_strategy(100, 100 * GALLOP_SKEW + 1), UintStrategy::Gallop);
        // Order-insensitive.
        assert_eq!(choose_uint_strategy(100 * GALLOP_SKEW + 1, 100), UintStrategy::Gallop);
        assert_eq!(choose_uint_strategy(0, usize::MAX), UintStrategy::Gallop);
    }

    #[test]
    fn multiway_kernel_selection() {
        // All bitsets: word AND regardless of skew.
        assert_eq!(choose_multiway(10, 1_000_000, 3, 3), MultiwayKernel::WordAnd);
        // Any bitset in the mix: probe.
        assert_eq!(choose_multiway(100, 100, 1, 3), MultiwayKernel::ProbeSmallest);
        // All-uint skewed: probe.
        assert_eq!(
            choose_multiway(100, 100 * MULTIWAY_PROBE_SKEW + 1, 0, 3),
            MultiwayKernel::ProbeSmallest
        );
        // All-uint balanced: fold.
        assert_eq!(choose_multiway(100, 120, 0, 4), MultiwayKernel::FoldMerge);
    }
}
