//! Runtime-dispatched vectorized intersection kernels (paper §IV-B).
//!
//! The paper attributes Generic-Join's edge over LogicBlox to exactly
//! these loops: layout-specialized, SIMD-friendly set intersections. This
//! module holds the hardware-facing kernels every intersection routes
//! through:
//!
//! | kernel | AVX2 | SSE2 | portable fallback |
//! |---|---|---|---|
//! | word `AND` (bitset ∩ bitset, k-way) | 8 words/iter [`core::arch`] `vpand` | 4 words/iter `pand` | 4-word unrolled scalar |
//! | uint ∩ uint merge | 4×4 cyclic `pcmpeqd` compare | same (SSE2 suffices) | block-skipping unrolled merge |
//!
//! Dispatch is decided **once per process** by [`simd_level`]:
//! `is_x86_feature_detected!` picks the widest available instruction set,
//! and the `EH_SIMD` environment variable (`portable` / `sse` / `avx2`)
//! caps it — the byte-identity CI job runs the whole suite under
//! `EH_SIMD=portable` to pin the fallback to the vectorized kernels.
//!
//! Every kernel in this module is **byte-identical** across levels (a
//! sorted-unique intersection has exactly one correct output), which the
//! `proptests` module asserts by running each kernel at every level this
//! CPU supports.

use std::sync::OnceLock;

/// Instruction-set tier a kernel dispatch can land on, in increasing
/// width. On x86_64, SSE2 is part of the baseline ABI, so `Portable` is
/// only ever *chosen* (via `EH_SIMD=portable`), never detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SimdLevel {
    /// Unrolled scalar `u32` kernels; runs on every target.
    Portable,
    /// 128-bit `core::arch` kernels (x86_64 baseline).
    Sse2,
    /// 256-bit word-`AND` kernels (runtime-detected).
    Avx2,
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimdLevel::Portable => write!(f, "portable"),
            SimdLevel::Sse2 => write!(f, "sse2"),
            SimdLevel::Avx2 => write!(f, "avx2"),
        }
    }
}

/// Widest level this CPU supports, ignoring any `EH_SIMD` override.
pub(crate) fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Portable
    }
}

/// All levels this CPU can execute, narrowest first — the matrix the
/// byte-identity tests iterate.
#[cfg(test)]
pub(crate) fn available_levels() -> &'static [SimdLevel] {
    match detected_level() {
        SimdLevel::Portable => &[SimdLevel::Portable],
        SimdLevel::Sse2 => &[SimdLevel::Portable, SimdLevel::Sse2],
        SimdLevel::Avx2 => &[SimdLevel::Portable, SimdLevel::Sse2, SimdLevel::Avx2],
    }
}

/// The level the dispatching kernels use: hardware detection capped by
/// the `EH_SIMD` environment variable. Cached after the first call.
pub(crate) fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let detected = detected_level();
        match std::env::var("EH_SIMD").as_deref() {
            Ok("portable") => SimdLevel::Portable,
            Ok("sse") | Ok("sse2") => detected.min(SimdLevel::Sse2),
            Ok("avx2") | Err(_) => detected,
            Ok(other) => {
                // The variable exists to *pin* kernels for byte-identity
                // testing; failing open silently would quietly disable
                // exactly that, so make the typo loud.
                eprintln!(
                    "warning: unrecognized EH_SIMD value {other:?} \
                     (expected portable|sse|avx2); using detected level {detected}"
                );
                detected
            }
        }
    })
}

// ---------------------------------------------------------------------------
// k-way word AND (bitset ∩ ... ∩ bitset over a shared word extent)
// ---------------------------------------------------------------------------

/// `out := srcs[0] & srcs[1] & ...` over equal-length word slices;
/// returns the popcount of the result. `out` is cleared and resized to
/// the operand length (reusing its allocation), so a caller-provided
/// scratch buffer makes the steady state allocation-free.
pub(crate) fn and_words_k_into(srcs: &[&[u32]], out: &mut Vec<u32>) -> usize {
    and_words_k_into_with(simd_level(), srcs, out)
}

/// [`and_words_k_into`] at an explicit level (byte-identity tests;
/// production code uses the dispatching entry point).
pub(crate) fn and_words_k_into_with(
    level: SimdLevel,
    srcs: &[&[u32]],
    out: &mut Vec<u32>,
) -> usize {
    let n = srcs[0].len();
    debug_assert!(srcs.iter().all(|s| s.len() == n), "operands must share the word extent");
    out.clear();
    out.resize(n, 0);
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { and_k_avx2(srcs, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => unsafe { and_k_sse2(srcs, out) },
        _ => and_k_portable(srcs, out),
    }
}

/// True when `srcs[0] & srcs[1] & ...` has any set bit, with early exit —
/// the non-materializing EXISTS path for bitset-only intersections.
pub(crate) fn and_words_k_any(srcs: &[&[u32]]) -> bool {
    let n = srcs[0].len();
    debug_assert!(srcs.iter().all(|s| s.len() == n));
    for i in 0..n {
        let mut w = srcs[0][i];
        for s in &srcs[1..] {
            w &= s[i];
        }
        if w != 0 {
            return true;
        }
    }
    false
}

/// Portable fallback: 4-word unrolled scalar AND, byte-identical to the
/// vector kernels.
fn and_k_portable(srcs: &[&[u32]], out: &mut [u32]) -> usize {
    let n = out.len();
    let mut count = 0usize;
    let mut i = 0;
    while i + 4 <= n {
        let (mut w0, mut w1, mut w2, mut w3) =
            (srcs[0][i], srcs[0][i + 1], srcs[0][i + 2], srcs[0][i + 3]);
        for s in &srcs[1..] {
            w0 &= s[i];
            w1 &= s[i + 1];
            w2 &= s[i + 2];
            w3 &= s[i + 3];
        }
        out[i] = w0;
        out[i + 1] = w1;
        out[i + 2] = w2;
        out[i + 3] = w3;
        count += (w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones()) as usize;
        i += 4;
    }
    while i < n {
        let mut w = srcs[0][i];
        for s in &srcs[1..] {
            w &= s[i];
        }
        out[i] = w;
        count += w.count_ones() as usize;
        i += 1;
    }
    count
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn and_k_avx2(srcs: &[&[u32]], out: &mut [u32]) -> usize {
    use std::arch::x86_64::*;
    let n = out.len();
    let mut count = 0usize;
    let mut i = 0;
    while i + 8 <= n {
        let mut acc = _mm256_loadu_si256(srcs[0].as_ptr().add(i) as *const __m256i);
        for s in &srcs[1..] {
            acc = _mm256_and_si256(acc, _mm256_loadu_si256(s.as_ptr().add(i) as *const __m256i));
        }
        _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, acc);
        for w in &out[i..i + 8] {
            count += w.count_ones() as usize;
        }
        i += 8;
    }
    while i < n {
        let mut w = srcs[0][i];
        for s in &srcs[1..] {
            w &= s[i];
        }
        out[i] = w;
        count += w.count_ones() as usize;
        i += 1;
    }
    count
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn and_k_sse2(srcs: &[&[u32]], out: &mut [u32]) -> usize {
    use std::arch::x86_64::*;
    let n = out.len();
    let mut count = 0usize;
    let mut i = 0;
    while i + 4 <= n {
        let mut acc = _mm_loadu_si128(srcs[0].as_ptr().add(i) as *const __m128i);
        for s in &srcs[1..] {
            acc = _mm_and_si128(acc, _mm_loadu_si128(s.as_ptr().add(i) as *const __m128i));
        }
        _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, acc);
        for w in &out[i..i + 4] {
            count += w.count_ones() as usize;
        }
        i += 4;
    }
    while i < n {
        let mut w = srcs[0][i];
        for s in &srcs[1..] {
            w &= s[i];
        }
        out[i] = w;
        count += w.count_ones() as usize;
        i += 1;
    }
    count
}

// ---------------------------------------------------------------------------
// uint ∩ uint merge (sorted unique u32 slices)
// ---------------------------------------------------------------------------

/// Merge-shaped intersection of two sorted-unique slices, appended to
/// `out`: 4×4 cyclic SIMD compare on x86_64, block-skipping unrolled
/// merge elsewhere. Use when cardinalities are comparable; skewed pairs
/// go through [`crate::uint::intersect_gallop`] instead (the dispatch
/// lives in [`crate::uint::intersect_uint`]).
pub(crate) fn intersect_merge_v(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    intersect_merge_v_with(simd_level(), a, b, out)
}

/// [`intersect_merge_v`] at an explicit level (byte-identity tests).
pub(crate) fn intersect_merge_v_with(level: SimdLevel, a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Sse2 => unsafe { intersect_merge_sse2(a, b, out) },
        _ => intersect_merge_blockskip(a, b, out),
    }
}

/// Scalar merge over the ragged tails the 4-wide kernels leave behind.
fn scalar_merge_tail(a: &[u32], b: &[u32], mut i: usize, mut j: usize, out: &mut Vec<u32>) {
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

/// Portable block-skipping merge: whole 4-element blocks whose ranges
/// don't overlap are skipped with two comparisons, so runs of misses cost
/// ~1/4 of a plain element-wise merge.
fn intersect_merge_blockskip(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i + 4 <= a.len() && j + 4 <= b.len() {
        if a[i + 3] < b[j] {
            i += 4;
            continue;
        }
        if b[j + 3] < a[i] {
            j += 4;
            continue;
        }
        // Overlapping blocks: element-wise merge until one block drains.
        let (ae, be) = (i + 4, j + 4);
        while i < ae && j < be {
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
    scalar_merge_tail(a, b, i, j, out);
}

/// 4×4 cyclic compare intersection: each 4-element window of `a` is
/// compared against all four rotations of the current `b` window with
/// `pcmpeqd`, matched lanes are emitted from the movemask, and whichever
/// window has the smaller maximum advances — the classic SIMD galloping
/// merge the paper's §IV-B "old techniques" refer to.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn intersect_merge_sse2(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    use std::arch::x86_64::*;
    let (mut i, mut j) = (0usize, 0usize);
    while i + 4 <= a.len() && j + 4 <= b.len() {
        let va = _mm_loadu_si128(a.as_ptr().add(i) as *const __m128i);
        let vb = _mm_loadu_si128(b.as_ptr().add(j) as *const __m128i);
        let r1 = _mm_shuffle_epi32(vb, 0b00_11_10_01);
        let r2 = _mm_shuffle_epi32(vb, 0b01_00_11_10);
        let r3 = _mm_shuffle_epi32(vb, 0b10_01_00_11);
        let eq = _mm_or_si128(
            _mm_or_si128(_mm_cmpeq_epi32(va, vb), _mm_cmpeq_epi32(va, r1)),
            _mm_or_si128(_mm_cmpeq_epi32(va, r2), _mm_cmpeq_epi32(va, r3)),
        );
        let mut mask = _mm_movemask_ps(_mm_castsi128_ps(eq)) as u32;
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            out.push(a[i + lane]);
            mask &= mask - 1;
        }
        let (amax, bmax) = (a[i + 3], b[j + 3]);
        if amax <= bmax {
            i += 4;
        }
        if bmax <= amax {
            j += 4;
        }
    }
    scalar_merge_tail(a, b, i, j, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_detection() {
        assert!(SimdLevel::Portable < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
        let levels = available_levels();
        assert_eq!(levels[0], SimdLevel::Portable);
        assert_eq!(*levels.last().unwrap(), detected_level());
        // The dispatch level is never wider than the hardware allows.
        assert!(simd_level() <= detected_level());
    }

    #[test]
    fn and_kernels_agree_across_levels() {
        let a: Vec<u32> = (0u32..67).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let b: Vec<u32> = (0u32..67).map(|i| i.wrapping_mul(0x85eb_ca6b) ^ 0xffff).collect();
        let c: Vec<u32> = (0u32..67).map(|i| !(i * 31)).collect();
        for srcs in [vec![&a[..], &b[..]], vec![&a[..], &b[..], &c[..]]] {
            let mut reference = Vec::new();
            let ref_count = and_words_k_into_with(SimdLevel::Portable, &srcs, &mut reference);
            for &level in available_levels() {
                let mut out = Vec::new();
                let count = and_words_k_into_with(level, &srcs, &mut out);
                assert_eq!(out, reference, "and_words at {level}");
                assert_eq!(count, ref_count, "and_words count at {level}");
            }
            assert_eq!(and_words_k_any(&srcs), ref_count > 0);
        }
    }

    #[test]
    fn and_any_early_exit_and_empty() {
        let zero = vec![0u32; 9];
        let one = vec![1u32; 9];
        assert!(!and_words_k_any(&[&zero, &one]));
        assert!(and_words_k_any(&[&one, &one]));
        let empty: Vec<u32> = vec![];
        let mut out = vec![7u32; 3];
        assert_eq!(and_words_k_into(&[&empty, &empty], &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn merge_kernels_agree_across_levels() {
        let a: Vec<u32> = (0..503).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..401).map(|i| i * 5 + 1).collect();
        let mut reference = Vec::new();
        intersect_merge_v_with(SimdLevel::Portable, &a, &b, &mut reference);
        for &level in available_levels() {
            let mut out = Vec::new();
            intersect_merge_v_with(level, &a, &b, &mut out);
            assert_eq!(out, reference, "merge at {level}");
            // Asymmetric operand order too.
            let mut swapped = Vec::new();
            intersect_merge_v_with(level, &b, &a, &mut swapped);
            assert_eq!(swapped, reference, "swapped merge at {level}");
        }
    }

    #[test]
    fn merge_handles_short_and_boundary_inputs() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[]),
            (&[1], &[1]),
            (&[1, 2, 3], &[3]),
            (&[0, 1, 2, 3], &[0, 1, 2, 3]),
            (&[0, 1, 2, 3, 4], &[4, 5, 6, 7]),
            (&[3, 7, 11, 15, 19], &[1, 2, 3, 4, 19]),
        ];
        for &(a, b) in cases {
            let mut expect = Vec::new();
            scalar_merge_tail(a, b, 0, 0, &mut expect);
            for &level in available_levels() {
                let mut out = Vec::new();
                intersect_merge_v_with(level, a, b, &mut out);
                assert_eq!(out, expect, "{a:?} x {b:?} at {level}");
            }
        }
    }
}
