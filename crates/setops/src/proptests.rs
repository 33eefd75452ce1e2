//! Property-based tests: views over encoded blocks in every layout
//! combination must agree with a `BTreeSet` oracle on membership,
//! iteration order, rank, and all intersection kernels; a corrupted block
//! either fails validation or still decodes to a self-consistent view.

use std::collections::BTreeSet;

use proptest::prelude::*;

use crate::simd::{and_words_k_into_with, available_levels, intersect_merge_v_with, SimdLevel};
use crate::testing::{arena, arena_views, block, intersect_all_refs_fold, view};
use crate::uint::intersect_uint;
use crate::{
    decode_set, intersect_all_into, intersects_all_refs, validate_encoded_set, IntersectScratch,
    Layout, SetRef,
};

const LAYOUTS: [Layout; 2] = [Layout::UintArray, Layout::Bitset];

fn sorted_unique(vals: &[u32]) -> Vec<u32> {
    let s: BTreeSet<u32> = vals.iter().copied().collect();
    s.into_iter().collect()
}

/// Strategy producing moderately clustered value sets so both layouts get
/// exercised (purely random u32s would almost never pick the bitset).
fn value_set() -> impl Strategy<Value = Vec<u32>> {
    (0u32..50_000, proptest::collection::vec(0u32..2_000, 0..300)).prop_map(|(base, offsets)| {
        sorted_unique(&offsets.iter().map(|o| base + o).collect::<Vec<_>>())
    })
}

/// One multiway operand: a size class spanning four orders of magnitude
/// (so operand pairs reach skew ratios up to ~1:10⁴), a clustered value
/// population, and a forced layout bit.
fn multiway_operand() -> impl Strategy<Value = (Vec<u32>, Layout)> {
    (0u32..5, 0u32..30_000, any::<u64>(), any::<bool>()).prop_map(
        |(magnitude, base, seed, dense)| {
            // Sizes 1, 10, 100, 1000, 10000 — arity-many of these mix
            // into every skew ratio between 1:1 and 1:10⁴.
            let n = 10usize.pow(magnitude);
            // Deterministic LCG so huge operands don't need huge proptest
            // draws; stride keeps density near the bitset threshold.
            let stride = if dense { 3 } else { 700 };
            let mut state = seed | 1;
            let mut v = base;
            let mut vals = Vec::with_capacity(n);
            for _ in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                v = v.wrapping_add(1 + ((state >> 33) as u32 % stride));
                vals.push(v);
            }
            let layout = if dense { Layout::Bitset } else { Layout::UintArray };
            (sorted_unique(&vals), layout)
        },
    )
}

/// 1 to 6 multiway operands (Generic-Join arities).
fn multiway_operands() -> impl Strategy<Value = Vec<(Vec<u32>, Layout)>> {
    proptest::collection::vec(multiway_operand(), 1..=6)
}

/// The view's accessors tell one story: `len`, iteration, `min`/`max`,
/// `contains` and `rank` all describe the same strictly increasing
/// sequence.
fn assert_self_consistent(r: SetRef<'_>) -> Result<(), TestCaseError> {
    let vals: Vec<u32> = r.iter().collect();
    prop_assert_eq!(r.len(), vals.len());
    prop_assert_eq!(r.is_empty(), vals.is_empty());
    prop_assert!(vals.windows(2).all(|w| w[0] < w[1]), "iteration not strictly increasing");
    prop_assert_eq!(r.min(), vals.first().copied());
    prop_assert_eq!(r.max(), vals.last().copied());
    for (i, &v) in vals.iter().enumerate() {
        prop_assert!(r.contains(v));
        prop_assert_eq!(r.rank(v), Some(i));
        // The gap after each element is absent, as is the far end.
        let gap = v.wrapping_add(1);
        if vals.binary_search(&gap).is_err() {
            prop_assert!(!r.contains(gap));
            prop_assert_eq!(r.rank(gap), None);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn roundtrip_matches_oracle(vals in value_set()) {
        for layout in LAYOUTS {
            let words = block(&vals, layout);
            let (s, consumed) = decode_set(&words);
            prop_assert_eq!(consumed, words.len());
            prop_assert_eq!(validate_encoded_set(&words), Some((words.len(), vals.len())));
            prop_assert_eq!(s.len(), vals.len());
            prop_assert_eq!(s.to_vec(), vals.clone());
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), vals.clone());
            prop_assert_eq!(s.min(), vals.first().copied());
            prop_assert_eq!(s.max(), vals.last().copied());
        }
    }

    #[test]
    fn membership_matches_oracle(vals in value_set(), probes in proptest::collection::vec(0u32..60_000, 0..50)) {
        let oracle: BTreeSet<u32> = vals.iter().copied().collect();
        for layout in LAYOUTS {
            let words = block(&vals, layout);
            let s = view(&words);
            for &p in &probes {
                prop_assert_eq!(s.contains(p), oracle.contains(&p));
            }
        }
    }

    #[test]
    fn rank_is_sorted_position(vals in value_set(), probes in proptest::collection::vec(0u32..60_000, 0..50)) {
        for layout in LAYOUTS {
            let words = block(&vals, layout);
            let s = view(&words);
            for (i, &v) in vals.iter().enumerate() {
                prop_assert_eq!(s.rank(v), Some(i));
            }
            for &p in &probes {
                prop_assert_eq!(s.rank(p), vals.binary_search(&p).ok());
            }
        }
    }

    /// Aim 3, first instalment of "total decode on every surface":
    /// flipping any single word of a block either makes validation refuse
    /// it, or leaves a block whose decoded view is self-consistent —
    /// never a panic, never a view that contradicts itself.
    #[test]
    fn single_word_flips_validate_or_stay_consistent(
        vals in value_set(),
        mask in 1u32..=u32::MAX,
        bit in 0u32..32,
    ) {
        for layout in LAYOUTS {
            let words = block(&vals, layout);
            for i in 0..words.len() {
                for flip in [mask, 1 << bit] {
                    let mut bad = words.clone();
                    bad[i] ^= flip;
                    if let Some((consumed, len)) = validate_encoded_set(&bad) {
                        let (r, decoded) = decode_set(&bad);
                        prop_assert_eq!(decoded, consumed);
                        prop_assert!(consumed <= bad.len());
                        prop_assert_eq!(r.len(), len);
                        assert_self_consistent(r)?;
                    }
                }
            }
        }
    }

    #[test]
    fn pair_intersection_matches_oracle(a in value_set(), b in value_set()) {
        let oa: BTreeSet<u32> = a.iter().copied().collect();
        let ob: BTreeSet<u32> = b.iter().copied().collect();
        let expect: Vec<u32> = oa.intersection(&ob).copied().collect();
        let mut scratch = IntersectScratch::new();
        for la in LAYOUTS {
            for lb in LAYOUTS {
                let (wa, wb) = (block(&a, la), block(&b, lb));
                for pair in [[view(&wa), view(&wb)], [view(&wb), view(&wa)]] {
                    prop_assert_eq!(intersect_all_into(&pair, &mut scratch), &expect[..]);
                    prop_assert_eq!(intersects_all_refs(&pair), !expect.is_empty());
                }
            }
        }
    }

    #[test]
    fn multiway_matches_oracle(a in value_set(), b in value_set(), c in value_set()) {
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let sc: BTreeSet<u32> = c.iter().copied().collect();
        let expect: Vec<u32> = a.iter().filter(|v| sb.contains(v) && sc.contains(v)).copied().collect();
        // Layouts as the optimizer picks them, three blocks in one arena.
        let (words, offsets) = arena(&[(a, None), (b, None), (c, None)]);
        let refs = arena_views(&words, &offsets);
        let mut scratch = IntersectScratch::new();
        prop_assert_eq!(intersect_all_into(&refs, &mut scratch), &expect[..]);
        prop_assert_eq!(intersects_all_refs(&refs), !expect.is_empty());
    }

    #[test]
    fn skewed_intersection_takes_gallop_path(
        large_vals in proptest::collection::vec(0u32..5_000, 200..800),
        picks in proptest::collection::vec((0usize..10_000, any::<bool>()), 0..8),
    ) {
        // Force the galloping kernels: |small| * 8 < |large|, with small
        // drawn half from large's own elements (hits) and half offset by
        // one (mostly misses) so probe-boundary matches are exercised.
        let large = sorted_unique(&large_vals);
        prop_assume!(large.len() >= 200);
        let small_raw: Vec<u32> = picks
            .iter()
            .map(|&(i, hit)| {
                let v = large[i % large.len()];
                if hit { v } else { v.saturating_add(1) }
            })
            .collect();
        let small = sorted_unique(&small_raw);
        let oa: BTreeSet<u32> = small.iter().copied().collect();
        let ob: BTreeSet<u32> = large.iter().copied().collect();
        let expect: Vec<u32> = oa.intersection(&ob).copied().collect();
        // The pairwise merge/gallop dispatch the fold-merge kernel uses…
        for (x, y) in [(&small, &large), (&large, &small)] {
            let mut out = Vec::new();
            intersect_uint(x, y, &mut out);
            prop_assert_eq!(&out, &expect);
        }
        // …and the driver's galloping probe cursors, EXISTS included.
        let mut scratch = IntersectScratch::new();
        let (x, y) = (SetRef::Uint(&small), SetRef::Uint(&large));
        for pair in [[x, y], [y, x]] {
            prop_assert_eq!(intersect_all_into(&pair, &mut scratch), &expect[..]);
            prop_assert_eq!(intersects_all_refs(&pair), !expect.is_empty());
        }
    }

    /// The adaptive k-way driver must agree with the scalar pairwise fold
    /// (and a BTreeSet oracle) across layout mixes, skew ratios from 1:1
    /// up to 1:10⁴ and arities 1–6, over views into one contiguous arena —
    /// for materialisation and existence alike.
    #[test]
    fn adaptive_driver_matches_fold(operands in multiway_operands()) {
        // Oracle.
        let mut expect: Vec<u32> = operands[0].0.clone();
        for (vals, _) in &operands[1..] {
            let s: BTreeSet<u32> = vals.iter().copied().collect();
            expect.retain(|v| s.contains(v));
        }

        let forced: Vec<_> = operands.into_iter().map(|(v, l)| (v, Some(l))).collect();
        let (words, offsets) = arena(&forced);
        let refs = arena_views(&words, &offsets);

        let mut scratch = IntersectScratch::new();
        prop_assert_eq!(intersect_all_into(&refs, &mut scratch), &expect[..]);
        prop_assert_eq!(intersects_all_refs(&refs), !expect.is_empty());
        prop_assert_eq!(intersect_all_refs_fold(&refs).unwrap(), expect);
    }

    /// SIMD kernels are byte-identical to the portable fallback at every
    /// level this CPU supports.
    #[test]
    fn simd_levels_are_byte_identical(a in value_set(), b in value_set(), c in value_set()) {
        // uint merge kernel.
        let mut reference = Vec::new();
        intersect_merge_v_with(SimdLevel::Portable, &a, &b, &mut reference);
        for &level in available_levels() {
            let mut out = Vec::new();
            intersect_merge_v_with(level, &a, &b, &mut out);
            prop_assert_eq!(&out, &reference, "merge at {}", level);
        }
        // Word-AND kernel over equal extents.
        let n = 40usize;
        let pack = |vals: &[u32]| -> Vec<u32> {
            let mut words = vec![0u32; n];
            for &v in vals {
                let w = (v / 32) as usize % n;
                words[w] |= 1 << (v % 32);
            }
            words
        };
        let (wa, wb, wc) = (pack(&a), pack(&b), pack(&c));
        let srcs = [&wa[..], &wb[..], &wc[..]];
        let mut reference = Vec::new();
        let ref_count = and_words_k_into_with(SimdLevel::Portable, &srcs, &mut reference);
        for &level in available_levels() {
            let mut out = Vec::new();
            prop_assert_eq!(and_words_k_into_with(level, &srcs, &mut out), ref_count);
            prop_assert_eq!(&out, &reference, "and at {}", level);
        }
    }
}
