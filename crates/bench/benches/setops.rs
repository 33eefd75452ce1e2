//! Microbenchmarks for the set-layout kernels (paper §II-A2 / §III-A)
//! over the one representation the engine reads — [`SetRef`] views
//! decoded from [`encode_sorted_into`] blocks: the adaptive driver across
//! layout pairs, densities and skews, the EXISTS path, membership probes,
//! and a density-threshold ablation around the paper's 1/256 heuristic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eh_bench::synth_set;
use eh_setops::{
    decode_set, encode_sorted_into, intersect_all_into, intersects_all_refs, IntersectScratch,
    Layout, SetRef,
};

/// Sorted values and the layout to force (`None` = the optimizer's).
type Operand<'a> = (&'a [u32], Option<Layout>);

/// One arena holding the blocks of `operands`, handed to `f` as views.
fn with_views<R>(operands: &[Operand<'_>], f: impl FnOnce(&[SetRef<'_>]) -> R) -> R {
    let mut arena = Vec::new();
    let offsets: Vec<usize> = operands
        .iter()
        .map(|(vals, forced)| {
            let at = arena.len();
            encode_sorted_into(vals, *forced, &mut arena);
            at
        })
        .collect();
    let views: Vec<SetRef<'_>> = offsets.iter().map(|&at| decode_set(&arena[at..]).0).collect();
    f(&views)
}

/// Drive `views` through the adaptive driver and consume the values (the
/// executor iterates every intersection it computes).
fn drive(views: &[SetRef<'_>], scratch: &mut IntersectScratch) -> u64 {
    intersect_all_into(black_box(views), scratch).iter().map(|&v| v as u64).sum()
}

fn bench_intersections(c: &mut Criterion) {
    let mut g = c.benchmark_group("intersect");
    let mut scratch = IntersectScratch::new();
    for (label, stride) in [("dense", 2u32), ("sparse", 512u32)] {
        let a = synth_set(10_000, stride, 7);
        let b = synth_set(10_000, stride, 13);
        for (la, lb) in [
            (Layout::UintArray, Layout::UintArray),
            (Layout::Bitset, Layout::Bitset),
            (Layout::UintArray, Layout::Bitset),
        ] {
            with_views(&[(&a, Some(la)), (&b, Some(lb))], |views| {
                g.bench_function(BenchmarkId::new(format!("{la}x{lb}"), label), |bench| {
                    bench.iter(|| black_box(drive(views, &mut scratch)))
                });
            });
        }
    }
    g.finish();
}

fn bench_skewed(c: &mut Criterion) {
    // 100 values against 1 M: galloping cursors into a uint array, O(1)
    // probes into a bitset — materialised, and as the EXISTS check
    // Generic-Join's final depth issues, in both argument orders and with
    // no witness to stop at (the case that walks the whole small side).
    let mut g = c.benchmark_group("skewed");
    let mut scratch = IntersectScratch::new();
    let large: Vec<u32> = synth_set(1_000_000, 2, 3).iter().map(|v| v * 2).collect();
    let hits: Vec<u32> = large.iter().copied().step_by(10_000).collect();
    let misses: Vec<u32> = hits.iter().map(|v| v + 1).collect();
    let uint = Some(Layout::UintArray);
    for (label, layout) in [("uint", uint), ("bitset", Some(Layout::Bitset))] {
        with_views(&[(&hits, uint), (&misses, uint), (&large, layout)], |views| {
            let (hit, miss, large) = (views[0], views[1], views[2]);
            g.bench_function(BenchmarkId::new("100_in_1M", label), |b| {
                b.iter(|| black_box(drive(&[hit, large], &mut scratch)))
            });
            g.bench_function(BenchmarkId::new("exists_miss_100_in_1M", label), |b| {
                b.iter(|| black_box(intersects_all_refs(black_box(&[miss, large]))))
            });
            g.bench_function(BenchmarkId::new("exists_miss_1M_in_100", label), |b| {
                b.iter(|| black_box(intersects_all_refs(black_box(&[large, miss]))))
            });
        });
    }
    g.finish();
}

fn bench_membership(c: &mut Criterion) {
    // The §III-A selection probe: O(1) bitset vs O(log n) binary search.
    let vals = synth_set(100_000, 3, 5);
    let probes = synth_set(1_000, 300, 17);
    let mut g = c.benchmark_group("contains");
    for layout in [Layout::UintArray, Layout::Bitset] {
        with_views(&[(&vals, Some(layout))], |views| {
            let s = views[0];
            g.bench_function(format!("{layout}"), |b| {
                b.iter(|| {
                    let mut hits = 0u32;
                    for &p in &probes {
                        hits += u32::from(s.contains(p));
                    }
                    black_box(hits)
                })
            });
        });
    }
    g.finish();
}

fn bench_multiway(c: &mut Criterion) {
    // Three-operand shapes, one per kernel the driver selects: probe-
    // smallest (skewed uint), word-AND (all bitsets), probe with O(1)
    // bitset membership (mixed).
    let mut g = c.benchmark_group("multiway");
    let mut scratch = IntersectScratch::new();
    let large1 = synth_set(200_000, 3, 7);
    let small: Vec<u32> = large1.iter().copied().step_by(24).collect();
    let large2 = synth_set(200_000, 3, 13);
    let dense1 = synth_set(200_000, 12, 7);
    let dense2 = synth_set(200_000, 12, 13);
    let dense3 = synth_set(200_000, 12, 29);
    let (uint, bits) = (Some(Layout::UintArray), Some(Layout::Bitset));
    let cases: [(&str, [Operand<'_>; 3]); 3] = [
        ("uint_skewed", [(&small, uint), (&large1, uint), (&large2, uint)]),
        ("bitset", [(&dense1, bits), (&dense2, bits), (&dense3, bits)]),
        ("mixed", [(&small, uint), (&dense1, bits), (&large2, uint)]),
    ];
    for (label, operands) in &cases {
        with_views(operands, |views| {
            g.bench_function(BenchmarkId::new("adaptive", label), |bench| {
                bench.iter(|| black_box(drive(views, &mut scratch)))
            });
            g.bench_function(BenchmarkId::new("exists", label), |bench| {
                bench.iter(|| black_box(intersects_all_refs(black_box(views))))
            });
        });
    }
    g.finish();
}

fn bench_density_threshold(c: &mut Criterion) {
    // Ablation: intersection cost as density crosses the paper's 1/256
    // bitset threshold — the optimizer's layout vs forced uint arrays.
    let mut g = c.benchmark_group("density_threshold");
    let mut scratch = IntersectScratch::new();
    for stride in [16u32, 64, 256, 1024] {
        let a = synth_set(20_000, stride, 7);
        let b = synth_set(20_000, stride, 13);
        for (label, forced) in [("auto", None), ("uint_only", Some(Layout::UintArray))] {
            with_views(&[(&a, forced), (&b, forced)], |views| {
                g.bench_function(BenchmarkId::new(label, stride), |bench| {
                    bench.iter(|| black_box(drive(views, &mut scratch)))
                });
            });
        }
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(12);
    targets =
    bench_intersections,
    bench_skewed,
    bench_membership,
    bench_multiway,
    bench_density_threshold
);
criterion_main!(benches);
