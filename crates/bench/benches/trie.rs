//! Microbenchmarks for trie construction and probing (paper §II-A):
//! `FrozenTrie` build cost per layout policy and order, and the §III-A
//! covering-index probe pattern.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use eh_lubm::{generate_store, pred_iri, GeneratorConfig, Predicate};
use eh_rdf::TriePair;
use eh_trie::{FrozenTrie, LayoutPolicy};

/// The `takesCourse` relation of LUBM(1): the store's two tries.
fn takes_course() -> TriePair {
    let store = generate_store(&GeneratorConfig::scale(1));
    let pred = store.resolve_iri(&pred_iri(Predicate::TakesCourse)).expect("predicate");
    store.trie_pair(pred).expect("relation").clone()
}

fn bench_trie_build(c: &mut Criterion) {
    let takes = takes_course();
    let mut g = c.benchmark_group("trie_build");
    g.sample_size(20);
    for (label, policy) in [("auto", LayoutPolicy::Auto), ("uint_only", LayoutPolicy::UintOnly)] {
        for (order, trie) in [("so", takes.so()), ("os", takes.os())] {
            let pairs: Vec<(u32, u32)> = trie.pairs().collect();
            let id = BenchmarkId::new(format!("takesCourse_{order}"), label);
            g.bench_with_input(id, &policy, |b, &policy| {
                b.iter(|| {
                    let t = FrozenTrie::from_sorted_pairs(&pairs, policy);
                    black_box(t.num_tuples())
                })
            });
        }
    }
    g.finish();
}

fn bench_trie_probe(c: &mut Criterion) {
    let takes = takes_course();
    let subjects: Vec<u32> = takes.so().root_set().iter().step_by(37).collect();
    let mut g = c.benchmark_group("trie_probe");
    for (label, policy) in [("auto", LayoutPolicy::Auto), ("uint_only", LayoutPolicy::UintOnly)] {
        let trie = FrozenTrie::from_sorted(takes.so().to_tuples(), policy);
        g.bench_function(format!("contains_prefix/{label}"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for &s in &subjects {
                    hits += usize::from(trie.contains_prefix(&[s]));
                }
                black_box(hits)
            })
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(12);
    targets = bench_trie_build, bench_trie_probe);
criterion_main!(benches);
