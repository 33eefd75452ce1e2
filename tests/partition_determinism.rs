//! The partitioned engine's determinism contract (ISSUE 8): for every
//! partition count P ∈ {1, 2, 4}, at 1/2/4 worker threads, on both the
//! cold (uncached) and warm (cached) paths, and across interleaved live
//! updates, query answers are **byte-identical** to an unpartitioned
//! (P = 1) cold engine over the same logical triples. Partitioning moves
//! placement, never results — whether a query runs shard-local
//! (subject-rooted plans) or through union operands in the multiway
//! driver.

use std::collections::HashSet;

use wcoj_rdf::emptyheaded::{
    Engine, OptFlags, PlannerConfig, QueryResult, RuntimeConfig, SharedStore, UpdateBatch,
};
use wcoj_rdf::lubm::queries::{lubm_query, QUERY_NUMBERS};
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};
use wcoj_rdf::query::ConjunctiveQuery;
use wcoj_rdf::rdf::{Term, Triple, TripleStore};

const PARTITIONS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// A shared handle over `store` re-split into `p` subject shards. The
/// dictionary is untouched by repartitioning, so encoded ids — and
/// therefore raw result bytes — stay comparable across every clone.
fn partitioned(store: &TripleStore, p: usize) -> SharedStore {
    let mut s = store.clone();
    s.repartition(p);
    SharedStore::new(s)
}

fn engine(store: SharedStore, threads: usize) -> Engine {
    Engine::with_config(
        store,
        PlannerConfig::with_flags(OptFlags::all())
            .with_runtime(RuntimeConfig::with_threads(threads)),
    )
}

/// Cold run, then cached repeat, both against the reference bytes.
fn assert_cold_and_warm(e: &Engine, q: &ConjunctiveQuery, expected: &QueryResult, label: &str) {
    let cold = e.run(q).unwrap();
    assert_eq!(&cold, expected, "{label}: cold (uncached) run diverged");
    let warm = e.run(q).unwrap();
    assert_eq!(&warm, expected, "{label}: warm (cached) run diverged");
}

#[test]
fn lubm_workload_is_partition_deterministic() {
    let base = generate_store(&GeneratorConfig::tiny(1));
    let reference = Engine::new(SharedStore::new(base.clone()), OptFlags::all());
    for p in PARTITIONS {
        for threads in THREAD_COUNTS {
            let e = engine(partitioned(&base, p), threads);
            for n in QUERY_NUMBERS {
                let q = lubm_query(n, &base).unwrap();
                let expected = reference.run(&q).unwrap();
                assert_cold_and_warm(&e, &q, &expected, &format!("LUBM {n}, P={p} T={threads}"));
            }
        }
    }
}

/// Both partitioned execution strategies against a shape that forces
/// each: a subject-rooted star runs shard-local (every atom's root is
/// the partitioning key), while a triangle's rotated atoms cannot, so
/// the executor unions shard operands through the multiway driver.
#[test]
fn shard_local_and_union_paths_are_partition_deterministic() {
    let mut triples = Vec::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % m) as u32
    };
    for _ in 0..500 {
        triples.push(t(&format!("n{}", next(60)), "edge", &format!("n{}", next(60))));
    }
    let base = TripleStore::from_triples(triples);
    let reference = Engine::new(SharedStore::new(base.clone()), OptFlags::all());

    let star = "SELECT ?h ?a ?b WHERE { ?h <edge> ?a . ?h <edge> ?b }";
    let triangle = "SELECT ?x ?y ?z WHERE { ?x <edge> ?y . ?y <edge> ?z . ?x <edge> ?z }";
    for shape in [star, triangle] {
        let expected = reference.run_sparql(shape).unwrap();
        assert!(!expected.is_empty(), "degenerate test graph for {shape}");
        for p in PARTITIONS {
            for threads in THREAD_COUNTS {
                let e = engine(partitioned(&base, p), threads);
                let q = {
                    let store = e.store();
                    wcoj_rdf::query::parse_sparql(shape, &store).unwrap()
                };
                assert_cold_and_warm(&e, &q, &expected, &format!("{shape}, P={p} T={threads}"));
            }
        }
    }
}

/// A cold `P = 1` store bulk-built from a set-of-triples model — no
/// staging, no compaction. Raw result bytes are only comparable when
/// term ids agree, so the dictionary is seeded first with every triple
/// the engines have seen, in the order they saw them (`insert` and
/// `stage_add_triples` both encode subject, predicate, object per
/// triple; deletes never grow the dictionary).
fn model_store(seen: &[Triple], model: &HashSet<Triple>) -> TripleStore {
    let mut store = TripleStore::new();
    for t in seen {
        for term in [&t.s, &t.p, &t.o] {
            store.encode_term(term);
        }
    }
    for t in model {
        store.insert(t.clone());
    }
    store.commit();
    store
}

/// Interleaved updates: the same batch script applied to engines at
/// every partition count must keep answers byte-identical to a *cold*
/// P = 1 engine bulk-built from a set-of-triples model of the
/// post-update contents after every step — through staged overlays, an
/// explicit mid-script COMPACT, and the cached repeat of each answer.
#[test]
fn interleaved_updates_stay_byte_identical_across_partitions() {
    let base_triples = vec![
        t("a", "edge", "b"),
        t("b", "edge", "c"),
        t("a", "edge", "c"),
        t("c", "edge", "d"),
        t("a", "kind", "thing"),
        t("b", "kind", "thing"),
    ];
    let base = TripleStore::from_triples(base_triples.clone());
    // (inserts, deletes) per step; every engine sees the same script, so
    // dictionaries (and thus raw ids) stay aligned across all of them.
    let steps: Vec<(Vec<Triple>, Vec<Triple>)> = vec![
        (vec![t("b", "edge", "d")], vec![t("a", "edge", "b")]),
        (vec![t("d", "edge", "a"), t("e", "edge", "f"), t("e", "edge", "g")], vec![]),
        (vec![t("f", "edge", "g")], vec![t("c", "edge", "d")]),
    ];
    let triangle = "SELECT ?x ?y ?z WHERE { ?x <edge> ?y . ?y <edge> ?z . ?x <edge> ?z }";
    let star = "SELECT ?h ?a ?b WHERE { ?h <edge> ?a . ?h <edge> ?b }";

    for threads in [1usize, 4] {
        let engines: Vec<Engine> =
            PARTITIONS.iter().map(|&p| engine(partitioned(&base, p), threads)).collect();
        let mut seen = base_triples.clone();
        let mut model: HashSet<Triple> = base_triples.iter().cloned().collect();
        for (step, (inserts, deletes)) in steps.iter().enumerate() {
            // Engine batches delete first, then insert (SPARQL Update
            // convention) — mirror that order in the model.
            for t in deletes {
                model.remove(t);
            }
            model.extend(inserts.iter().cloned());
            seen.extend(inserts.iter().cloned());
            let cold = Engine::new(SharedStore::new(model_store(&seen, &model)), OptFlags::all());
            for (e, &p) in engines.iter().zip(PARTITIONS.iter()) {
                let mut batch = UpdateBatch::new();
                batch.inserts = inserts.clone();
                batch.deletes = deletes.clone();
                e.update(batch);
                if step == 1 {
                    // Fold the staged overlays mid-script: post-compaction
                    // answers must be as identical as overlay-served ones.
                    e.compact();
                }
                for shape in [triangle, star] {
                    let expected = cold.run_sparql(shape).unwrap();
                    let q = {
                        let store = e.store();
                        wcoj_rdf::query::parse_sparql(shape, &store).unwrap()
                    };
                    assert_cold_and_warm(
                        e,
                        &q,
                        &expected,
                        &format!("step {step}, P={p} T={threads}, {shape}"),
                    );
                }
            }
        }
    }
}

/// `Engine::repartition` (the server's `--partitions` hook) re-shards a
/// live engine without changing a single answer byte.
#[test]
fn live_repartition_preserves_answers() {
    let base = generate_store(&GeneratorConfig::tiny(1));
    let e = engine(SharedStore::new(base.clone()), 2);
    let q = lubm_query(2, &base).unwrap();
    let before = e.run(&q).unwrap();
    assert_eq!(e.repartition(4), 4);
    assert_eq!(e.store().partitions(), 4);
    assert_eq!(e.run(&q).unwrap(), before, "repartition to 4 changed answers");
    assert_eq!(e.repartition(1), 1);
    assert_eq!(e.run(&q).unwrap(), before, "repartition back to 1 changed answers");
}
