//! The parallel runtime's determinism contract, end to end: for every
//! LUBM workload query and the ad-hoc shapes of `adhoc_shapes.rs`,
//! execution at 1/2/4 worker threads returns `QueryResult`s
//! **byte-identical** to sequential execution — same columns, same rows,
//! same row order — under every optimization profile, including
//! morsel size 1 (each outer value its own task) to stress the merge —
//! and across interleaved live updates.

use std::collections::HashSet;

use wcoj_rdf::emptyheaded::{
    Engine, OptFlags, PlannerConfig, QueryResult, RuntimeConfig, SharedStore, UpdateBatch,
};
use wcoj_rdf::lubm::queries::{lubm_query, QUERY_NUMBERS};
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};
use wcoj_rdf::query::{ConjunctiveQuery, QueryBuilder};
use wcoj_rdf::rdf::{Term, Triple, TripleStore};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Sequential reference vs. every parallel configuration, bit for bit.
/// Engines share one store handle — no per-configuration deep copies.
fn assert_parallel_identical(store: &SharedStore, q: &ConjunctiveQuery, label: &str) {
    for flags in [OptFlags::all(), OptFlags::none()] {
        let reference = Engine::new(store.clone(), flags).run(q).unwrap();
        for threads in THREAD_COUNTS {
            for morsel_size in [1, 256] {
                let runtime = RuntimeConfig::with_threads(threads).with_morsel_size(morsel_size);
                let engine = Engine::with_config(
                    store.clone(),
                    PlannerConfig::with_flags(flags).with_runtime(runtime),
                );
                engine.warm(q).unwrap();
                let parallel = engine.run(q).unwrap();
                assert_eq!(
                    parallel, reference,
                    "{label}: diverged at {threads} threads, morsel {morsel_size}, {flags:?}"
                );
            }
        }
    }
}

#[test]
fn lubm_workload_is_parallel_deterministic() {
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(2)));
    for n in QUERY_NUMBERS {
        let q = lubm_query(n, &store.read()).unwrap();
        assert_parallel_identical(&store, &q, &format!("LUBM query {n}"));
    }
}

/// The same seeded random multigraph `adhoc_shapes.rs` uses.
fn graph_store() -> TripleStore {
    let mut triples = Vec::new();
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % m) as u32
    };
    for _ in 0..400 {
        let p = if next(2) == 0 { "edge" } else { "link" };
        triples.push(Triple::new(
            Term::iri(format!("n{}", next(40))),
            Term::iri(p),
            Term::iri(format!("n{}", next(40))),
        ));
    }
    TripleStore::from_triples(triples)
}

#[test]
fn adhoc_shapes_are_parallel_deterministic() {
    let store = SharedStore::new(graph_store());
    let (e, l) = {
        let guard = store.read();
        (guard.resolve_iri("edge").unwrap(), guard.resolve_iri("link").unwrap())
    };

    // Four-hop chain (multi-node GHD, pipelined when eligible).
    let chain = {
        let mut qb = QueryBuilder::new();
        let vars: Vec<_> = (0..5).map(|i| qb.var(&format!("v{i}"))).collect();
        for w in vars.windows(2) {
            qb.atom("edge", e, w[0], w[1]);
        }
        qb.select(vec![vars[0], vars[4]]).build().unwrap()
    };
    assert_parallel_identical(&store, &chain, "four-hop chain");

    // Wide star over two predicates.
    let star = {
        let mut qb = QueryBuilder::new();
        let hub = qb.var("hub");
        let leaves: Vec<_> = (0..4).map(|i| qb.var(&format!("l{i}"))).collect();
        qb.atom("edge", e, hub, leaves[0])
            .atom("edge", e, hub, leaves[1])
            .atom("link", l, hub, leaves[2])
            .atom("link", l, leaves[3], hub);
        qb.select(vec![hub]).build().unwrap()
    };
    assert_parallel_identical(&store, &star, "wide star");

    // Four-cycle (fhw 2 — wider than anything in LUBM).
    let cycle = {
        let mut qb = QueryBuilder::new();
        let v: Vec<_> = (0..4).map(|i| qb.var(&format!("v{i}"))).collect();
        qb.atom("edge", e, v[0], v[1])
            .atom("edge", e, v[1], v[2])
            .atom("edge", e, v[2], v[3])
            .atom("edge", e, v[3], v[0]);
        qb.select(v).build().unwrap()
    };
    assert_parallel_identical(&store, &cycle, "four-cycle");

    // Triangle anchored at a constant neighbour (selection + cycle).
    let anchored = {
        let anchor = store.read().resolve_iri("n1");
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        let a = qb.selection_var(anchor);
        qb.atom("edge", e, x, y).atom("edge", e, y, z).atom("edge", e, x, z).atom("edge", e, x, a);
        qb.select(vec![x, y, z]).build().unwrap()
    };
    assert_parallel_identical(&store, &anchored, "anchored triangle");
}

#[test]
fn logicblox_profile_is_parallel_deterministic_too() {
    // The single-node, selection-blind profile exercises the parallel
    // split on naive attribute orders.
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    for n in QUERY_NUMBERS {
        let q = lubm_query(n, &store.read()).unwrap();
        let reference =
            Engine::with_config(store.clone(), PlannerConfig::logicblox_style()).run(&q).unwrap();
        for threads in THREAD_COUNTS {
            let config = PlannerConfig::logicblox_style()
                .with_runtime(RuntimeConfig::with_threads(threads).with_morsel_size(16));
            let parallel = Engine::with_config(store.clone(), config).run(&q).unwrap();
            assert_eq!(parallel, reference, "LUBM query {n} at {threads} threads");
        }
    }
}

#[test]
fn parallel_sparql_end_to_end() {
    // SELECT * + trailing dot + parallel runtime in one round trip.
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    let text = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
                PREFIX ub: <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#>\n\
                SELECT * WHERE {\n\
                  ?x rdf:type ub:GraduateStudent .\n\
                  ?x ub:memberOf ?dept .\n\
                  ?dept ub:subOrganizationOf ?univ .\n\
                }";
    let sequential = Engine::new(store.clone(), OptFlags::all()).run_sparql(text).unwrap();
    assert!(!sequential.is_empty());
    assert_eq!(sequential.columns(), &["x".to_string(), "dept".into(), "univ".into()]);
    for threads in THREAD_COUNTS {
        let config = PlannerConfig::with_flags(OptFlags::all()).with_threads(threads);
        let parallel = Engine::with_config(store.clone(), config).run_sparql(text).unwrap();
        assert_eq!(parallel, sequential, "{threads} threads");
    }
}

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

/// A cold store bulk-built from a set-of-triples model — no staging, no
/// compaction. Raw result bytes are only comparable when term ids agree,
/// so the dictionary is seeded first with every triple the engines have
/// seen, in the order they saw them (`insert` and `stage_add_triples`
/// both encode subject, predicate, object per triple; deletes never grow
/// the dictionary).
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

/// Cold run, then cached repeat, both against the reference bytes.
fn assert_cold_and_warm(e: &Engine, q: &ConjunctiveQuery, expected: &QueryResult, label: &str) {
    assert_eq!(&e.run(q).unwrap(), expected, "{label}: cold (uncached) run diverged");
    assert_eq!(&e.run(q).unwrap(), expected, "{label}: warm (cached) run diverged");
}

/// Interleaved updates: one batch script applied at 1 and 4 threads must
/// keep answers byte-identical to a *cold* engine bulk-built from a
/// set-of-triples model of the post-update contents after every step —
/// through staged overlays, an explicit mid-script COMPACT, and the
/// cached repeat of each answer.
#[test]
fn interleaved_updates_stay_byte_identical_to_a_cold_model() {
    let base_triples = vec![
        t("a", "edge", "b"),
        t("b", "edge", "c"),
        t("a", "edge", "c"),
        t("c", "edge", "d"),
        t("a", "kind", "thing"),
        t("b", "kind", "thing"),
    ];
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
        let e = Engine::with_config(
            SharedStore::from_triples(base_triples.clone()),
            PlannerConfig::with_flags(OptFlags::all())
                .with_runtime(RuntimeConfig::with_threads(threads)),
        );
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
                let label = format!("step {step}, {threads} threads, {shape}");
                assert_cold_and_warm(&e, &q, &expected, &label);
            }
        }
    }
}
