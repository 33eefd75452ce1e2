//! Snapshot roundtrip equivalence: an engine (or service) restored from a
//! snapshot file must be observationally identical to a cold-built one —
//! same rows, same bytes on the wire, at 1 and 4 threads, before and
//! after post-load updates — for the full LUBM workload, the adhoc query
//! shapes, and proptest-generated graphs.

use proptest::prelude::*;
use wcoj_rdf::emptyheaded::{
    Engine, LoadMode, OptFlags, PlannerConfig, SharedStore, StoreSnapshot, UpdateBatch,
};
use wcoj_rdf::lubm::queries::{lubm_query, lubm_sparql, QUERY_NUMBERS};
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};
use wcoj_rdf::query::QueryBuilder;
use wcoj_rdf::rdf::{Term, Triple, TripleStore};
use wcoj_rdf::srv::{respond, QueryService, ServiceConfig};

fn temp_snapshot(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("eh-roundtrip-{tag}-{}.snap", std::process::id()))
}

fn config(threads: usize) -> PlannerConfig {
    PlannerConfig::with_flags(OptFlags::all()).with_threads(threads)
}

/// Save `engine`'s store to a fresh snapshot file and load it back.
fn reload(engine: &Engine, tag: &str, threads: usize) -> Engine {
    let path = temp_snapshot(tag);
    engine.save_snapshot(&path).expect("snapshot writes");
    let loaded = Engine::open(&path, LoadMode::Copy, config(threads)).expect("snapshot loads");
    std::fs::remove_file(&path).ok();
    loaded
}

/// Both orders of every (shard, predicate) hold identical tries.
fn assert_same_tries(a: &TripleStore, b: &TripleStore, label: &str) {
    let preds: std::collections::BTreeSet<u32> = a.encoded_triples().map(|t| t.p).collect();
    assert!(!preds.is_empty(), "{label}: empty store");
    for p in preds {
        for shard in 0..a.partitions() {
            let (ra, rb) = (a.trie_pair(shard, p).unwrap(), b.trie_pair(shard, p).unwrap());
            assert_eq!((ra.so() == rb.so(), ra.os() == rb.os()), (true, true), "{label}: pred {p}");
        }
    }
}

/// Identical answers for every LUBM query between two engines whose
/// stores share one dictionary (so raw u32 rows are comparable).
fn assert_lubm_equal(reference: &Engine, candidate: &Engine, label: &str) {
    for n in QUERY_NUMBERS {
        let q = {
            let store = reference.store();
            lubm_query(n, &store).expect("workload query")
        };
        let expect = reference.run(&q).expect("reference runs");
        let got = candidate.run(&q).expect("candidate runs");
        assert_eq!(got, expect, "{label}: query {n} diverged");
    }
}

#[test]
fn lubm_engine_roundtrips_at_one_and_four_threads() {
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    for threads in [1usize, 4] {
        let cold = Engine::with_config(store.clone(), config(threads));
        let loaded = reload(&cold, &format!("lubm-{threads}t"), threads);
        // The loaded engine starts warm: its base tries are the image's
        // and equal the cold store's, no build needed before the first
        // answer.
        assert_same_tries(&cold.store(), &loaded.store(), &format!("{threads} threads"));
        assert_lubm_equal(&cold, &loaded, &format!("{threads} threads"));
    }
}

#[test]
fn lubm_service_bytes_are_identical_over_the_wire_format() {
    // Byte-level equivalence through the serving tier: the rendered
    // protocol response of every LUBM query is identical between a cold
    // service and one restarted from the snapshot.
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    for threads in [1usize, 4] {
        let svc_config = ServiceConfig {
            planner: config(threads),
            result_cache_bytes: 1 << 20,
            plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
            server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
            record_metrics: true,
            slow_query_ms: None,
        };
        let cold = QueryService::new(store.clone(), svc_config);
        let path = temp_snapshot(&format!("svc-{threads}t"));
        cold.save_snapshot(&path).expect("snapshot writes");
        let warm = QueryService::from_snapshot(&path, svc_config).expect("snapshot loads");
        std::fs::remove_file(&path).ok();
        for n in QUERY_NUMBERS {
            let request = format!("QUERY {}", lubm_sparql(n).expect("workload sparql"));
            assert_eq!(
                respond(&warm, &request),
                respond(&cold, &request),
                "{threads} threads: query {n} bytes diverged"
            );
        }
    }
}

#[test]
fn post_load_updates_behave_like_a_cold_engine() {
    // After a restart from snapshot, the store must stay fully live:
    // applying the same update batch to a cold-built engine and a
    // snapshot-loaded one yields identical answers (the dictionaries are
    // identical, so even raw u32 rows must match).
    let ub = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#";
    let batch = || {
        let mut b = UpdateBatch::new();
        // A fresh student taking an existing course (new subject term)…
        b.insert(Triple::new(
            Term::iri("http://www.Department0.University0.edu/GraduateStudentX"),
            Term::iri(format!("{ub}takesCourse")),
            Term::iri("http://www.Department0.University0.edu/GraduateCourse0"),
        ));
        // …and a removal of an existing type assertion.
        b.delete(Triple::new(
            Term::iri("http://www.Department0.University0.edu/UndergraduateStudent0"),
            Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
            Term::iri(format!("{ub}UndergraduateStudent")),
        ));
        b
    };
    for threads in [1usize, 4] {
        // A fresh store per thread count: the updates below mutate it,
        // and both engines of one iteration must start from the same
        // (pristine, dictionary-identical) state.
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        let cold = Engine::with_config(store.clone(), config(threads));
        let loaded = reload(&cold, &format!("upd-{threads}t"), threads);
        let s1 = cold.update(batch());
        let s2 = loaded.update(batch());
        assert_eq!((s1.inserted, s1.deleted), (s2.inserted, s2.deleted));
        assert!(s1.inserted > 0 && s1.deleted > 0, "batch must change something");
        assert_lubm_equal(&cold, &loaded, &format!("{threads} threads post-update"));
        // And snapshotting the *updated* store roundtrips too.
        let again = reload(&loaded, &format!("upd2-{threads}t"), threads);
        assert_lubm_equal(&cold, &again, &format!("{threads} threads re-snapshot"));
    }
}

/// The adhoc-shapes graph (chains, stars, cycles beyond LUBM's shapes).
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
fn adhoc_shapes_roundtrip() {
    let store = SharedStore::new(graph_store());
    let (edge, link) = {
        let s = store.read();
        (s.resolve_iri("edge").unwrap(), s.resolve_iri("link").unwrap())
    };
    // Four-hop chain, wide star, and a four-cycle (fhw 2).
    let queries = {
        let mut qs = Vec::new();
        let mut qb = QueryBuilder::new();
        let vars: Vec<_> = (0..5).map(|i| qb.var(&format!("v{i}"))).collect();
        for w in vars.windows(2) {
            qb.atom("edge", edge, w[0], w[1]);
        }
        qs.push(qb.select(vec![vars[0], vars[4]]).build().unwrap());

        let mut qb = QueryBuilder::new();
        let hub = qb.var("hub");
        let leaves: Vec<_> = (0..4).map(|i| qb.var(&format!("l{i}"))).collect();
        qb.atom("edge", edge, hub, leaves[0])
            .atom("edge", edge, hub, leaves[1])
            .atom("link", link, hub, leaves[2])
            .atom("link", link, leaves[3], hub);
        qs.push(qb.select(vec![hub]).build().unwrap());

        let mut qb = QueryBuilder::new();
        let v: Vec<_> = (0..4).map(|i| qb.var(&format!("c{i}"))).collect();
        qb.atom("edge", edge, v[0], v[1])
            .atom("link", link, v[1], v[2])
            .atom("edge", edge, v[2], v[3])
            .atom("link", link, v[3], v[0]);
        qs.push(qb.select(v).build().unwrap());
        qs
    };
    for threads in [1usize, 4] {
        let cold = Engine::with_config(store.clone(), config(threads));
        let loaded = reload(&cold, &format!("adhoc-{threads}t"), threads);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(
                loaded.run(q).expect("loaded runs"),
                cold.run(q).expect("cold runs"),
                "{threads} threads: adhoc shape {i} diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs: the snapshot roundtrip preserves the store exactly
    /// (encoded triples, stats) and a 2-hop join answers identically on
    /// the loaded engine, serially and at 4 threads.
    #[test]
    fn random_graphs_roundtrip(
        edges in proptest::collection::vec((0u32..24, 0u32..2, 0u32..24), 1..120),
    ) {
        let triples: Vec<Triple> = edges
            .iter()
            .map(|&(s, p, o)| {
                Triple::new(
                    Term::iri(format!("n{s}")),
                    Term::iri(if p == 0 { "e" } else { "f" }.to_string()),
                    Term::iri(format!("n{o}")),
                )
            })
            .collect();
        let store = TripleStore::from_triples(triples);
        let mut bytes = Vec::new();
        StoreSnapshot::write(&store, &mut bytes).expect("writes");
        let snap = StoreSnapshot::read(&bytes[..]).expect("reads");
        prop_assert_eq!(snap.store.stats(), store.stats());
        prop_assert_eq!(
            snap.store.encoded_triples().collect::<Vec<_>>(),
            store.encoded_triples().collect::<Vec<_>>()
        );

        let pred = store.resolve_iri("e").expect("predicate e exists in dict");
        let q = {
            let mut qb = QueryBuilder::new();
            let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
            qb.atom("e", pred, x, y).atom("e", pred, y, z);
            qb.select(vec![x, z]).build().expect("query builds")
        };
        let cold = Engine::new(store, OptFlags::all());
        for threads in [1usize, 4] {
            let loaded = Engine::with_config(
                StoreSnapshot::read(&bytes[..]).expect("re-reads").store,
                config(threads),
            );
            prop_assert_eq!(
                loaded.run(&q).expect("loaded runs"),
                cold.run(&q).expect("cold runs"),
                "{} threads", threads
            );
        }
    }
}
