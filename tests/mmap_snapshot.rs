//! Zero-copy snapshot serving equivalence: an engine whose trie arenas
//! are served straight from `mmap`ed snapshot pages must be
//! observationally identical to one that copied the same file into the
//! heap — across partition counts, thread counts, cache states, and
//! post-load updates — and two mapped engines sharing one file must stay
//! independent under mutation.

use std::collections::BTreeSet;
use std::io::ErrorKind::NotFound;
use std::sync::Arc;

use wcoj_rdf::emptyheaded::{
    Engine, LoadMode, OptFlags, PlannerConfig, SharedStore, SnapshotError, UpdateBatch,
};
use wcoj_rdf::lubm::queries::{lubm_query, lubm_sparql, QUERY_NUMBERS};
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};
use wcoj_rdf::rdf::{Term, Triple, TripleStore};
use wcoj_rdf::srv::{respond, QueryService, ServiceConfig};
use wcoj_rdf::trie::FrozenTrie;

fn temp_snapshot(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("eh-mmap-{tag}-{}.snap", std::process::id()))
}

fn config(threads: usize) -> PlannerConfig {
    PlannerConfig::with_flags(OptFlags::all()).with_threads(threads)
}

fn svc_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        planner: config(threads),
        result_cache_bytes: 1 << 20,
        plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
        server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
        record_metrics: true,
        slow_query_ms: None,
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

/// Every base trie of the store: `((predicate, shard), so, os)`.
type BaseTries = Vec<((u32, usize), Arc<FrozenTrie>, Arc<FrozenTrie>)>;

fn base_tries(store: &TripleStore) -> BaseTries {
    let preds: BTreeSet<u32> = store.encoded_triples().map(|t| t.p).collect();
    let mut out = Vec::new();
    for p in preds {
        for shard in 0..store.partitions() {
            let rel = store.trie_pair(shard, p).expect("registered predicate");
            out.push(((p, shard), Arc::clone(rel.so()), Arc::clone(rel.os())));
        }
    }
    out
}

/// An update batch touching both an existing predicate and a new term.
fn batch() -> UpdateBatch {
    let ub = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#";
    let mut b = UpdateBatch::new();
    b.insert(Triple::new(
        Term::iri("http://www.Department0.University0.edu/GraduateStudentX"),
        Term::iri(format!("{ub}takesCourse")),
        Term::iri("http://www.Department0.University0.edu/GraduateCourse0"),
    ));
    b.delete(Triple::new(
        Term::iri("http://www.Department0.University0.edu/UndergraduateStudent0"),
        Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
        Term::iri(format!("{ub}UndergraduateStudent")),
    ));
    b
}

#[test]
fn mmap_matches_copy_across_partitions_threads_and_updates() {
    for partitions in [1usize, 4] {
        // A fresh store per (P, threads) cell: updates mutate it, and
        // both engines of one cell must start from identical state.
        for threads in [1usize, 4] {
            let tag = format!("matrix-p{partitions}-t{threads}");
            let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
            let cold = Engine::with_config(store.clone(), config(threads));
            if partitions > 1 {
                cold.repartition(partitions);
            }
            let path = temp_snapshot(&tag);
            cold.save_snapshot(&path).expect("snapshot writes");
            let file_len = std::fs::metadata(&path).expect("snapshot exists").len();

            let copied = Engine::open(&path, LoadMode::Copy, config(threads)).expect("copy load");
            let mapped = Engine::open(&path, LoadMode::Mmap, config(threads)).expect("mmap load");
            let load = mapped.load_info().expect("loaded engine records its load");
            assert_eq!(load.mode, LoadMode::Mmap, "{tag}: {:?}", load.fallback);
            assert_eq!(load.mapped_bytes, file_len, "{tag}: whole file mapped");
            let copy_load = copied.load_info().expect("loaded engine records its load");
            assert_eq!(copy_load.mode, LoadMode::Copy, "{tag}");
            assert_eq!(copy_load.mapped_bytes, 0, "{tag}");
            assert_eq!(mapped.store().partitions(), partitions, "{tag}");
            // Starts warm: every base trie is served from the mapping.
            let tries = base_tries(&mapped.store());
            assert!(!tries.is_empty(), "{tag}");
            assert!(tries.iter().all(|(_, so, os)| so.is_shared() && os.is_shared()), "{tag}");
            assert_lubm_equal(&copied, &mapped, &format!("{tag} fresh"));
            // Second pass over the workload: cached plans and warm tries
            // on both sides must not change a single row.
            assert_lubm_equal(&copied, &mapped, &format!("{tag} warm-cache"));

            // Post-load updates stage deltas on top of mapped arenas;
            // compaction folds them into freshly-owned base tables.
            let s1 = copied.update(batch());
            let s2 = mapped.update(batch());
            assert_eq!((s1.inserted, s1.deleted), (s2.inserted, s2.deleted), "{tag}");
            assert!(s1.inserted > 0 && s1.deleted > 0, "{tag}: batch must change something");
            assert_lubm_equal(&copied, &mapped, &format!("{tag} overlay"));
            copied.compact();
            mapped.compact();
            assert_lubm_equal(&copied, &mapped, &format!("{tag} compacted"));

            // Re-saving over the file the engine still serves from works
            // (atomic rename; the live mapping keeps the old inode), and
            // a fresh mapped load of the new file sees the updated data.
            mapped.save_snapshot(&path).expect("re-save over mapped file");
            assert_lubm_equal(&copied, &mapped, &format!("{tag} post-resave"));
            let reloaded = Engine::open(&path, LoadMode::Mmap, config(threads)).expect("reload");
            assert_eq!(
                reloaded.load_info().expect("reload records its load").mode,
                LoadMode::Mmap,
                "{tag}"
            );
            assert_lubm_equal(&copied, &reloaded, &format!("{tag} reloaded"));
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn two_mapped_services_share_one_file_and_stay_independent() {
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    let seed = QueryService::new(store, svc_config(2));
    let path = temp_snapshot("shared");
    seed.save_snapshot(&path).expect("snapshot writes");

    // Two processes' worth of engines on one file: both map the same
    // bytes (the page cache holds one physical copy).
    let a = QueryService::from_snapshot_mmap(&path, svc_config(2)).expect("service a");
    let b = QueryService::from_snapshot_mmap(&path, svc_config(2)).expect("service b");
    for svc in [&a, &b] {
        let load = svc.engine().load_info().expect("mapped service records its load");
        assert_eq!(load.mode, LoadMode::Mmap, "{:?}", load.fallback);
    }

    // Byte-identical wire responses, asked twice so the second answer
    // exercises each service's result cache.
    let requests: Vec<String> = QUERY_NUMBERS
        .iter()
        .map(|&n| format!("QUERY {}", lubm_sparql(n).expect("workload sparql")))
        .collect();
    let before: Vec<String> = requests.iter().map(|r| respond(&a, r)).collect();
    for (r, expect) in requests.iter().zip(&before) {
        assert_eq!(&respond(&a, r), expect, "a: cached answer diverged");
        assert_eq!(&respond(&b, r), expect, "b: fresh answer diverged");
        assert_eq!(&respond(&b, r), expect, "b: cached answer diverged");
    }

    // Mutating one service never leaks into the other: overlays and
    // compacted tables are process-private; the mapping is read-only.
    let summary = a.engine().update(batch());
    assert!(summary.inserted > 0 && summary.deleted > 0);
    a.invalidate();
    a.compact();
    let changed: Vec<String> = requests.iter().map(|r| respond(&a, r)).collect();
    assert_ne!(changed, before, "the update must be visible on a");
    for (r, expect) in requests.iter().zip(&before) {
        assert_eq!(&respond(&b, r), expect, "b must not see a's update");
    }
    std::fs::remove_file(&path).ok();
}

/// The trie is the relation, and compaction is surgical: folding one
/// (predicate, shard)'s delta replaces exactly that relation's two
/// `Arc`s with owned tries, while every other base trie stays the very
/// same mapped `Arc`.
#[test]
fn compact_replaces_exactly_the_folded_tries_and_the_rest_stay_mapped() {
    let ub = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#";
    for partitions in [1usize, 4] {
        let cold = Engine::with_config(generate_store(&GeneratorConfig::tiny(1)), config(2));
        cold.repartition(partitions);
        let path = temp_snapshot(&format!("surgical-p{partitions}"));
        cold.save_snapshot(&path).expect("snapshot writes");
        let mapped = Engine::open(&path, LoadMode::Mmap, config(2)).expect("mmap load");
        let before = base_tries(&mapped.store());

        // One triple, one existing subject: exactly one (pred, shard).
        let student = Term::iri("http://www.Department0.University0.edu/GraduateStudent0");
        let mut b = UpdateBatch::new();
        b.insert(Triple::new(
            student.clone(),
            Term::iri(format!("{ub}takesCourse")),
            Term::iri("http://www.Department0.University0.edu/Course0"),
        ));
        assert_eq!(mapped.update(b).inserted, 1, "P={partitions}");
        let target = {
            let store = mapped.store();
            let pred = store.resolve_iri(&format!("{ub}takesCourse")).expect("predicate");
            let subject = store.dict().lookup(&student).expect("existing subject");
            (pred, store.partitioner().shard_of(subject))
        };
        let summary = mapped.compact();
        assert_eq!((summary.compacted_predicates, summary.rebuilt_tries), (1, 2));

        let after = base_tries(&mapped.store());
        assert_eq!(after.len(), before.len());
        for ((key, so0, os0), (key1, so1, os1)) in before.iter().zip(&after) {
            assert_eq!(key, key1);
            if *key == target {
                assert!(!Arc::ptr_eq(so0, so1) && !Arc::ptr_eq(os0, os1), "P={partitions}");
                assert!(!so1.is_shared() && !os1.is_shared(), "P={partitions}: folded tries own");
                assert_eq!(so1.num_tuples(), so0.num_tuples() + 1);
            } else {
                assert!(Arc::ptr_eq(so0, so1) && Arc::ptr_eq(os0, os1), "P={partitions} {key:?}");
                assert!(so1.is_shared() && os1.is_shared(), "P={partitions} {key:?}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// An image has one encoding: saving a store, loading the image (copy
/// and mmap) and saving again reproduces the file byte for byte — with
/// staged deltas resident at the first save, so the fold inside `SAVE`
/// is part of what must be canonical. Once the image is gone, every open
/// path reports the missing file as a typed `NotFound`, never a fallback.
#[test]
fn save_load_save_is_a_byte_fixed_point() {
    for partitions in [1usize, 4] {
        let live = Engine::with_config(generate_store(&GeneratorConfig::tiny(1)), config(2));
        live.repartition(partitions);
        live.update(batch());
        assert!(live.store().has_deltas(), "P={partitions}: the batch must stay staged");
        let first = temp_snapshot(&format!("fixed-point-p{partitions}"));
        live.save_snapshot(&first).expect("first save");
        let image = std::fs::read(&first).expect("first image reads");
        assert_eq!(&image[..8], b"EHSNAP04");

        let again = temp_snapshot(&format!("fixed-point-p{partitions}-again"));
        let copied = Engine::open(&first, LoadMode::Copy, config(2)).expect("copy load");
        let mapped = Engine::open(&first, LoadMode::Mmap, config(2)).expect("mmap load");
        assert_eq!(mapped.load_info().expect("load recorded").mode, LoadMode::Mmap);
        for (engine, mode) in [(&copied, "copy"), (&mapped, "mmap")] {
            engine.save_snapshot(&again).expect("second save");
            let resaved = std::fs::read(&again).expect("second image reads");
            assert!(resaved == image, "P={partitions} {mode}: re-saved image differs");
        }
        std::fs::remove_file(&first).ok();
        std::fs::remove_file(&again).ok();

        let not_found =
            |e: SnapshotError| matches!(&e, SnapshotError::Io(io) if io.kind() == NotFound);
        for mode in [LoadMode::Copy, LoadMode::Mmap] {
            let e = Engine::open(&first, mode, config(2)).err().expect("the image is gone");
            assert!(not_found(e), "P={partitions} Engine::open {mode}");
        }
        let svc = QueryService::from_snapshot(&first, svc_config(2)).err().expect("image is gone");
        assert!(not_found(svc), "P={partitions} QueryService::from_snapshot");
        let svc = QueryService::from_snapshot_mmap(&first, svc_config(2)).err().expect("is gone");
        assert!(not_found(svc), "P={partitions} QueryService::from_snapshot_mmap");
    }
}
