//! Live-update acceptance tests: the serving tier over a mutable store.
//!
//! The contract under test (ISSUE 3): after an `INSERT`/`DELETE` batch is
//! applied through the TCP protocol, a repeated query returns results
//! **byte-identical** to a cold engine built from the post-update triple
//! set — on the cached, sequential, and parallel paths — while untouched
//! predicates keep their tries (no gratuitous rebuild). Writer/reader
//! stress runs exercise the same machinery under contention, down to
//! joins racing a writer that must each read one store state.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use wcoj_rdf::emptyheaded::{Engine, LoadMode, OptFlags, PlannerConfig, SharedStore, UpdateBatch};
use wcoj_rdf::lubm::queries::lubm_sparql;
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};
use wcoj_rdf::query::QueryBuilder;
use wcoj_rdf::rdf::{parse_ntriples, Term, Triple, TripleStore};
use wcoj_rdf::srv::{respond, serve, Client, QueryService, ServiceConfig};

fn t(s: &str, p: &str, o: &str) -> Triple {
    Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
}

fn base_triples() -> Vec<Triple> {
    vec![
        t("a", "edge", "b"),
        t("b", "edge", "c"),
        t("a", "edge", "c"),
        t("c", "edge", "d"),
        t("a", "kind", "thing"),
        t("b", "kind", "thing"),
    ]
}

fn config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        planner: PlannerConfig::with_flags(OptFlags::all()).with_threads(threads),
        result_cache_bytes: 1 << 20,
        plan_cache_entries: 64,
        server_sessions: 8,
        record_metrics: true,
        slow_query_ms: None,
    }
}

/// The acceptance matrix: updates over the wire, then byte-identical
/// answers on every execution path, at 1/2/4 engine worker threads.
#[test]
fn tcp_updates_answer_like_a_cold_engine_on_every_path() {
    // Triangle query over `edge` — exercises a genuine multiway join.
    let q = "SELECT ?x ?y ?z WHERE { ?x <edge> ?y . ?y <edge> ?z . ?x <edge> ?z }";
    for threads in [1usize, 2, 4] {
        let store = SharedStore::from_triples(base_triples());
        let svc = QueryService::new(store.clone(), config(threads));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc_ref, shutdown_ref) = (&svc, &shutdown);
            scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

            let mut client = Client::connect(addr).unwrap();
            // Warm both caches pre-update.
            let before = client.query(q).unwrap();
            assert!(before.starts_with("OK 1"), "{threads} threads: {before}");
            assert_eq!(client.query(q).unwrap(), before);

            // Close the second triangle (b, c, d) and break the first.
            for line in
                ["INSERT <b> <edge> <d> .", "DELETE <a> <edge> <b> .", "DELETE <nope> <edge> <x> ."]
            {
                assert!(client.send(line).unwrap().starts_with("OK pending"), "{line}");
            }
            let applied = client.send("APPLY").unwrap();
            assert_eq!(
                applied,
                "OK applied inserted=1 deleted=1 predicates=1 compacted=0 epoch=1\n"
            );

            // A cold engine over the post-update triple set: same store
            // contents (the dictionary is part of the store's identity),
            // zero warm state — every trie and cache rebuilt from scratch.
            let cold_store = TripleStore::clone(&svc.store());
            let fresh = |runtime_threads: usize| {
                let cold = QueryService::new(cold_store.clone(), config(runtime_threads));
                respond(&cold, &format!("QUERY {q}"))
            };
            let expect_seq = fresh(1);
            assert!(expect_seq.starts_with("OK 1"), "{expect_seq}");
            // Sequential and parallel cold engines agree byte-for-byte.
            assert_eq!(fresh(2), expect_seq);
            assert_eq!(fresh(4), expect_seq);

            // The live service: first post-update answer (fresh execution)
            // and the repeat (cache-served) both match the cold bytes.
            let after = client.query(q).unwrap();
            assert_eq!(after, expect_seq, "{threads} threads: fresh post-update answer");
            let cached = client.query(q).unwrap();
            assert_eq!(cached, expect_seq, "{threads} threads: cached post-update answer");
            let stats = client.send("STATS").unwrap();
            assert!(stats.contains("updates=1 updates_noop=0 inserted=1 deleted=1"), "{stats}");

            client.send("QUIT").ok();
            drop(client);
            shutdown.store(true, Ordering::Release);
        });
    }
}

/// A small batch must not rebuild *any* trie: it stages as an LSM
/// overlay (O(delta) apply, base tries untouched), and only compaction —
/// which retires per predicate, not wholesale — re-freezes the changed
/// one while the untouched predicate keeps its trie throughout.
#[test]
fn untouched_predicates_keep_their_tries() {
    let store = SharedStore::from_triples(base_triples());
    let engine = Engine::new(store.clone(), OptFlags::all());
    // The subject-major base trie the store holds for a predicate.
    let so = |rel: &str| {
        let store = engine.store();
        let pred = store.resolve_iri(rel).unwrap();
        std::sync::Arc::clone(store.trie_pair(pred).unwrap().so())
    };
    let edge_before = so("edge");
    let kind_before = so("kind");

    let mut batch = UpdateBatch::new();
    batch.insert(t("d", "edge", "e"));
    let summary = engine.update(batch);
    // Staged, not rebuilt: update cost is O(delta), not O(predicate).
    assert_eq!(
        (
            summary.inserted,
            summary.changed_predicates,
            summary.rebuilt_tries,
            summary.compacted_predicates
        ),
        (1, 1, 0, 0)
    );
    let edge_staged = so("edge");
    assert!(
        std::sync::Arc::ptr_eq(&edge_before, &edge_staged),
        "a staged batch must keep the base trie frozen in place"
    );
    assert!(engine.store().has_deltas());

    // Compaction folds the overlay off the hot path: only the changed
    // predicate's cached tries are re-frozen.
    let c = engine.compact();
    assert_eq!(c.compacted_predicates, 1);
    assert!(c.rebuilt_tries >= 1, "compaction rebuilds the cached orders");
    let edge_after = so("edge");
    let kind_after = so("kind");
    assert!(
        !std::sync::Arc::ptr_eq(&edge_before, &edge_after),
        "compacted predicate must get a fresh trie"
    );
    assert_eq!(edge_after.num_tuples(), 5);
    assert!(
        std::sync::Arc::ptr_eq(&kind_before, &kind_after),
        "untouched predicate's trie must be rebuilt exactly never"
    );
}

/// Every overlay lifecycle stage — deltas resident, mid-compaction (one
/// predicate folded by threshold, the other still overlaid), and
/// post-compaction — answers identically to a cold engine built from the
/// final store contents, at 1/2/4 threads, for insert-mostly and
/// tombstone-heavy (delete-mostly) batches alike.
#[test]
fn overlay_lifecycle_matches_cold_engine_at_every_stage() {
    let queries = [
        "SELECT ?x ?y ?z WHERE { ?x <edge> ?y . ?y <edge> ?z . ?x <edge> ?z }",
        "SELECT ?x ?y WHERE { ?x <edge> ?y . ?x <kind> <thing> }",
        "SELECT ?x WHERE { ?x <kind> <thing> }",
    ];
    // One insert-mostly batch, one delete-mostly: both touch `edge` (3
    // staged pairs) and `kind` (1 staged pair). No batch introduces new
    // dictionary terms, so results compare exactly across engines.
    let batches: Vec<UpdateBatch> = vec![
        {
            let mut b = UpdateBatch::new();
            b.insert(t("b", "edge", "d"))
                .insert(t("d", "edge", "a"))
                .insert(t("c", "kind", "thing"))
                .delete(t("a", "edge", "b"));
            b
        },
        {
            let mut b = UpdateBatch::new();
            b.delete(t("b", "edge", "c"))
                .delete(t("c", "edge", "d"))
                .delete(t("b", "kind", "thing"))
                .insert(t("d", "edge", "b"));
            b
        },
    ];
    for threads in [1usize, 2, 4] {
        for batch in &batches {
            let planner = PlannerConfig::with_flags(OptFlags::all()).with_threads(threads);
            let live = Engine::with_config(SharedStore::from_triples(base_triples()), planner);
            // Warm pre-update caches so stale state would be caught.
            for q in &queries {
                live.run_sparql(q).unwrap();
            }
            let s = live.update(batch.clone());
            assert_eq!(s.rebuilt_tries, 0, "default threshold keeps the batch staged");
            assert!(live.store().has_deltas());

            // The reference: a cold engine over the final logical
            // contents (clone carries the deltas; compact folds them).
            let cold = {
                let mut snap = TripleStore::clone(&live.store());
                snap.compact_all();
                Engine::with_config(
                    SharedStore::new(snap),
                    PlannerConfig::with_flags(OptFlags::all()),
                )
            };

            // Stage 1: deltas resident.
            for q in &queries {
                assert_eq!(
                    live.run_sparql(q).unwrap(),
                    cold.run_sparql(q).unwrap(),
                    "deltas resident, {threads} threads: {q}"
                );
            }

            // Stage 2: mid-compaction. A threshold of max(2, 1% of base)
            // folds `edge` (3 staged) inline but leaves `kind` (1 staged)
            // overlaid — a genuinely mixed base/overlay catalog.
            let mid = Engine::with_config(
                SharedStore::from_triples(base_triples()),
                planner.with_compaction(2, 1),
            );
            for q in &queries {
                mid.run_sparql(q).unwrap();
            }
            let sm = mid.update(batch.clone());
            assert_eq!(
                (sm.changed_predicates, sm.compacted_predicates),
                (2, 1),
                "threshold must fold edge and keep kind staged"
            );
            assert!(mid.store().has_deltas(), "kind stays overlaid mid-compaction");
            for q in &queries {
                assert_eq!(
                    mid.run_sparql(q).unwrap(),
                    cold.run_sparql(q).unwrap(),
                    "mid-compaction, {threads} threads: {q}"
                );
            }

            // Stage 3: post-compaction.
            let c = live.compact();
            assert_eq!(c.compacted_predicates, 2);
            assert!(!live.store().has_deltas());
            for q in &queries {
                assert_eq!(
                    live.run_sparql(q).unwrap(),
                    cold.run_sparql(q).unwrap(),
                    "post-compaction, {threads} threads: {q}"
                );
            }
        }
    }
}

/// Concurrent readers against a writer toggling the store between two
/// states: every answer must correspond to one of the two consistent
/// states (never a stale trie served past its epoch), and the final
/// answer must equal a cold engine over the final contents.
#[test]
fn readers_race_a_writer_and_only_ever_see_consistent_states() {
    let store = SharedStore::from_triples(base_triples());
    let svc = QueryService::new(store.clone(), config(2));
    let q = "SELECT ?x ?y WHERE { ?x <edge> ?y }";

    // The two valid renderings: without and with the toggled triple
    // (independent snapshot stores — not the live handle).
    let state_a = respond(
        &QueryService::new(SharedStore::from_triples(base_triples()), config(1)),
        &format!("QUERY {q}"),
    );
    let with_extra = {
        let extra = SharedStore::from_triples(
            base_triples().into_iter().chain([t("z", "edge", "a")]).collect::<Vec<_>>(),
        );
        respond(&QueryService::new(extra, config(1)), &format!("QUERY {q}"))
    };
    assert_ne!(state_a, with_extra);

    let rounds = 30usize;
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for i in 0..rounds {
                let mut batch = UpdateBatch::new();
                if i % 2 == 0 {
                    batch.insert(t("z", "edge", "a"));
                } else {
                    batch.delete(t("z", "edge", "a"));
                }
                svc.update(batch);
            }
        });
        for _ in 0..3 {
            scope.spawn(|| {
                for _ in 0..rounds {
                    let got = respond(&svc, &format!("QUERY {q}"));
                    // `z` decodes identically in both dictionaries (it is
                    // appended after the shared base), so a byte match
                    // against either reference is exact.
                    assert!(
                        got == state_a || got == with_extra,
                        "inconsistent snapshot served:\n{got}"
                    );
                }
            });
        }
        writer.join().unwrap();
    });

    // Convergence: `rounds` is even, so the toggle ends deleted.
    assert_eq!(respond(&svc, &format!("QUERY {q}")), state_a);
    let stats = svc.stats();
    assert_eq!(stats.updates_applied, rounds as u64);
    assert_eq!(stats.triples_inserted, (rounds as u64).div_ceil(2));
    assert_eq!(stats.triples_deleted, rounds as u64 / 2);
}

/// A join racing a writer reads one store state. Two predicates move in
/// lockstep — batch `k` deletes `s{k-1}` and inserts `s{k}` under both
/// `p` and `q` — so every store state answers `?x p ?y . ?x q ?y` with
/// exactly one row, and an answer assembled from two states has none.
/// Every answer counts, whether the writer only stages, compacts every
/// other batch, or compacts every batch. Each mode runs until the readers
/// have had `ANSWERS` answers or `MODE_CAP` passes, so the check does not
/// depend on how the threads get scheduled: three modes, ≤ 7.5 s in
/// debug.
#[test]
fn a_reader_racing_a_writer_sees_one_store_state() {
    #[derive(Debug, Clone, Copy)]
    enum Writer {
        Stage,
        CompactEvery(usize),
    }
    const READERS: usize = 3;
    const ANSWERS: usize = 50_000;
    const MODE_CAP: Duration = Duration::from_millis(2500);
    for mode in [Writer::Stage, Writer::CompactEvery(2), Writer::CompactEvery(1)] {
        let store = SharedStore::from_triples(vec![t("s0", "p", "o"), t("s0", "q", "o")]);
        let engine = Engine::new(store.clone(), OptFlags::all());
        let q = {
            let pinned = store.read();
            let mut qb = QueryBuilder::new();
            let (x, y) = (qb.var("x"), qb.var("y"));
            for rel in ["p", "q"] {
                qb.atom(rel, pinned.resolve_iri(rel).unwrap(), x, y);
            }
            qb.select(vec![x, y]).build().unwrap()
        };
        let plan = engine.plan(&q).unwrap();
        let done = AtomicBool::new(false);
        let (answers, torn) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..READERS)
                .map(|_| {
                    scope.spawn(|| {
                        while !done.load(Ordering::Acquire) {
                            let r = engine.run_plan(&q, &plan);
                            answers.fetch_add(1, Ordering::Relaxed);
                            if r.cardinality() != 1 {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            let t0 = Instant::now();
            let mut k = 0usize;
            while answers.load(Ordering::Relaxed) < ANSWERS && t0.elapsed() < MODE_CAP {
                k += 1;
                let mut batch = UpdateBatch::new();
                for rel in ["p", "q"] {
                    batch.delete(t(&format!("s{}", k - 1), rel, "o"));
                    batch.insert(t(&format!("s{k}"), rel, "o"));
                }
                engine.update(batch);
                match mode {
                    Writer::Stage => {}
                    Writer::CompactEvery(n) => {
                        if k.is_multiple_of(n) {
                            engine.compact();
                        }
                    }
                }
            }
            done.store(true, Ordering::Release);
            for r in readers {
                r.join().expect("a reader panicked mid-join");
            }
        });
        let (answers, torn) = (answers.into_inner(), torn.into_inner());
        assert_eq!(torn, 0, "{mode:?}: {torn} of {answers} answers mixed two states");
    }
}

/// The protocol parses real N-Triples term syntax, including literals and
/// the trailing-comment form the grammar allows.
#[test]
fn update_lines_accept_full_ntriples_term_syntax() {
    let store = SharedStore::from_triples(base_triples());
    let svc = QueryService::new(store.clone(), config(1));
    let mut session = wcoj_rdf::srv::Session::new();
    let stage = |session: &mut wcoj_rdf::srv::Session, line: &str| {
        wcoj_rdf::srv::respond_in_session(&svc, session, line)
    };
    assert!(stage(&mut session, r#"INSERT <a> <label> "a \"quoted\" name" . # note"#)
        .starts_with("OK pending"));
    assert!(stage(&mut session, "APPLY").starts_with("OK applied inserted=1"));
    let answer = svc.query_sparql("SELECT ?n WHERE { <a> <label> ?n }").unwrap();
    assert_eq!(answer.result.cardinality(), 1);

    // And the same line round-trips through the parser used at load time.
    let parsed = parse_ntriples(r#"<a> <label> "a \"quoted\" name" . # note"#).unwrap();
    assert_eq!(parsed.len(), 1);
}

// ---------------------------------------------------------------------
// Durability kill matrix: a child process is SIGKILLed at an armed crash
// point inside the WAL/engine write path; the parent recovers from the
// files left behind and must land byte-identically on the state a
// never-crashed engine reaches with the same logged prefix.
// ---------------------------------------------------------------------

/// The queries byte-identity is asserted on: a full dump of `edge`, a
/// genuine multiway join, and the untouched `kind` predicate.
const MATRIX_QUERIES: &[&str] = &[
    "SELECT ?x ?y WHERE { ?x <edge> ?y }",
    "SELECT ?x ?y ?z WHERE { ?x <edge> ?y . ?y <edge> ?z . ?x <edge> ?z }",
    "SELECT ?x WHERE { ?x <kind> <thing> }",
];

/// The deterministic update stream both the child and the reference
/// engine draw from: batch `k` grows the graph with fresh terms and,
/// from `k >= 2` on, deletes a triple an earlier batch inserted — so a
/// replayed prefix is visibly different from any other prefix.
fn matrix_batch(k: usize) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    b.insert(t(&format!("n{k}"), "edge", &format!("n{}", k + 1)));
    b.insert(t("a", "edge", &format!("n{k}")));
    b.insert(t(&format!("n{k}"), "edge", "a"));
    if k >= 2 {
        b.delete(t("a", "edge", &format!("n{}", k - 2)));
    }
    b
}

fn matrix_engine(threads: usize) -> Engine {
    let store = SharedStore::from_triples(base_triples());
    Engine::with_config(store, PlannerConfig::with_flags(OptFlags::all()).with_threads(threads))
}

/// Decode every answer row to strings: dictionary-independent, so a
/// recovered engine (whose dictionary grew in replay order) compares
/// exactly against a reference that interned the same terms directly.
fn decoded(engine: &Engine, q: &str) -> Vec<Vec<String>> {
    let r = engine.run_sparql(q).unwrap();
    let guard = engine.store();
    (0..r.cardinality())
        .map(|i| r.decode_row(&guard, i).into_iter().map(|t| t.as_str().to_string()).collect())
        .collect()
}

fn assert_answers_match(recovered: &Engine, reference: &Engine, context: &str) {
    for q in MATRIX_QUERIES {
        assert_eq!(decoded(recovered, q), decoded(reference, q), "{context}: {q}");
    }
}

fn matrix_temp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("eh-kill-{tag}-{}.{ext}", std::process::id()))
}

/// Child half of the kill matrix. Only acts when a parent armed it via
/// `EH_KILL_CHILD`; under a normal `cargo test` run it is an instant
/// no-op. The parent also arms `EH_CRASH_POINT`, so one of the
/// `engine.update` / `engine.save_snapshot` calls below SIGKILLs the
/// process mid-write.
#[test]
fn kill_matrix_child() {
    if std::env::var("EH_KILL_CHILD").is_err() {
        return;
    }
    let env_num = |key: &str, default: usize| {
        std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    };
    let wal = std::env::var("EH_CHILD_WAL").unwrap();
    let batches = env_num("EH_CHILD_BATCHES", 6);
    let save_after = std::env::var("EH_CHILD_SAVE_AFTER").ok().and_then(|v| v.parse().ok());
    let mut engine = matrix_engine(env_num("EH_CHILD_THREADS", 1));
    engine.open_wal(&wal).unwrap();
    for k in 0..batches {
        if save_after == Some(k) {
            engine.save_snapshot(std::env::var("EH_CHILD_SNAP").unwrap()).unwrap();
        }
        engine.update(matrix_batch(k));
    }
    // Reaching here means the armed crash point never fired — make the
    // misconfiguration loud (the parent asserts on death by SIGKILL).
    std::process::exit(42);
}

/// Re-run this test binary as `kill_matrix_child` with a crash point
/// armed, and assert the child actually died by SIGKILL there.
#[cfg(unix)]
#[allow(clippy::too_many_arguments)]
fn spawn_killed_child(
    point: &str,
    hit: usize,
    wal: &Path,
    snap: Option<&Path>,
    threads: usize,
    batches: usize,
    save_after: Option<usize>,
) {
    use std::os::unix::process::ExitStatusExt;
    let mut cmd = std::process::Command::new(std::env::current_exe().unwrap());
    cmd.args(["kill_matrix_child", "--exact", "--test-threads=1", "--nocapture"])
        .env("EH_KILL_CHILD", "1")
        .env("EH_CRASH_POINT", format!("{point}:{hit}"))
        .env("EH_CHILD_WAL", wal)
        .env("EH_CHILD_THREADS", threads.to_string())
        .env("EH_CHILD_BATCHES", batches.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if let Some(snap) = snap {
        cmd.env("EH_CHILD_SNAP", snap);
    }
    if let Some(after) = save_after {
        cmd.env("EH_CHILD_SAVE_AFTER", after.to_string());
    }
    let status = cmd.status().unwrap();
    assert_eq!(
        status.signal(),
        Some(9),
        "crash point {point}:{hit} must SIGKILL the child (got {status:?})"
    );
}

/// One kill-matrix scenario end to end: crash the child at `point` on
/// its `hit`-th firing, recover (snapshot if one was written, else the
/// base store, then the log), and compare against a reference engine
/// that applied exactly the recovered `last_seq` prefix of the stream.
#[cfg(unix)]
fn run_kill_scenario(
    tag: &str,
    point: &str,
    hit: usize,
    threads: usize,
    save_after: Option<usize>,
) {
    let batches = 6usize;
    let wal = matrix_temp(&format!("{tag}-{point}-{hit}-{threads}"), "wal");
    let snap = matrix_temp(&format!("{tag}-{point}-{hit}-{threads}"), "snap");
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&snap).ok();

    spawn_killed_child(point, hit, &wal, Some(&snap), threads, batches, save_after);

    // Recover exactly like the server binary: image first (if the crash
    // happened after the rename), then the log tail.
    let context = format!("{point}:{hit} threads={threads}");
    let mut recovered = if snap.exists() {
        Engine::open(
            &snap,
            LoadMode::Copy,
            PlannerConfig::with_flags(OptFlags::all()).with_threads(threads),
        )
        .unwrap()
    } else {
        matrix_engine(threads)
    };
    let recovery = recovered.open_wal(&wal).unwrap_or_else(|e| panic!("{context}: {e}"));
    let survived = recovery.last_seq as usize;
    assert!(survived <= batches, "{context}: log claims more batches than the child ran");

    // The oracle: a never-crashed engine fed the same logged prefix.
    let reference = matrix_engine(threads);
    for k in 0..survived {
        reference.update(matrix_batch(k));
    }
    assert_answers_match(&recovered, &reference, &context);
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&snap).ok();
}

/// Every append/stage crash point, armed mid-stream, at the base
/// configuration — plus the sharpened per-point expectations (what a
/// torn tail leaves, what a completed append guarantees).
#[cfg(unix)]
#[test]
fn kill_matrix_append_points_recover_byte_identical() {
    for (point, hit) in [
        // Before anything is written: the log ends at the prior batch.
        ("wal-append-pre", 3),
        // Mid-frame: a real torn tail, dropped on recovery.
        ("wal-append-torn", 3),
        // Frame durable, staging never ran: write-ahead means the batch
        // still commits — recovery replays it.
        ("wal-append-post", 3),
        // Staged and logged: the no-crash fast path boundary.
        ("engine-staged", 3),
        // First and last batch of the stream, not just the middle.
        ("wal-append-torn", 1),
        ("engine-staged", 6),
    ] {
        run_kill_scenario("append", point, hit, 1, None);
    }
}

/// Spot combinations of engine threads and crash points: the recovery
/// path must not depend on worker count.
#[cfg(unix)]
#[test]
fn kill_matrix_thread_and_partition_combinations() {
    for (threads, point, hit) in [
        (2, "wal-append-torn", 4),
        (4, "engine-staged", 3),
        (1, "wal-append-post", 2),
        (4, "wal-append-torn", 5),
        (2, "wal-append-pre", 2),
    ] {
        run_kill_scenario("combo", point, hit, threads, None);
    }
}

/// Crash points inside SAVE and the log truncation that follows it. Every
/// landing spot — image not yet written, image renamed but log whole,
/// truncation staged but not renamed, truncation done — must recover to
/// the same state, because replaying already-folded records is
/// idempotent.
#[cfg(unix)]
#[test]
fn kill_matrix_save_and_truncate_points_recover_idempotently() {
    for point in [
        "engine-save-pre",
        "engine-save-renamed",
        "wal-truncate-pre",
        "wal-truncate-staged",
        "wal-truncate-post",
    ] {
        // The child applies 3 batches, SAVEs, then applies 3 more; the
        // armed point fires inside that SAVE.
        run_kill_scenario("save", point, 1, 1, Some(3));
    }
}

/// Concurrent SAVEs racing a live writer: the WAL sequence is captured
/// under the wal lock in the same bracket as the store clone, so a record
/// is truncated iff it is in the image — and saves run one at a time from
/// clone to truncation, so the image on disk and the log's base sequence
/// advance together. If a save that captured an older sequence could
/// rename its image over a newer one whose save already truncated the
/// log (or trip the log's monotonic-truncation assert and poison the wal
/// mutex), recovery here would lose an acknowledged batch or the writer
/// would panic. Several savers share one path, so they would also share
/// a temp file if its name were not unique per save.
#[test]
fn save_racing_a_writer_loses_no_acknowledged_batch() {
    const SAVERS: usize = 3;
    const BATCHES: usize = 400;
    let wal = matrix_temp("race", "wal");
    let snap = matrix_temp("race", "snap");
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&snap).ok();

    let mut engine = matrix_engine(2);
    engine.open_wal(&wal).unwrap();
    let engine = engine;
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(SAVERS + 1);
    std::thread::scope(|scope| {
        // Each SAVE captures whatever prefix its clone saw and truncates
        // exactly that; the savers keep going until the writer is done, so
        // every append lands between some pair of overlapping saves.
        let savers: Vec<_> = (0..SAVERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    let mut saves = 0usize;
                    while !done.load(Ordering::SeqCst) {
                        engine.save_snapshot(&snap).unwrap();
                        saves += 1;
                    }
                    saves
                })
            })
            .collect();
        start.wait();
        for k in 0..BATCHES {
            engine.update(matrix_batch(k));
        }
        done.store(true, Ordering::SeqCst);
        for saver in savers {
            assert!(saver.join().expect("a saver panicked") > 0);
        }
    });
    assert_eq!(engine.wal_status().unwrap().seq, BATCHES as u64);

    // Recover from the last image + the log tail: every acknowledged
    // batch must be there, and nothing else.
    let mut recovered =
        Engine::open(&snap, LoadMode::Copy, PlannerConfig::with_flags(OptFlags::all())).unwrap();
    recovered.open_wal(&wal).unwrap();
    assert_answers_match(&recovered, &engine, "saves racing writer");
    let triples = |e: &Engine| -> Vec<String> {
        let store = e.store();
        let mut v: Vec<String> =
            store.encoded_triples().map(|t| format!("{:?}", store.decode_triple(t))).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(triples(&recovered), triples(&engine), "recovered store differs from live");
    let litter = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("eh-kill-race-") && name.contains(".snap.tmp."))
        .count();
    assert_eq!(litter, 0, "temp images left behind");
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&snap).ok();
}

/// LUBM-scale smoke: updates against a generated dataset keep the full
/// workload answerable and consistent with a cold engine.
#[test]
fn lubm_store_survives_update_cycles() {
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    let svc = QueryService::new(store.clone(), config(2));
    let q14 = lubm_sparql(14).unwrap().replace(['\n', '\r'], " ");
    let before = respond(&svc, &format!("QUERY {q14}"));
    assert!(before.starts_with("OK "), "{before}");

    // Insert a brand-new graduate student typed like the generator does,
    // via predicates that already exist in the store.
    let rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    let ugrad = "http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#UndergraduateStudent";
    let mut batch = UpdateBatch::new();
    batch.insert(t("http://ex/new-student", rdf_type, ugrad));
    let summary = svc.update(batch);
    assert_eq!((summary.inserted, summary.changed_predicates), (1, 1));

    let after = respond(&svc, &format!("QUERY {q14}"));
    let cold = {
        let snapshot = TripleStore::clone(&svc.store());
        respond(&QueryService::new(snapshot, config(1)), &format!("QUERY {q14}"))
    };
    assert_eq!(after, cold, "post-update LUBM answer equals a cold engine's");
    assert_ne!(after, before, "Q14 must see the new undergraduate");
}
