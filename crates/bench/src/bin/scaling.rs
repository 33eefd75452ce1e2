//! Thread-scaling harness for the parallel execution runtime: wall-clock
//! time of the worst-case optimal engine at 1/2/4/8 worker threads on the
//! LUBM triangle queries (2 and 9), the path query (8), and an
//! unselective two-hop path, with per-thread-count speedups.
//!
//! Before timing, every configuration's result is checked identical to
//! the sequential one (the runtime's determinism contract). The tries
//! every engine reads are the store's own, frozen once at load, so the
//! measurement excludes index construction (paper §IV-A4) with no warm
//! step.
//!
//! ```text
//! cargo run --release -p eh-bench --bin scaling -- --universities 1
//! ```
//!
//! Speedups require real cores: on a single-core host every thread count
//! measures the same serial machine and the table degenerates to ~1.00x.

use std::time::Duration;

use eh_bench::{fmt_ms, measure, BenchReport, HarnessArgs, TablePrinter};
use eh_lubm::queries::lubm_query;
use eh_lubm::{generate_store, pred_iri, GeneratorConfig, Predicate};
use eh_par::RuntimeConfig;
use eh_query::{ConjunctiveQuery, QueryBuilder};
use eh_rdf::TripleStore;
use emptyheaded::{Engine, OptFlags, PlannerConfig, SharedStore};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// An unselective two-hop path — student ⋈ takesCourse ⋈ teacherOf —
/// whose outer loop is the full student set: the purest test of the
/// morsel-partitioned outer attribute.
fn two_hop_path(store: &TripleStore) -> Option<ConjunctiveQuery> {
    let takes = pred_iri(Predicate::TakesCourse);
    let teaches = pred_iri(Predicate::TeacherOf);
    let takes_id = store.resolve_iri(&takes)?;
    let teaches_id = store.resolve_iri(&teaches)?;
    let mut qb = QueryBuilder::new();
    let (s, c, t) = (qb.var("student"), qb.var("course"), qb.var("teacher"));
    qb.atom(&takes, takes_id, s, c).atom(&teaches, teaches_id, t, c);
    qb.select(vec![s, c, t]).build().ok()
}

fn main() {
    let args = HarnessArgs::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = GeneratorConfig::scale(args.universities).with_seed(args.seed);
    eprintln!("generating LUBM({}) ...", args.universities);
    let store = SharedStore::new(generate_store(&cfg));
    println!(
        "Thread scaling — LUBM({}) = {} triples, {} runs averaged (best/worst dropped), {} cores",
        args.universities,
        store.read().stats().triples,
        args.runs,
        cores
    );
    if cores < THREAD_COUNTS[THREAD_COUNTS.len() - 1] {
        println!("note: only {cores} hardware threads available; expect flat scaling beyond that");
    }

    let queries: Vec<(String, ConjunctiveQuery)> = {
        let guard = store.read();
        [2u32, 9, 8]
            .into_iter()
            .map(|n| (format!("Q{n}"), lubm_query(n, &guard).expect("workload query")))
            .chain(two_hop_path(&guard).map(|q| ("2-hop".to_string(), q)))
            .collect()
    };

    let mut report = BenchReport::new("scaling");
    report
        .meta("universities", args.universities)
        .meta("seed", args.seed)
        .meta("cores", cores)
        .metric("triples", store.read().stats().triples as f64);
    let mut table = TablePrinter::new(&["Query", "Threads", "Join (ms)", "Speedup"]);
    for (label, q) in &queries {
        let reference = Engine::new(store.clone(), OptFlags::all()).run(q).expect("reference");
        let mut baseline: Option<Duration> = None;
        for threads in THREAD_COUNTS {
            let config = PlannerConfig::with_flags(OptFlags::all())
                .with_runtime(RuntimeConfig::with_threads(threads));
            let engine = Engine::with_config(store.clone(), config);
            let plan = engine.plan(q).expect("plannable");
            // Determinism check against the sequential reference.
            let result = engine.run_plan(q, &plan);
            assert_eq!(result, reference, "{label}: parallel result diverged at {threads} threads");

            let joined = measure(args.runs, || {
                let _ = engine.run_plan(q, &plan);
            });
            let base = *baseline.get_or_insert(joined);
            table.row(&[
                label.clone(),
                threads.to_string(),
                fmt_ms(joined),
                format!("{:.2}x", base.as_secs_f64() / joined.as_secs_f64()),
            ]);
            report.metric_ms(&format!("{label}.t{threads}.join_ms"), joined).metric(
                &format!("{label}.t{threads}.speedup"),
                base.as_secs_f64() / joined.as_secs_f64(),
            );
        }
    }
    println!("\n{}", table.render());
    match report.write() {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH json: {e}"),
    }
}
