//! Cold-start harness: N-Triples parse+build versus snapshot loads.
//!
//! ```text
//! cargo run --release -p eh-bench --bin coldstart -- --universities 1
//! ```
//!
//! Measures end-to-end time-to-first-query-ready for the three startup
//! paths a production deployment has:
//!
//! * **cold** — read an `.nt` file, parse it, dictionary-encode, sort
//!   every predicate's pairs in both orders and freeze both tries;
//! * **snapshot** — `StoreSnapshot::read` (bulk load, checksum, the
//!   reader's checks, zero re-sorting): the shipped tries *are* the
//!   store;
//! * **mmap** — `StoreSnapshot::read_from_path_mmap`: the same decode
//!   and checks, but trie arenas serve straight from the mapped file's
//!   page-cache pages instead of being copied into the heap.
//!
//! Startup means *index-ready*: store loaded and both tries of every
//! relation resident — the state from which a first query pays only
//! execution.
//! Query execution itself is identical in all paths (the tries are
//! equal), so it runs outside the timed region purely as the
//! equivalence check: every engine must answer LUBM query 2
//! byte-identically. Pass `--min-speedup X` to make the process exit
//! non-zero unless snapshot startup is at least `X` times faster than
//! cold startup, and `--min-mmap-speedup X` to require the mmap load to
//! be at least `X` times faster than the copying snapshot load (the CI
//! gates use both). A `BENCH_coldstart.json` report lands in
//! `$EH_BENCH_OUT` (or the working directory).

use std::time::Instant;

use eh_bench::{fmt_ms, measure, BenchReport, TablePrinter};
use eh_lubm::queries::lubm_query;
use eh_lubm::{generate_triples, GeneratorConfig};
use eh_rdf::{parse_ntriples, write_ntriples, TripleStore};
use emptyheaded::{Engine, LoadMode, OptFlags, PlannerConfig, QueryResult};

struct Args {
    universities: u32,
    runs: usize,
    seed: u64,
    min_speedup: Option<f64>,
    min_mmap_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut args =
        Args { universities: 1, runs: 5, seed: 42, min_speedup: None, min_mmap_speedup: None };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> f64 {
            argv.get(i + 1)
                .unwrap_or_else(|| panic!("missing value after {}", argv[i]))
                .parse::<f64>()
                .unwrap_or_else(|e| panic!("bad value after {}: {e}", argv[i]))
        };
        match argv[i].as_str() {
            "--universities" | "-u" => args.universities = value(i) as u32,
            "--runs" | "-r" => args.runs = value(i) as usize,
            "--seed" | "-s" => args.seed = value(i) as u64,
            "--min-speedup" => args.min_speedup = Some(value(i)),
            "--min-mmap-speedup" => args.min_mmap_speedup = Some(value(i)),
            other => {
                eprintln!(
                    "unknown argument {other}; expected --universities N, --runs K, --seed S, \
                     --min-speedup X, --min-mmap-speedup X"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    assert!(args.runs >= 3, "need at least 3 runs to drop best and worst");
    args
}

/// The "ready" probe both startup paths must pass through: answer LUBM
/// query 2 on a fresh engine over the given store state.
fn first_answer(engine: &Engine) -> QueryResult {
    let q = {
        let store = engine.store();
        lubm_query(2, &store).expect("LUBM query 2")
    };
    engine.run(&q).expect("query 2 runs")
}

/// Cold path: parse N-Triples text and build the store (dictionary +
/// both frozen tries per predicate).
fn cold_start(nt_text: &str) -> Engine {
    let triples = parse_ntriples(nt_text).expect("generated N-Triples parse");
    Engine::new(TripleStore::from_triples(triples), OptFlags::all())
}

/// Snapshot path: bulk-load the snapshot file; its tries are the
/// store's.
fn snapshot_start(path: &std::path::Path) -> Engine {
    Engine::from_snapshot(path, PlannerConfig::with_flags(OptFlags::all())).expect("snapshot loads")
}

/// Zero-copy path: map the snapshot file and serve trie arenas from its
/// pages (falls back to the copy path on unsupported platforms).
fn mmap_start(path: &std::path::Path) -> Engine {
    Engine::from_snapshot_mmap(path, PlannerConfig::with_flags(OptFlags::all()))
        .expect("mmap snapshot loads")
}

fn main() {
    let args = parse_args();
    let config = GeneratorConfig::tiny(args.universities).with_seed(args.seed);
    let triples = generate_triples(&config);
    let nt_text = write_ntriples(&triples);
    let dir = std::env::temp_dir();
    let nt_path = dir.join(format!("eh-coldstart-{}.nt", std::process::id()));
    let snap_path = dir.join(format!("eh-coldstart-{}.snap", std::process::id()));
    std::fs::write(&nt_path, &nt_text).expect("write .nt");
    println!(
        "LUBM tiny({}) seed {}: {} triples, {} N-Triples bytes",
        args.universities,
        args.seed,
        triples.len(),
        nt_text.len()
    );

    // Build the snapshot once from the cold store (reporting write cost),
    // then check all paths answer identically before timing anything.
    let cold_engine = cold_start(&nt_text);
    let cold_answer = first_answer(&cold_engine);
    let t0 = Instant::now();
    let (snap_bytes, _) = cold_engine.save_snapshot(&snap_path).expect("snapshot writes");
    let write_time = t0.elapsed();
    let snap_engine = snapshot_start(&snap_path);
    assert_eq!(first_answer(&snap_engine), cold_answer, "snapshot must answer byte-identically");
    let mmap_engine = mmap_start(&snap_path);
    let mmap_load = mmap_engine.load_info().expect("snapshot-built engine records its load");
    assert_eq!(first_answer(&mmap_engine), cold_answer, "mmap must answer byte-identically");
    if let Some(reason) = mmap_load.fallback {
        eprintln!("note: mmap load fell back to copy ({reason})");
    }
    drop((cold_engine, snap_engine, mmap_engine));

    // Timed startup runs (paper methodology: drop best and worst, average
    // the rest). File reads go through the OS cache in all paths, which
    // is exactly the restart scenario that matters. Engines escape the
    // timed closure so their first answer can be verified afterwards.
    let engines: std::sync::Mutex<Vec<Engine>> = std::sync::Mutex::new(Vec::new());
    let cold = measure(args.runs, || {
        let text = std::fs::read_to_string(&nt_path).expect("read .nt");
        engines.lock().expect("lock").push(cold_start(&text));
    });
    let snap = measure(args.runs, || {
        engines.lock().expect("lock").push(snapshot_start(&snap_path));
    });
    let mmap = measure(args.runs, || {
        engines.lock().expect("lock").push(mmap_start(&snap_path));
    });
    let engines = engines.into_inner().expect("lock");
    assert!(
        engines.iter().all(|e| first_answer(e) == cold_answer),
        "every started engine must answer byte-identically"
    );
    drop(engines);

    let speedup = cold.as_secs_f64() / snap.as_secs_f64();
    let mmap_speedup = snap.as_secs_f64() / mmap.as_secs_f64();
    let mmap_label = format!("mmap load ({})", mmap_load.mode);
    let mut table = TablePrinter::new(&["startup path", "time (ms)", "speedup"]);
    table.row(&["N-Triples parse + build".into(), fmt_ms(cold), "1.00x".into()]);
    table.row(&["snapshot load".into(), fmt_ms(snap), format!("{speedup:.2}x")]);
    table.row(&[
        mmap_label,
        fmt_ms(mmap),
        format!("{:.2}x", cold.as_secs_f64() / mmap.as_secs_f64()),
    ]);
    print!("{}", table.render());
    println!(
        "snapshot: {snap_bytes} bytes, written in {} ms (one-time, amortised across restarts); \
         mmap vs copy load: {mmap_speedup:.2}x, {} bytes mapped",
        fmt_ms(write_time),
        mmap_load.mapped_bytes
    );

    let mut report = BenchReport::new("coldstart");
    report
        .meta("universities", args.universities)
        .meta("seed", args.seed)
        .meta("runs", args.runs)
        .meta("triples", triples.len())
        .meta("mmap_load_mode", mmap_load.mode)
        .metric_ms("cold_ms", cold)
        .metric_ms("snapshot_ms", snap)
        .metric_ms("mmap_ms", mmap)
        .metric_ms("snapshot_write_ms", write_time)
        .metric("snapshot_bytes", snap_bytes as f64)
        .metric("mapped_bytes", mmap_load.mapped_bytes as f64)
        .metric("snapshot_speedup", speedup)
        .metric("mmap_vs_copy_speedup", mmap_speedup);
    match report.write() {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("failed to write report: {e}"),
    }

    std::fs::remove_file(&nt_path).ok();
    std::fs::remove_file(&snap_path).ok();

    if let Some(min) = args.min_speedup {
        assert!(
            speedup >= min,
            "snapshot startup is only {speedup:.2}x faster than cold start (need >= {min}x)"
        );
        println!("speedup gate passed: {speedup:.2}x >= {min}x");
    }
    if let Some(min) = args.min_mmap_speedup {
        assert_eq!(
            mmap_load.mode,
            LoadMode::Mmap,
            "--min-mmap-speedup requires a real mmap load, but it fell back to copy"
        );
        assert!(
            mmap_speedup >= min,
            "mmap load is only {mmap_speedup:.2}x faster than the copying load (need >= {min}x)"
        );
        println!("mmap speedup gate passed: {mmap_speedup:.2}x >= {min}x");
    }
}
