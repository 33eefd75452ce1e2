//! Partitioned-store harness: parallel sectioned snapshot load versus
//! the one-shard sequential load, plus a shard-local / union query mix
//! with a byte-identity check against the unpartitioned engine.
//!
//! ```text
//! cargo run --release -p eh-bench --bin partition -- --universities 2
//! ```
//!
//! Three measurements:
//!
//! * **load** — the `P = 1` snapshot (one shard section, decoded on
//!   one thread) versus the snapshot of the same data split into 4
//!   subject shards, loaded with up to 4 threads (each shard section
//!   decoded and checksum-verified in parallel);
//! * **query mix** — the 12-query LUBM workload on the P = 4 engine at
//!   4 threads versus the P = 1 engine, covering both partitioned
//!   execution strategies (subject-rooted plans run shard-local, the
//!   rest union shard operands through the multiway driver);
//! * **byte identity** — every query's `QueryResult` at P = 4 must
//!   equal the P = 1 cold engine's bytes, asserted before any timing.
//!
//! Emits `BENCH_partition.json` (honouring `$EH_BENCH_OUT`). Pass
//! `--min-speedup X` to exit non-zero unless the sectioned parallel
//! load is at least `X` times faster than the `P = 1` sequential load
//! (the CI gate uses a conservative X for runner noise).

use std::time::Instant;

use eh_bench::{fmt_ms, measure, BenchReport, TablePrinter};
use eh_lubm::queries::{lubm_query, QUERY_NUMBERS};
use eh_lubm::{generate_store, GeneratorConfig};
use eh_rdf::{LoadMode, StoreSnapshot};
use emptyheaded::{Engine, OptFlags, PlannerConfig, RuntimeConfig, SharedStore};

const SHARDS: usize = 4;

struct Args {
    universities: u32,
    runs: usize,
    seed: u64,
    min_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args { universities: 2, runs: 7, seed: 42, min_speedup: None };
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
            other => {
                eprintln!(
                    "unknown argument {other}; expected --universities N, --runs K, --seed S, \
                     --min-speedup X"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    assert!(args.runs >= 3, "need at least 3 runs to drop best and worst");
    args
}

fn engine_over(store: eh_rdf::TripleStore, threads: usize) -> Engine {
    Engine::with_config(
        SharedStore::new(store),
        PlannerConfig::with_flags(OptFlags::all())
            .with_runtime(RuntimeConfig::with_threads(threads)),
    )
}

fn main() {
    let args = parse_args();
    let config = GeneratorConfig::tiny(args.universities).with_seed(args.seed);
    let base = generate_store(&config);
    let triples = base.num_triples();
    println!("LUBM tiny({}) seed {}: {triples} triples", args.universities, args.seed);

    // One snapshot per partitioning, same logical data, same format: the
    // P = 1 image has a single shard section, the split one carries an
    // independently checksummed section per subject shard.
    // Decode workers for the sectioned load: machine-sized, capped at the
    // shard count — on a single-core runner the fan-out inlines (no spawn
    // tax).
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(SHARDS);
    println!("sectioned load uses {threads} decode thread(s)");

    let mut split = base.clone();
    split.repartition(SHARDS);
    let dir = std::env::temp_dir();
    let p1_path = dir.join(format!("eh-partition-{}-p1.snap", std::process::id()));
    let split_path = dir.join(format!("eh-partition-{}-p{SHARDS}.snap", std::process::id()));
    let p1_bytes = StoreSnapshot::write_to_path(&base, &p1_path).expect("write P=1");
    let split_bytes = StoreSnapshot::write_to_path(&split, &split_path).expect("write split");
    println!("snapshots: P=1 {p1_bytes} bytes, {SHARDS}-shard {split_bytes} bytes");

    // Byte-identity across the whole workload before any timing: the
    // P = 4 engine (union and shard-local paths alike) must answer
    // exactly like a cold unpartitioned engine.
    let p1 = engine_over(base.clone(), 1);
    let p4 = engine_over(split.clone(), SHARDS);
    let queries: Vec<_> =
        QUERY_NUMBERS.iter().map(|&n| (n, lubm_query(n, &base).expect("workload query"))).collect();
    for (n, q) in &queries {
        let reference = p1.run(q).expect("P=1 run");
        assert_eq!(p4.run(q).expect("P=4 run"), reference, "query {n} diverged at P={SHARDS}");
    }
    println!("byte identity: all {} workload queries match P=1", queries.len());

    // Timed loads (paper methodology: drop best and worst, average the
    // rest; files come through the OS cache in both paths — the restart
    // scenario that matters).
    let load_p1 = measure(args.runs, || {
        let snap = StoreSnapshot::open(&p1_path, LoadMode::Copy, 1).expect("P=1 loads");
        assert_eq!(snap.store.partitions(), 1);
    });
    let load_split = measure(args.runs, || {
        let snap = StoreSnapshot::open(&split_path, LoadMode::Copy, threads).expect("split loads");
        assert_eq!(snap.store.partitions(), SHARDS);
    });
    let load_speedup = load_p1.as_secs_f64() / load_split.as_secs_f64();

    // Timed query mix, warm engines (tries were built by the identity
    // pass): partitioned execution must not tax the workload.
    let mix_p1 = measure(args.runs, || {
        for (_, q) in &queries {
            let t0 = Instant::now();
            p1.run(q).expect("P=1 run");
            std::hint::black_box(t0.elapsed());
        }
    });
    let mix_p4 = measure(args.runs, || {
        for (_, q) in &queries {
            let t0 = Instant::now();
            p4.run(q).expect("P=4 run");
            std::hint::black_box(t0.elapsed());
        }
    });

    let mut table = TablePrinter::new(&["measurement", "time (ms)", "vs baseline"]);
    table.row(&["P=1 sequential load".into(), fmt_ms(load_p1), "1.00x".into()]);
    table.row(&[
        format!("{SHARDS}-shard parallel load"),
        fmt_ms(load_split),
        format!("{load_speedup:.2}x"),
    ]);
    table.row(&["LUBM mix, P=1".into(), fmt_ms(mix_p1), "1.00x".into()]);
    table.row(&[
        format!("LUBM mix, P={SHARDS} ({SHARDS} threads)"),
        fmt_ms(mix_p4),
        format!("{:.2}x", mix_p1.as_secs_f64() / mix_p4.as_secs_f64()),
    ]);
    print!("{}", table.render());

    let mut report = BenchReport::new("partition");
    report
        .meta("universities", args.universities)
        .meta("seed", args.seed)
        .meta("runs", args.runs)
        .meta("shards", SHARDS)
        .meta("load_threads", threads)
        .metric("triples", triples as f64)
        .metric("snapshot_p1_bytes", p1_bytes as f64)
        .metric("snapshot_sectioned_bytes", split_bytes as f64)
        .metric_ms("load_p1_sequential_ms", load_p1)
        .metric_ms("load_sectioned_parallel_ms", load_split)
        .metric("load_speedup", load_speedup)
        .metric_ms("lubm_mix_p1_ms", mix_p1)
        .metric_ms("lubm_mix_p4_ms", mix_p4)
        .metric("byte_identity", 1.0);
    let path = report.write().expect("report writes");
    println!("wrote {}", path.display());

    std::fs::remove_file(&p1_path).ok();
    std::fs::remove_file(&split_path).ok();

    if let Some(min) = args.min_speedup {
        assert!(
            load_speedup >= min,
            "sectioned parallel load is only {load_speedup:.2}x faster than P=1 sequential \
             (need >= {min}x)"
        );
        println!("load-speedup gate passed: {load_speedup:.2}x >= {min}x");
    }
}
