//! The standalone serving daemon for the WCOJ engine.
//!
//! ```text
//! # Cold start: parse N-Triples, build everything from scratch.
//! cargo run --release -p eh-srv --bin server -- --data graph.nt --port 7878
//!
//! # Warm start: memory-load a snapshot written by the SAVE verb (or
//! # `Engine::save_snapshot`) — milliseconds instead of a re-parse.
//! cargo run --release -p eh-srv --bin server -- --snapshot store.snap --port 7878
//!
//! # Demo data: generate an N-Triples file first (keeps the benchmark
//! # generator out of the serving crate's dependencies).
//! cargo run --release -p eh-lubm --bin lubm-gen -- --universities 1 --out lubm1.nt
//! cargo run --release -p eh-srv --bin server -- --data lubm1.nt --port 7878
//! ```
//!
//! Exactly one data source (`--snapshot` or `--data`) must be given.
//! `--threads N` sets join-execution workers and `--sessions N` the
//! concurrent-connection pool.
//! Snapshots load zero-copy by default — trie arenas serve straight from
//! `mmap`ed page cache, with an automatic (logged) fallback to the
//! memory-load path where the platform cannot map the file; `--no-mmap`
//! forces the copy path. The server runs until killed; clients can
//! persist the live store at any time with `SAVE <path>`.
//!
//! `--wal <path>` attaches a write-ahead log: any records the file holds
//! are replayed before serving (crash recovery — pair it with the same
//! `--snapshot` the log was started against), then every applied batch
//! is logged before it stages and `SAVE` truncates the log down to the
//! new image. `--fsync always|never|interval:<ms>` picks the durability
//! / latency trade (default `always`).

use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use eh_rdf::{parse_ntriples, SnapshotError};
use eh_srv::{serve, QueryService, ServiceConfig};
use emptyheaded::{FsyncPolicy, PlannerConfig, SharedStore};

struct Args {
    snapshot: Option<String>,
    data: Option<String>,
    port: u16,
    threads: usize,
    sessions: usize,
    mmap: bool,
    wal: Option<String>,
    fsync: FsyncPolicy,
}

fn usage() -> ! {
    eprintln!(
        "usage: server (--snapshot <path> | --data <file.nt>) \
         [--port P] [--threads N] [--sessions N] [--mmap|--no-mmap] \
         [--wal <path>] [--fsync always|never|interval:<ms>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        snapshot: None,
        data: None,
        port: 0,
        threads: 1,
        sessions: 8,
        mmap: true,
        wal: None,
        fsync: FsyncPolicy::Always,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value =
            |i: usize| -> &str { argv.get(i + 1).map(|s| s.as_str()).unwrap_or_else(|| usage()) };
        match argv[i].as_str() {
            "--snapshot" => args.snapshot = Some(value(i).to_string()),
            "--data" => args.data = Some(value(i).to_string()),
            "--port" => args.port = value(i).parse().unwrap_or_else(|_| usage()),
            "--threads" => args.threads = value(i).parse().unwrap_or_else(|_| usage()),
            "--sessions" => args.sessions = value(i).parse().unwrap_or_else(|_| usage()),
            "--wal" => args.wal = Some(value(i).to_string()),
            "--fsync" => args.fsync = value(i).parse().unwrap_or_else(|_| usage()),
            "--mmap" => {
                args.mmap = true;
                i += 1;
                continue;
            }
            "--no-mmap" => {
                args.mmap = false;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    if args.snapshot.is_some() == args.data.is_some() {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let config = ServiceConfig {
        planner: PlannerConfig::default().with_threads(args.threads).with_wal_fsync(args.fsync),
        result_cache_bytes: ServiceConfig::DEFAULT_RESULT_CACHE_BYTES,
        plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
        server_sessions: args.sessions,
        record_metrics: true,
        slow_query_ms: ServiceConfig::slow_query_ms_from_env(),
    };

    let t0 = Instant::now();
    let service = if let Some(path) = &args.snapshot {
        let svc = if args.mmap {
            QueryService::from_snapshot_mmap(path, config)
        } else {
            QueryService::from_snapshot(path, config)
        }
        .unwrap_or_else(|e| {
            // An image of another format version is not corrupt, just
            // not this build's: say how to get one that is.
            let hint = match e {
                SnapshotError::BadVersion(_) => "; rebuild it from --data and SAVE again",
                _ => "",
            };
            eprintln!("failed to load snapshot {path}: {e}{hint}");
            std::process::exit(1);
        });
        let load = svc.engine().load_info().expect("snapshot-built engine records its load");
        if let Some(reason) = load.fallback {
            eprintln!("mmap load of {path} fell back to copy: {reason}");
        }
        println!(
            "loaded snapshot {path} in {:.1} ms ({} arena bytes resident, load_mode={})",
            t0.elapsed().as_secs_f64() * 1e3,
            svc.store().arena_bytes(),
            load.mode
        );
        svc
    } else {
        let path = args.data.as_deref().expect("one source is set");
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        });
        let triples = parse_ntriples(&text).unwrap_or_else(|e| {
            eprintln!("failed to parse {path}: {e}");
            std::process::exit(1);
        });
        let svc = QueryService::new(SharedStore::from_triples(triples), config);
        println!("parsed {path} in {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);
        svc
    };

    let service = match &args.wal {
        None => service,
        Some(path) => {
            let mut service = service;
            let t0 = Instant::now();
            let recovery = service.open_wal(path).unwrap_or_else(|e| {
                eprintln!("failed to open wal {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "wal {path} attached in {:.1} ms (replayed {} records, seq {}..={}, \
                 +{} -{} triples{}, fsync={})",
                t0.elapsed().as_secs_f64() * 1e3,
                recovery.replayed,
                recovery.base_seq,
                recovery.last_seq,
                recovery.inserted,
                recovery.deleted,
                if recovery.torn_tail_dropped { ", torn tail dropped" } else { "" },
                args.fsync
            );
            service
        }
    };

    let stats = service.store().stats();
    let listener = TcpListener::bind(("127.0.0.1", args.port)).unwrap_or_else(|e| {
        eprintln!("failed to bind port {}: {e}", args.port);
        std::process::exit(1);
    });
    println!(
        "serving {} triples / {} predicates on {} ({} threads, {} sessions)",
        stats.triples,
        stats.predicates,
        listener.local_addr().expect("bound socket has an address"),
        args.threads,
        args.sessions
    );
    // Runs until the process is killed; SAVE snapshots can be taken live.
    let shutdown = AtomicBool::new(false);
    serve(&service, listener, &shutdown);
}
