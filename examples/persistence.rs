//! Persistence and cold start: `SAVE` a live service, then restart it
//! from the snapshot and watch the first query get served warm.
//!
//! ```text
//! cargo run --release --example persistence
//! ```
//!
//! The example (1) builds LUBM tiny(1) the slow way and serves it over
//! TCP, (2) persists the live store with the protocol's `SAVE` verb,
//! (3) shuts the server down, (4) "restarts" by loading the snapshot —
//! no N-Triples parse, no sorting, the image's tries are the store — and
//! (5) shows the restarted service answering the same query
//! byte-identically, with its very first answer skipping index
//! construction.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use wcoj_rdf::emptyheaded::{OptFlags, PlannerConfig};
use wcoj_rdf::lubm::queries::lubm_sparql;
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};
use wcoj_rdf::srv::{serve, Client, QueryService, ServiceConfig};

fn service_config() -> ServiceConfig {
    ServiceConfig {
        planner: PlannerConfig::with_flags(OptFlags::all()).with_threads(2),
        result_cache_bytes: 16 << 20,
        plan_cache_entries: 1024,
        server_sessions: 4,
        record_metrics: true,
        slow_query_ms: None,
    }
}

/// Serve `service` on an ephemeral port, run `session` against it, then
/// drain the server.
fn with_server(service: &QueryService, session: impl FnOnce(&mut Client)) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (service_ref, shutdown_ref) = (&service, &shutdown);
        scope.spawn(move || serve(service_ref, listener, shutdown_ref));
        let mut client = Client::connect(addr).expect("connect");
        session(&mut client);
        client.send("QUIT").ok();
        drop(client);
        shutdown.store(true, Ordering::Release);
    });
}

fn main() {
    let snap_path =
        std::env::temp_dir().join(format!("eh-persistence-{}.snap", std::process::id()));
    let q2 = lubm_sparql(2).expect("LUBM query 2");

    // --- first life: cold build, serve, SAVE ------------------------------
    let t0 = Instant::now();
    let store = generate_store(&GeneratorConfig::tiny(1));
    let service = QueryService::new(store, service_config());
    println!("cold build: {:.1} ms", t0.elapsed().as_secs_f64() * 1e3);

    let mut first_answer = String::new();
    with_server(&service, |client| {
        first_answer = client.query(&q2).expect("query 2");
        println!(
            "first life answered query 2: {}",
            first_answer.lines().next().unwrap_or_default()
        );
        let saved = client.send(&format!("SAVE {}", snap_path.display())).expect("SAVE");
        print!("SAVE -> {saved}");
    });
    drop(service); // the process "restarts" here

    // --- second life: restart from the snapshot ---------------------------
    let t0 = Instant::now();
    let restarted =
        QueryService::from_snapshot(&snap_path, service_config()).expect("snapshot loads");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let resident: usize = restarted.store().arena_bytes();
    println!(
        "restart from snapshot: {load_ms:.1} ms, {resident} trie arena bytes already resident"
    );

    with_server(&restarted, |client| {
        let t0 = Instant::now();
        let warm_answer = client.query(&q2).expect("query 2 after restart");
        println!(
            "restarted service served its FIRST query in {:.1} ms (no index build — \
             the tries came off disk)",
            t0.elapsed().as_secs_f64() * 1e3
        );
        assert_eq!(warm_answer, first_answer, "restart must be invisible to clients");
        println!("byte-identical to the first life's answer ✓");
    });

    std::fs::remove_file(&snap_path).ok();
}
