//! Service stress test: 8 client threads firing a mixed LUBM workload
//! over TCP at one `QueryService`, with every wire response asserted
//! byte-identical to single-threaded, uncached execution — and the
//! cache/thread matrix of the acceptance criteria: cached answers equal
//! uncached answers under 1, 2, and 4 worker threads.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};

use wcoj_rdf::emptyheaded::{OptFlags, PlannerConfig};
use wcoj_rdf::lubm::queries::{lubm_sparql, QUERY_NUMBERS};
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};
use wcoj_rdf::srv::SharedStore;
use wcoj_rdf::srv::{respond, serve, Client, QueryService, ServiceConfig};

fn service_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        planner: PlannerConfig::with_flags(OptFlags::all()).with_threads(threads),
        result_cache_bytes: 32 << 20,
        plan_cache_entries: 256,
        server_sessions: 8,
        record_metrics: true,
        slow_query_ms: None,
    }
}

/// The workload as protocol request lines (SPARQL flattened to one line).
fn request_mix() -> Vec<String> {
    QUERY_NUMBERS
        .iter()
        .map(|&n| format!("QUERY {}", lubm_sparql(n).unwrap().replace(['\n', '\r'], " ")))
        .collect()
}

/// Reference responses from a fresh, single-threaded, cache-cold service:
/// the bytes every other configuration must reproduce.
fn reference_responses(store: &SharedStore, requests: &[String]) -> Vec<String> {
    let svc = QueryService::new(store.clone(), service_config(1));
    let reference: Vec<String> = requests.iter().map(|r| respond(&svc, r)).collect();
    // The reference pass itself never hit a cache.
    assert_eq!(svc.stats().result_hits, 0);
    reference
}

#[test]
fn eight_clients_hammering_one_service_get_exact_bytes() {
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    let requests = request_mix();
    let reference = reference_responses(&store, &requests);

    let svc = QueryService::new(store.clone(), service_config(4));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (svc_ref, shutdown_ref) = (&svc, &shutdown);
        scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

        let clients: Vec<_> = (0..8)
            .map(|c| {
                let (requests, reference) = (&requests, &reference);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Each client walks the mix from a different offset,
                    // twice, so requests interleave and repeat.
                    for pass in 0..2 {
                        for i in 0..requests.len() {
                            let idx = (i + c + pass * 5) % requests.len();
                            let wire = client.send(&requests[idx]).expect("query");
                            assert_eq!(
                                wire, reference[idx],
                                "client {c} pass {pass}: response for request {idx} \
                                 diverged from single-threaded execution"
                            );
                        }
                    }
                    client.send("QUIT").ok();
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        shutdown.store(true, Ordering::Release);
    });

    let stats = svc.stats();
    let total = 8 * 2 * QUERY_NUMBERS.len() as u64;
    assert_eq!(stats.result_hits + stats.result_misses, total);
    assert!(stats.result_hits > 0, "repeated mix must hit the result cache: {stats:?}");
    // 12 distinct canonical queries exist; concurrent cold misses may
    // race (there is no request coalescing) but the steady state is
    // cache-served, so hits must dominate.
    assert!(stats.result_hits >= total / 2, "hit-rate collapsed on the repeated mix: {stats:?}");
    assert_eq!(stats.result_cache_entries, 12, "one entry per canonical query: {stats:?}");
    // Planning only ever runs on a result miss.
    assert!(stats.plan_hits + stats.plan_misses <= stats.result_misses, "{stats:?}");
}

#[test]
fn cached_answers_identical_across_worker_thread_counts() {
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    let requests = request_mix();
    let reference = reference_responses(&store, &requests);

    for threads in [1usize, 2, 4] {
        let svc = QueryService::new(store.clone(), service_config(threads));
        // Pass 1 fills the caches (uncached execution), pass 2 is served
        // from them; both must reproduce the single-threaded bytes.
        for pass in 0..2 {
            for (idx, request) in requests.iter().enumerate() {
                let got = respond(&svc, request);
                assert_eq!(
                    got, reference[idx],
                    "request {idx}, pass {pass}, {threads} worker threads"
                );
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.result_misses, 12, "{threads} threads: one miss per distinct query");
        assert_eq!(stats.result_hits, 12, "{threads} threads: second pass fully cached");
    }
}

#[test]
fn invalidation_over_the_wire_is_serialized_with_traffic() {
    let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
    let requests = request_mix();
    let reference = reference_responses(&store, &requests);

    let svc = QueryService::new(store.clone(), service_config(2));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (svc_ref, shutdown_ref) = (&svc, &shutdown);
        scope.spawn(move || serve(svc_ref, listener, shutdown_ref));

        let mut client = Client::connect(addr).expect("connect");
        assert_eq!(client.send(&requests[0]).unwrap(), reference[0]);
        assert_eq!(client.send("INVALIDATE").unwrap(), "OK epoch=1\n");
        // Same answer after invalidation — recomputed, not served stale.
        assert_eq!(client.send(&requests[0]).unwrap(), reference[0]);
        // A write to a predicate no query reads bumps the epoch as well;
        // the recomputed answer is still the reference's bytes.
        let insert = "INSERT <http://ex/s> <http://ex/untouched> <http://ex/o> .";
        assert!(client.send(insert).unwrap().starts_with("OK pending"));
        assert!(client.send("APPLY").unwrap().starts_with("OK applied inserted=1"));
        assert_eq!(client.send(&requests[0]).unwrap(), reference[0]);
        let stats = client.send("STATS").unwrap();
        assert!(stats.contains("epoch=2"), "{stats}");
        client.send("QUIT").ok();
        drop(client);
        shutdown.store(true, Ordering::Release);
    });
    assert_eq!(svc.stats().result_misses, 3, "every pass recomputed across its epoch bump");
}
