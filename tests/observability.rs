//! Truthfulness tests for the observability surface: the numbers the
//! profiler and the metrics endpoint report must agree with independent
//! ground truth, not merely look plausible.
//!
//! * `QueryProfile` kernel tallies are checked **exactly** against the
//!   raw `eh_setops::instrument` dispatch counters (enabled here through
//!   the root crate's dev-dependency feature) over the LUBM golden
//!   workload.
//! * Profiles are schedule-invariant: tallies, candidate counts, and the
//!   stable lines of `EXPLAIN ANALYZE` are byte-identical across 1/2/4
//!   worker threads; volatile lines are `~`-prefixed and stripped.
//! * `PROFILE` measures the canonical plan a `QUERY` of the same text
//!   runs, not the plan of the text as written.
//! * The serving tier's `STATS`, `METRICS`, and slow-query log report
//!   what actually happened, end to end through the facade crate.
//!
//! The instrument counters are process-global, so every test that
//! executes joins serialises on one mutex — without it, a concurrently
//! running test's dispatches would leak into an exact comparison.

use std::sync::Mutex;

use wcoj_rdf::emptyheaded::{
    Engine, OptFlags, PlannerConfig, QueryProfile, QueryResult, SharedStore,
};
use wcoj_rdf::lubm::queries::{lubm_query, lubm_sparql, QUERY_NUMBERS};
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};
use wcoj_rdf::obs::parse_exposition;
use wcoj_rdf::par::RuntimeConfig;
use wcoj_rdf::query::{canonicalize, parse_sparql, ConjunctiveQuery};
use wcoj_rdf::setops::instrument;
use wcoj_rdf::srv::{respond, QueryService, ServiceConfig};

/// Serialises every join-executing test in this binary (see module doc).
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn tiny_store() -> SharedStore {
    SharedStore::new(generate_store(&GeneratorConfig::tiny(1)))
}

fn engine_with_threads(store: &SharedStore, threads: usize) -> Engine {
    let config = PlannerConfig::with_flags(OptFlags::all())
        .with_runtime(RuntimeConfig::with_threads(threads).with_morsel_size(1));
    Engine::with_config(store.clone(), config)
}

/// Plan `q` and run it with full profiling.
fn profile(engine: &Engine, q: &ConjunctiveQuery) -> (QueryResult, QueryProfile) {
    engine.run_plan_profiled(q, &engine.plan(q).expect("query plans"))
}

/// The stable (schedule-invariant) lines of a rendered profile or
/// EXPLAIN ANALYZE report: everything except the `~`-prefixed ones.
fn stable_lines(report: &str) -> Vec<&str> {
    report.lines().filter(|l| !l.trim_start().starts_with('~')).collect()
}

#[test]
fn kernel_tallies_match_instrument_counters_on_the_lubm_workload() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let store = tiny_store();
    let engine = engine_with_threads(&store, 1);
    let mut profiled_any = false;
    for n in QUERY_NUMBERS {
        let q = lubm_query(n, &store.read()).expect("workload query");
        instrument::reset_kernel_counts();
        let (result, profile) = profile(&engine, &q);
        let raw = instrument::kernel_counts();
        let tallies = profile.kernel_totals();
        assert_eq!(
            [tallies.word_and, tallies.probe_smallest, tallies.fold_merge],
            raw,
            "Q{n}: QueryProfile kernel tallies diverge from the raw driver counters"
        );
        assert_eq!(
            tallies.dispatches(),
            raw.iter().sum::<u64>(),
            "Q{n}: dispatch total must be the comparable sum"
        );
        // Rows must agree with the profile's final join too.
        let emitted: u64 = profile.joins.last().map(|j| j.rows).unwrap_or(0);
        assert_eq!(
            emitted,
            result.cardinality() as u64,
            "Q{n}: the last join's rows must be exactly the result's"
        );
        profiled_any |= tallies.dispatches() > 0;
    }
    assert!(profiled_any, "the workload must dispatch at least one multiway kernel");
}

#[test]
fn profiles_are_schedule_invariant_across_thread_counts() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let store = tiny_store();
    // Q2 (the triangle) and Q9 (the other cyclic query) are the paper's
    // headline multiway joins — exactly where kernel choice matters.
    for n in [2u32, 9] {
        let q = lubm_query(n, &store.read()).expect("workload query");
        let reference = {
            let (result, profile) = profile(&engine_with_threads(&store, 1), &q);
            (result, profile.kernel_totals(), profile.render())
        };
        for threads in [2usize, 4] {
            let engine = engine_with_threads(&store, threads);
            let (result, profile) = profile(&engine, &q);
            assert_eq!(result, reference.0, "Q{n}: answers must not depend on threads");
            assert_eq!(
                profile.kernel_totals(),
                reference.1,
                "Q{n}: kernel tallies changed between 1 and {threads} threads"
            );
            assert_eq!(
                stable_lines(&profile.render()),
                stable_lines(&reference.2),
                "Q{n}: stable profile lines changed between 1 and {threads} threads"
            );
        }
    }
}

#[test]
fn explain_analyze_is_stable_modulo_volatile_lines_over_the_wire_format() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let store = tiny_store();
    let text = lubm_sparql(2).expect("workload query");
    let reports: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let service = QueryService::new(
                store.clone(),
                ServiceConfig {
                    planner: PlannerConfig::with_flags(OptFlags::all())
                        .with_runtime(RuntimeConfig::with_threads(threads).with_morsel_size(1)),
                    result_cache_bytes: ServiceConfig::DEFAULT_RESULT_CACHE_BYTES,
                    plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
                    server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
                    record_metrics: true,
                    slow_query_ms: None,
                },
            );
            service.profile_sparql(&text).expect("PROFILE runs")
        })
        .collect();
    for report in &reports {
        assert!(report.contains("profile:"), "PROFILE must embed the measured profile");
        assert!(report.contains("kernels {"), "PROFILE must report per-depth kernel choices");
        assert!(report.contains("result rows:"), "PROFILE must report the answer cardinality");
    }
    for report in &reports[1..] {
        assert_eq!(
            stable_lines(report),
            stable_lines(&reports[0]),
            "PROFILE output must be byte-stable across thread counts modulo ~ lines"
        );
    }
}

/// `PROFILE` measures the plan `QUERY` runs: the service plans the
/// canonical form of a query, and the planner breaks cardinality ties by
/// appearance, so profiling the text as written can measure a different
/// attribute order (on this fixture LUBM 3 takes 6 candidates as written
/// and 192 canonical). Every iterated depth's candidate count in the
/// `PROFILE` report must be the canonical plan's.
#[test]
fn profile_verb_measures_the_plan_query_runs() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let store = tiny_store();
    let service = QueryService::new(store.clone(), ServiceConfig::default());
    let mut diverged = Vec::new();
    for n in QUERY_NUMBERS {
        let text = lubm_sparql(n).expect("workload query");
        let report = service.profile_sparql(&text).expect("PROFILE runs");
        let reported: Vec<u64> = report
            .lines()
            .filter(|l| l.trim_start().starts_with("depth "))
            .filter_map(|l| l.split(" candidates ").nth(1))
            .map(|rest| rest.split(',').next().unwrap().parse().expect("candidate count"))
            .collect();
        let parsed = parse_sparql(&text, &store.read()).expect("workload query parses");
        let canonical = canonicalize(&parsed).to_query().expect("canonical form rebuilds");
        let (_, expect) = profile(service.engine(), &canonical);
        let expect: Vec<u64> = expect
            .joins
            .iter()
            .flat_map(|j| j.depths.iter().filter(|d| !d.selected).map(|d| d.candidates))
            .collect();
        if reported != expect {
            diverged.push((n, reported, expect));
        }
    }
    assert!(diverged.is_empty(), "PROFILE measured plans QUERY does not run: {diverged:?}");
    let stats = service.stats();
    assert_eq!((stats.result_hits, stats.result_misses), (0, 0), "PROFILE bypasses caches");
    assert_eq!((stats.plan_hits, stats.plan_misses), (0, 0), "PROFILE bypasses caches");
}

#[test]
fn profile_answers_exactly_match_unprofiled_runs() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let store = tiny_store();
    let engine = engine_with_threads(&store, 2);
    for n in QUERY_NUMBERS {
        let q = lubm_query(n, &store.read()).expect("workload query");
        let plain = engine.run(&q).expect("plain run");
        let (profiled, _) = profile(&engine, &q);
        // This equivalence is what makes EH_OBS_FORCE (which routes every
        // run through the profiled path) safe to turn on in CI.
        assert_eq!(plain, profiled, "Q{n}: profiling must not change the answer");
    }
}

#[test]
fn stats_and_metrics_report_served_traffic_through_the_facade() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let store = tiny_store();
    let service = QueryService::new(
        store,
        ServiceConfig { record_metrics: true, slow_query_ms: None, ..ServiceConfig::default() },
    );
    let text = lubm_sparql(1).expect("workload query");
    let cold = respond(&service, &format!("QUERY {text}"));
    let warm = respond(&service, &format!("QUERY {text}"));
    assert_eq!(cold, warm, "cache must be invisible in the payload");

    let stats = respond(&service, "STATS");
    let p50: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("query_p50_us="))
        .and_then(|v| v.parse().ok())
        .expect("STATS carries query_p50_us");
    assert!(p50 >= 1, "recorded latencies quantize to at least 1 us");

    let response = respond(&service, "METRICS");
    let body = response
        .strip_prefix("OK METRICS\n")
        .and_then(|b| b.strip_suffix("END\n"))
        .expect("framed METRICS response");
    let samples = parse_exposition(body).expect("exposition parses");
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("exposition lacks {name}"))
    };
    assert_eq!(get("eh_query_latency_us_count"), 2.0);
    assert_eq!(get("eh_result_cache_hits_total"), 1.0);
    assert_eq!(get("eh_result_cache_misses_total"), 1.0);
    let query_requests = samples
        .iter()
        .find(|s| s.name == "eh_requests_total" && s.label("verb") == Some("query"))
        .map(|s| s.value)
        .expect("per-verb request series");
    assert_eq!(query_requests, 2.0);
}

#[test]
fn slow_query_log_is_reachable_through_the_facade() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let store = tiny_store();
    let service = QueryService::new(
        store,
        // Threshold 0 ms: everything is "slow", so one query must land in
        // the log without this test depending on actual timings.
        ServiceConfig { record_metrics: true, slow_query_ms: Some(0), ..ServiceConfig::default() },
    );
    let text = lubm_sparql(1).expect("workload query");
    service.query_sparql(&text).expect("query runs");
    let log = service.slow_queries();
    assert_eq!(log.len(), 1);
    assert!(log[0].contains(&text), "slow-log entries carry the query text");
}
