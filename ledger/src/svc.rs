//! What the request-serving workloads share: building a [`QueryService`],
//! taking reference answers, checking them against the pairwise oracle,
//! serving over loopback TCP, and the staged replica of a request that
//! attributes its time to layers.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use eh_baselines::{QueryEngine, Rdf3xStyle};
use eh_ghd::{choose_ghd, ChooseMode};
use eh_query::{canonicalize, parse_sparql, Hypergraph};
use eh_rdf::{xxh64, Triple, TripleStore};
use eh_srv::{respond, serve, QueryService, ServiceConfig, SharedStore, UpdateBatch};
use emptyheaded::{OptFlags, PlannerConfig};

use crate::data::{instances_query, UpdateStream};
use crate::harness::{Check, Layers};
use crate::trace::Tracer;

/// A request line with the answer every later reply is compared to.
pub struct Reference {
    pub request: String,
    pub response: String,
    pub rows: u64,
}

/// A service over `store` with metrics recording on (the shipped
/// default) and no slow-query log.
pub fn service(
    store: impl Into<SharedStore>,
    planner: PlannerConfig,
    result_cache_bytes: usize,
    plan_cache_entries: usize,
    server_sessions: usize,
) -> QueryService {
    QueryService::new(
        store,
        ServiceConfig {
            planner,
            result_cache_bytes,
            plan_cache_entries,
            server_sessions,
            record_metrics: true,
            slow_query_ms: None,
        },
    )
}

/// All four optimisations on, `threads` engine workers.
pub fn planner(threads: usize) -> PlannerConfig {
    PlannerConfig::with_flags(OptFlags::all()).with_threads(threads)
}

/// Every instance of LUBM class `class` in the service's store, in result
/// order: the pools that per-request constants and update targets are
/// drawn from.
pub fn instances(service: &QueryService, class: &str) -> Vec<String> {
    let result = service.engine().run_sparql(&instances_query(class)).expect("type scan runs");
    let store = service.store();
    (0..result.cardinality())
        .map(|i| result.decode_row(&store, i)[0].as_str().to_string())
        .collect()
}

/// Rows announced by a `QUERY` reply's `OK <rows> <col>...` header.
pub fn rows_of(response: &str) -> Option<u64> {
    response.strip_prefix("OK ")?.split_whitespace().next()?.parse().ok()
}

/// Build every trie the `warm` queries need (`trie.warm`), then take the
/// cold in-process answer of each of `texts` as its reference.
pub fn references(
    service: &QueryService,
    texts: &[String],
    warm: &[String],
    tr: &mut Tracer,
) -> Vec<Reference> {
    let span = tr.enter("trie.warm", 0);
    for text in warm {
        let q = parse_sparql(text, &service.store()).expect("generated queries parse");
        service.engine().warm(&q).expect("generated queries plan");
    }
    tr.exit(span);
    texts
        .iter()
        .map(|text| {
            let request = format!("QUERY {text}");
            let response = respond(service, &request);
            let rows = rows_of(&response).unwrap_or_else(|| panic!("{request} -> {response}"));
            Reference { request, response, rows }
        })
        .collect()
}

/// Row count and xxh64 of a reply's rows, order-independent.
fn digest(mut lines: Vec<String>) -> (usize, u64) {
    lines.sort_unstable();
    (lines.len(), xxh64(lines.join("\n").as_bytes()))
}

/// Check each reference reply against [`Rdf3xStyle`] over the same store:
/// announced row count, delivered row count and the xxh64 of the sorted
/// rendered rows must all agree. The oracle shares no join code with the
/// engine and renders through the dictionary directly.
pub fn verify_against_oracle(store: &TripleStore, refs: &[Reference]) -> Check {
    let oracle = Rdf3xStyle::new(store);
    let mut check = Check::default();
    for r in refs {
        let text = r.request.strip_prefix("QUERY ").expect("references are queries");
        let q = parse_sparql(text, store).expect("reference queries parse");
        let expected = oracle.execute(&q);
        let expected: Vec<String> = expected
            .rows()
            .map(|row| {
                let terms: Vec<String> =
                    row.iter().map(|&id| store.dict().decode(id).to_string()).collect();
                terms.join("\t")
            })
            .collect();
        let body: Vec<String> =
            r.response.lines().skip(1).take_while(|l| *l != "END").map(str::to_string).collect();
        let ok = r.rows as usize == body.len() && digest(body) == digest(expected);
        if !ok {
            eprintln!("oracle mismatch: {}", r.request);
        }
        check.note(ok);
    }
    check
}

/// An in-process [`serve`] on a loopback port, stopped and joined on drop.
pub struct Server {
    pub service: Arc<QueryService>,
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    pub fn start(service: QueryService) -> Server {
        let service = Arc::new(service);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("a bound socket has an address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let (svc, stop) = (Arc::clone(&service), Arc::clone(&shutdown));
        let thread = std::thread::spawn(move || serve(&svc, listener, &stop));
        Server { service, addr, shutdown, thread: Some(thread) }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // A panicked server thread already failed the run's requests.
            thread.join().ok();
        }
    }
}

/// Sums over the probed requests, for the per-request layer means and
/// the stage-sum ratio.
#[derive(Debug, Default)]
pub struct StageSums {
    pub requests: u64,
    pub respond_ns: u64,
    pub parse_ns: u64,
    pub canon_ns: u64,
    pub plan_ns: u64,
    pub planned: u64,
    pub choose_ns: u64,
    pub exec_ns: u64,
    pub decode_ns: u64,
    pub render_ns: u64,
    pub render_bytes: u64,
}

fn timed<R>(tr: &mut Tracer, name: &'static str, rid: u64, f: impl FnOnce() -> R) -> (R, u64) {
    let id = tr.enter(name, rid);
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    tr.exit(id);
    (out, ns)
}

/// Answer `request` once through [`respond`] (untraced, the number the
/// stages must add up to) and replay it one public call at a time under
/// spans: parse → canonicalise → plan → execute, then render. Planning
/// counts only if the real request missed the plan cache. Whichever side
/// runs second finds the CPU caches warmed by the first, so the order
/// alternates with the request id and the bias cancels over a pass. Needs
/// a service whose result cache holds nothing, so the replayed request
/// renders like the real one did.
pub fn staged_request(
    service: &QueryService,
    request: &str,
    rid: u64,
    tr: &mut Tracer,
) -> StageSums {
    let text = request.strip_prefix("QUERY ").expect("staged requests are queries");
    let engine = service.engine();
    let real = || {
        let misses_before = service.stats().plan_misses;
        let t0 = Instant::now();
        std::hint::black_box(respond(service, request));
        let ns = t0.elapsed().as_nanos() as u64;
        (ns, service.stats().plan_misses > misses_before)
    };
    let real_first = rid.is_multiple_of(2).then(real);

    let root = tr.enter("request", rid);
    let (q, parse_ns) =
        timed(tr, "query.parse", rid, || parse_sparql(text, &service.store()).expect("parses"));
    let (canonical, canon_ns) = timed(tr, "query.canon", rid, || canonicalize(&q));
    let ((cq, plan), plan_ns) = timed(tr, "core.plan", rid, || {
        let cq = canonical.to_query().expect("canonical form rebuilds");
        let plan = engine.plan(&cq).expect("plans");
        (cq, plan)
    });
    let (result, exec_ns) = timed(tr, "core.exec", rid, || engine.run_plan(&cq, &plan));
    tr.exit(root);

    let (respond_ns, planned) = real_first.unwrap_or_else(real);
    // Rendering is only reachable through a service answer (which must
    // come after the real request: it fills the plan cache); this one
    // re-executes untimed and the timed call renders its rows.
    let answer = service.query(&q).expect("answers");
    let (render_bytes, render_ns) =
        timed(tr, "srv.render", rid, || answer.result.rendered_rows(&service.store()).len());

    // Sub-parts, outside the request span: GHD choice alone (inside
    // planning) and dictionary decode alone (inside rendering).
    let (_, choose_ns) = timed(tr, "ghd.choose", rid, || {
        let selected: Vec<bool> = (0..cq.num_vars()).map(|v| cq.is_selected(v)).collect();
        choose_ghd(&Hypergraph::from_query(&cq), &selected, ChooseMode::SelectionAware)
    });
    let (_, decode_ns) = timed(tr, "rdf.decode", rid, || {
        let store = service.store();
        for i in 0..result.cardinality() {
            std::hint::black_box(result.decode_row(&store, i));
        }
    });
    StageSums {
        requests: 1,
        respond_ns,
        parse_ns,
        canon_ns,
        plan_ns: if planned { plan_ns } else { 0 },
        planned: u64::from(planned),
        choose_ns,
        exec_ns,
        decode_ns,
        render_ns,
        render_bytes: render_bytes as u64,
    }
}

impl StageSums {
    pub fn add(&mut self, o: StageSums) {
        self.requests += o.requests;
        self.respond_ns += o.respond_ns;
        self.parse_ns += o.parse_ns;
        self.canon_ns += o.canon_ns;
        self.plan_ns += o.plan_ns;
        self.planned += o.planned;
        self.choose_ns += o.choose_ns;
        self.exec_ns += o.exec_ns;
        self.decode_ns += o.decode_ns;
        self.render_ns += o.render_ns;
        self.render_bytes += o.render_bytes;
    }

    /// Per-request means into the layer table, and whether the stages
    /// account for the untraced request: (parse + canon + plan + exec +
    /// render) ÷ respond.
    pub fn report(&self, layers: &mut Layers) {
        let n = self.requests.max(1) as f64;
        let us = |ns: u64| ns as f64 / 1e3 / n;
        layers.set("srv.respond_us", us(self.respond_ns));
        layers.set("query.parse_us", us(self.parse_ns));
        layers.set("query.canon_us", us(self.canon_ns));
        layers.set("core.plan_us", self.plan_ns as f64 / 1e3 / self.planned.max(1) as f64);
        layers.set("ghd.choose_us", us(self.choose_ns));
        layers.set("core.exec_us", us(self.exec_ns));
        layers.set("rdf.decode_us", us(self.decode_ns));
        layers.set("srv.render_us", us(self.render_ns));
        layers.set("srv.render_bytes", self.render_bytes as f64 / n);
        let stages = self.parse_ns + self.canon_ns + self.plan_ns + self.exec_ns + self.render_ns;
        layers.set("trace.stage_sum_ratio", stages as f64 / self.respond_ns.max(1) as f64);
    }
}

/// Plan- and result-cache hit ratios since the service started.
pub fn cache_ratios(service: &QueryService, layers: &mut Layers) {
    let s = service.stats();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    layers.set("srv.plan_hit_ratio", ratio(s.plan_hits, s.plan_misses));
    layers.set("srv.result_hit_ratio", ratio(s.result_hits, s.result_misses));
}

/// A service with the shipped cache sizes and one session.
pub fn default_service(store: TripleStore, planner: PlannerConfig) -> QueryService {
    service(
        store,
        planner,
        ServiceConfig::DEFAULT_RESULT_CACHE_BYTES,
        ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
        1,
    )
}

/// The update stream's pools: every course, full professor and department
/// of the store, in result order.
pub fn update_stream(service: &QueryService, seed: u64) -> UpdateStream {
    UpdateStream {
        seed,
        courses: instances(service, "Course"),
        professors: instances(service, "FullProfessor"),
        departments: instances(service, "Department"),
    }
}

/// Batch `k` of the stream as the engine takes it.
pub fn batch_of(stream: &UpdateStream, k: u64) -> UpdateBatch {
    let (inserts, deletes) = stream.batch(k);
    UpdateBatch { inserts, deletes }
}

/// Whether a batch changed exactly what the stream says it should.
pub fn applied_fully(k: u64, inserted: usize, deleted: usize) -> bool {
    inserted == 48 && deleted == if k == 0 { 0 } else { 16 }
}

/// Answers of the engine under test against a store rebuilt from scratch
/// (`TripleStore::from_triples`) out of the generator's triples and the
/// model's live synthetic ones: the twelve LUBM queries plus the probe
/// query that the synthetic students do change.
pub fn model_check(
    service: &QueryService,
    base: &[Triple],
    stream: &UpdateStream,
    applied: u64,
    refs: &[Reference],
) -> Check {
    let rebuilt = TripleStore::from_triples(base.iter().cloned().chain(stream.live(applied)));
    let model = default_service(rebuilt, planner(1));
    let mut check = Check::default();
    let probe = format!("QUERY {}", stream.probe_query());
    for request in refs.iter().map(|r| &r.request).chain([&probe]) {
        let ok = respond(service, request) == respond(&model, request);
        if !ok {
            eprintln!("model mismatch after {applied} batches: {request}");
        }
        check.note(ok);
    }
    check
}
