//! `cyclic_join` — the paper's headline case.
//!
//! In-process, pre-planned, warmed [`Engine::run_plan`] over the two
//! cyclic LUBM queries (2 and 9: sparse uint sets) and five graph-pattern
//! shapes on the skewed synthetic `edge` graph (dense hubs: bitset sets).
//! `setops` intersection, the generic join in `core::exec` and `par` do
//! nearly all the work; parse, plan, render, wire and WAL do none.

use std::time::{Duration, Instant};

use eh_baselines::{MonetDbStyle, QueryEngine, Rdf3xStyle};
use eh_ghd::{choose_ghd, ChooseMode};
use eh_query::{parse_sparql, ConjunctiveQuery, Hypergraph};
use eh_srv::SharedStore;
use emptyheaded::{Engine, Plan, QueryResult};

use crate::data::{edge_list, edge_store, load_lubm, lubm_text, shape_sparql, GraphSize, SHAPES};
use crate::env::Env;
use crate::harness::{mean_us, passes_until, Check, Lane, Layers, Workload};
use crate::json::Json;
use crate::stats::median;
use crate::svc::planner;
use crate::trace::Tracer;

const LUBM_SCALE: u32 = 5;

struct Case {
    name: &'static str,
    /// Index into `engines`: 0 = LUBM, 1 = the synthetic graph.
    on: usize,
    query: ConjunctiveQuery,
    plan: Plan,
    reference: QueryResult,
}

pub struct CyclicJoin {
    stores: [SharedStore; 2],
    engines: [Engine; 2],
    cases: Vec<Case>,
    threads: usize,
}

fn sorted_rows<'a>(rows: impl Iterator<Item = &'a [u32]>) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = rows.map(<[u32]>::to_vec).collect();
    rows.sort_unstable();
    rows
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

impl CyclicJoin {
    fn case(&self, name: &str) -> &Case {
        self.cases.iter().find(|c| c.name == name).expect("a case of this workload")
    }

    /// Median of three warm executions, in milliseconds.
    fn wcoj_ms(&self, case: &Case) -> f64 {
        let engine = &self.engines[case.on];
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                time_ms(|| {
                    std::hint::black_box(engine.run_plan(&case.query, &case.plan));
                })
            })
            .collect();
        median(&runs)
    }

    fn pairwise_ratio(&self, name: &str) -> f64 {
        let case = self.case(name);
        let store = self.stores[case.on].read();
        let pairwise = MonetDbStyle::new(&store);
        let pairwise_ms = time_ms(|| {
            std::hint::black_box(pairwise.execute(&case.query));
        });
        pairwise_ms / self.wcoj_ms(case)
    }
}

impl Workload for CyclicJoin {
    const NAME: &'static str = "cyclic_join";
    const TAIL_PCT: f64 = 95.0;

    fn setup(env: &Env, tr: &mut Tracer) -> CyclicJoin {
        let threads = env.engine_threads();
        let lubm = load_lubm(&env.lubm(LUBM_SCALE), tr);
        let size = if env.smoke { GraphSize::SMOKE } else { GraphSize::FULL };
        let graph = tr.span("rdf.load", 0, || edge_store(&edge_list(env.seed, &size)));
        let stores = [SharedStore::new(lubm), SharedStore::new(graph)];
        let engines = [0, 1].map(|i| Engine::with_config(stores[i].clone(), planner(threads)));

        let mut texts: Vec<(&'static str, usize, String)> =
            vec![("q2", 0, lubm_text(2)), ("q9", 0, lubm_text(9))];
        texts.extend(SHAPES.iter().map(|&(name, pattern)| (name, 1, shape_sparql(pattern))));
        let warm = tr.enter("trie.warm", 0);
        let cases = texts
            .into_iter()
            .map(|(name, on, text)| {
                let engine = &engines[on];
                let query = parse_sparql(&text, &engine.store()).expect("generated queries parse");
                engine.warm(&query).expect("generated queries plan");
                let plan = engine.plan(&query).expect("generated queries plan");
                let reference = engine.run_plan(&query, &plan);
                Case { name, on, query, plan, reference }
            })
            .collect();
        tr.exit(warm);
        CyclicJoin { stores, engines, cases, threads }
    }

    /// Every reference against [`Rdf3xStyle`]; the triangle also against
    /// [`MonetDbStyle`]'s hash joins (its materialised intermediates make
    /// the four-node shapes infeasible at any size worth timing).
    fn verify(&mut self, _tr: &mut Tracer) -> Check {
        let mut check = Check::default();
        for (on, store) in self.stores.iter().enumerate() {
            let store = store.read();
            let oracle = Rdf3xStyle::new(&store);
            for case in self.cases.iter().filter(|c| c.on == on) {
                let expected = oracle.execute(&case.query);
                let ok = sorted_rows(expected.rows()) == sorted_rows(case.reference.iter());
                if !ok {
                    eprintln!("oracle mismatch: {}", case.name);
                }
                check.note(ok);
            }
        }
        let triangle = self.case("triangle");
        let store = self.stores[1].read();
        let expected = MonetDbStyle::new(&store).execute(&triangle.query);
        check.note(sorted_rows(expected.rows()) == sorted_rows(triangle.reference.iter()));
        check
    }

    fn run_rep(&mut self, deadline: Instant, tr: &mut Tracer) -> Vec<Lane> {
        let mut lane = Lane::default();
        let mut rid = 0u64;
        passes_until(deadline, || {
            for case in &self.cases {
                rid += 1;
                let span = tr.enter("core.exec", rid);
                let t0 = Instant::now();
                let result = self.engines[case.on].run_plan(&case.query, &case.plan);
                let ns = t0.elapsed().as_nanos() as u64;
                tr.exit(span);
                lane.read(ns, result.cardinality() as u64, result == case.reference);
            }
        });
        vec![lane]
    }

    fn probe(&mut self, _env: &Env, _budget: Duration, tr: &mut Tracer, layers: &mut Layers) {
        layers.set("core.exec_us", tr.mean_us("core.exec"));
        let plan_us = mean_us(self.cases.len(), |i| {
            let case = &self.cases[i];
            tr.span("core.plan", 0, || {
                std::hint::black_box(self.engines[case.on].plan(&case.query).expect("plans"));
            });
        });
        layers.set("core.plan_us", plan_us);
        let choose_us = mean_us(self.cases.len(), |i| {
            let q = &self.cases[i].query;
            let selected: Vec<bool> = (0..q.num_vars()).map(|v| q.is_selected(v)).collect();
            tr.span("ghd.choose", 0, || {
                let h = Hypergraph::from_query(q);
                std::hint::black_box(choose_ghd(&h, &selected, ChooseMode::SelectionAware));
            });
        });
        layers.set("ghd.choose_us", choose_us);

        // One profiled pass: the executor's own tallies, summed over the
        // seven queries. Counts repeat exactly for a seed; times do not.
        let (mut intersect_ns, mut dispatches, mut word_and) = (0u64, 0u64, 0u64);
        let (mut candidates, mut rows, mut morsels) = (0u64, 0u64, 0u64);
        let mut busy = vec![0u64; self.threads];
        for case in &self.cases {
            let (result, profile) =
                self.engines[case.on].run_plan_profiled(&case.query, &case.plan);
            let kernels = profile.kernel_totals();
            dispatches += kernels.dispatches();
            word_and += kernels.word_and;
            rows += result.cardinality() as u64;
            for join in &profile.joins {
                morsels += join.morsels;
                for depth in &join.depths {
                    intersect_ns += depth.intersect_ns;
                    candidates += depth.candidates;
                }
            }
            for (slot, ns) in busy.iter_mut().zip(&profile.workers.busy_ns) {
                *slot += ns;
            }
        }
        layers.set("setops.intersect_ns", intersect_ns as f64);
        layers.set("setops.dispatches", dispatches as f64);
        layers.set("setops.candidates_per_row", candidates as f64 / rows.max(1) as f64);
        layers.set("setops.bitset_share", word_and as f64 / dispatches.max(1) as f64);
        layers.set("exec.rows", rows as f64);
        layers.set("exec.morsels", morsels as f64);
        let busiest = busy.iter().copied().max().unwrap_or(0) as f64;
        let mean_busy = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        layers.set("par.worker_imbalance", if mean_busy > 0.0 { busiest / mean_busy } else { 1.0 });

        // One worker against the configured workers, interleaved, over
        // the same stores. With one hardware thread there is nothing to
        // compare and the ratio reads 1.
        let speedup = if self.threads < 2 {
            1.0
        } else {
            let serial = [0, 1].map(|i| Engine::with_config(self.stores[i].clone(), planner(1)));
            for case in &self.cases {
                serial[case.on].warm(&case.query).expect("plans");
            }
            let pass = |engines: &[Engine; 2]| {
                time_ms(|| {
                    for case in &self.cases {
                        std::hint::black_box(engines[case.on].run_plan(&case.query, &case.plan));
                    }
                })
            };
            let (mut one, mut many) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                one.push(pass(&serial));
                many.push(pass(&self.engines));
            }
            median(&one) / median(&many)
        };
        layers.set("par.speedup_2t", speedup);

        layers.set("baselines.pairwise_ratio_q2", self.pairwise_ratio("q2"));
        layers.set("baselines.pairwise_ratio_q9", self.pairwise_ratio("q9"));
        layers.set("baselines.pairwise_ratio_triangle", self.pairwise_ratio("triangle"));
    }

    fn sizes(&self) -> Json {
        let triples = |s: &SharedStore| s.read().num_triples() as u64;
        let mut sizes = Json::obj();
        sizes
            .set("lubm_triples", triples(&self.stores[0]).into())
            .set("edge_triples", triples(&self.stores[1]).into())
            .set("ops_per_pass", (self.cases.len() as u64).into())
            .set("clients", 1u64.into())
            .set("engine_threads", (self.threads as u64).into());
        sizes
    }
}
