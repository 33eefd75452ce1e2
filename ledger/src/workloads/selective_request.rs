//! `selective_request` — the front half of a request.
//!
//! In-process `respond(&service, "QUERY …")` over seven selective LUBM
//! templates whose constant is drawn per request, with the result cache
//! holding nothing and a one-entry plan cache, so every request pays
//! parse, canonicalise and plan (GHD choice + LP). The joins themselves
//! take microseconds: emission and intersection are negligible here.

use std::time::{Duration, Instant};

use eh_srv::{respond, QueryService};

use crate::data::{load_lubm, selective_requests, SELECTIVE_TEMPLATES};
use crate::env::Env;
use crate::harness::{passes_until, Check, Lane, Layers, Workload};
use crate::json::Json;
use crate::svc::{
    cache_ratios, instances, planner, references, service, staged_request, verify_against_oracle,
    Reference, StageSums,
};
use crate::trace::Tracer;

const LUBM_SCALE: u32 = 5;
/// Distinct requests in the pinned list one pass replays.
const REQUESTS: usize = 350;

pub struct SelectiveRequest {
    service: QueryService,
    refs: Vec<Reference>,
}

impl Workload for SelectiveRequest {
    const NAME: &'static str = "selective_request";
    const TAIL_PCT: f64 = 95.0;

    fn setup(env: &Env, tr: &mut Tracer) -> SelectiveRequest {
        let store = load_lubm(&env.lubm(LUBM_SCALE), tr);
        let service = service(store, planner(1), 0, 1, 1);
        let pools: Vec<Vec<String>> =
            SELECTIVE_TEMPLATES.iter().map(|t| instances(&service, t.class)).collect();
        let count = if env.smoke { REQUESTS / 10 } else { REQUESTS };
        let texts = selective_requests(env.seed, &pools, count);
        // One request per template reaches every trie the other 49 use.
        let refs = references(&service, &texts, &texts[..SELECTIVE_TEMPLATES.len()], tr);
        SelectiveRequest { service, refs }
    }

    fn verify(&mut self, _tr: &mut Tracer) -> Check {
        verify_against_oracle(&self.service.store(), &self.refs)
    }

    fn run_rep(&mut self, deadline: Instant, tr: &mut Tracer) -> Vec<Lane> {
        let mut lane = Lane::default();
        let mut rid = 0u64;
        passes_until(deadline, || {
            for r in &self.refs {
                rid += 1;
                let span = tr.enter("srv.respond", rid);
                let t0 = Instant::now();
                let response = respond(&self.service, &r.request);
                let ns = t0.elapsed().as_nanos() as u64;
                tr.exit(span);
                lane.read(ns, r.rows, response == r.response);
            }
        });
        vec![lane]
    }

    fn probe(&mut self, _env: &Env, budget: Duration, tr: &mut Tracer, layers: &mut Layers) {
        cache_ratios(&self.service, layers);
        let deadline = Instant::now() + budget;
        let mut sums = StageSums::default();
        passes_until(deadline, || {
            for (i, r) in self.refs.iter().enumerate() {
                sums.add(staged_request(&self.service, &r.request, i as u64, tr));
            }
        });
        sums.report(layers);
    }

    fn sizes(&self) -> Json {
        let mut sizes = Json::obj();
        sizes
            .set("lubm_triples", (self.service.store().num_triples() as u64).into())
            .set("ops_per_pass", (self.refs.len() as u64).into())
            .set("clients", 1u64.into())
            .set("engine_threads", 1u64.into())
            .set("result_cache_bytes", 0u64.into())
            .set("plan_cache_entries", 1u64.into());
        sizes
    }
}
