//! `emit_request` — the back half of a request.
//!
//! One [`Client`] over real loopback TCP to an in-process [`serve`],
//! result cache holding nothing, plan cache on, one engine thread,
//! round-robin over five queries bound by single-participant iteration
//! and emission: emit → `rdf` dictionary decode → `srv` serialise →
//! socket write dominate and intersection is idle. This is the workload
//! ROADMAP expects the first optimisation to claim on.
//!
//! [`serve`]: eh_srv::serve

use std::time::{Duration, Instant};

use eh_srv::{respond, Client, ServiceConfig};

use crate::data::{emit_queries, load_lubm};
use crate::env::Env;
use crate::harness::{passes_until, Check, Lane, Layers, Workload};
use crate::json::Json;
use crate::svc::{
    cache_ratios, planner, references, service, staged_request, verify_against_oracle, Reference,
    Server, StageSums,
};
use crate::trace::Tracer;

/// The two-hop reply alone is ~65 k rows (5 MB) here. At ~16 ms a request
/// a run pools several hundred replies: enough for a 95th percentile, not
/// for a 99th.
const LUBM_SCALE: u32 = 2;

pub struct EmitRequest {
    // Dropped in this order: the client hangs up before the server stops.
    client: Client,
    server: Server,
    refs: Vec<Reference>,
}

impl Workload for EmitRequest {
    const NAME: &'static str = "emit_request";
    const TAIL_PCT: f64 = 95.0;

    fn setup(env: &Env, tr: &mut Tracer) -> EmitRequest {
        let store = load_lubm(&env.lubm(LUBM_SCALE), tr);
        let service = service(store, planner(1), 0, ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES, 2);
        let texts: Vec<String> = emit_queries().into_iter().map(|(_, text)| text).collect();
        let refs = references(&service, &texts, &texts, tr);
        let server = Server::start(service);
        let client = Client::connect(server.addr).expect("connect to the loopback server");
        EmitRequest { server, client, refs }
    }

    fn verify(&mut self, _tr: &mut Tracer) -> Check {
        verify_against_oracle(&self.server.service.store(), &self.refs)
    }

    fn run_rep(&mut self, deadline: Instant, tr: &mut Tracer) -> Vec<Lane> {
        let mut lane = Lane::default();
        let mut rid = 0u64;
        passes_until(deadline, || {
            for r in &self.refs {
                rid += 1;
                let span = tr.enter("srv.wire", rid);
                let t0 = Instant::now();
                let response = self.client.send(&r.request);
                let ns = t0.elapsed().as_nanos() as u64;
                tr.exit(span);
                lane.read(ns, r.rows, response.is_ok_and(|got| got == r.response));
            }
        });
        vec![lane]
    }

    fn probe(&mut self, _env: &Env, budget: Duration, tr: &mut Tracer, layers: &mut Layers) {
        let service = &self.server.service;
        cache_ratios(service, layers);
        let deadline = Instant::now() + budget;
        let mut sums = StageSums::default();
        let (mut wire_ns, mut respond_ns) = (0u64, 0u64);
        passes_until(deadline, || {
            for (i, r) in self.refs.iter().enumerate() {
                // The same request over the socket and in process, back to
                // back: the difference is the wire (syscalls, copies,
                // framing, the session thread's wake-up).
                let t0 = Instant::now();
                std::hint::black_box(self.client.send(&r.request).expect("round trip"));
                wire_ns += t0.elapsed().as_nanos() as u64;
                let t0 = Instant::now();
                std::hint::black_box(respond(service, &r.request));
                respond_ns += t0.elapsed().as_nanos() as u64;
                sums.add(staged_request(service, &r.request, i as u64, tr));
            }
        });
        sums.report(layers);
        let per_request = wire_ns.saturating_sub(respond_ns) as f64 / sums.requests.max(1) as f64;
        layers.set("srv.wire_us", per_request / 1e3);
    }

    fn sizes(&self) -> Json {
        let mut sizes = Json::obj();
        sizes
            .set("lubm_triples", (self.server.service.store().num_triples() as u64).into())
            .set("ops_per_pass", (self.refs.len() as u64).into())
            .set("rows_per_pass", self.refs.iter().map(|r| r.rows).sum::<u64>().into())
            .set("clients", 1u64.into())
            .set("engine_threads", 1u64.into())
            .set("result_cache_bytes", 0u64.into());
        sizes
    }
}
