//! `cold_open` — a restart.
//!
//! One operation = `from_snapshot_mmap` of a saved LUBM image, `open_wal`
//! replaying a 200-batch log, and one pass of the twelve queries (plus
//! the probe query the logged batches change); the files are written once
//! in set-up. `rdf::snapshot`, mmap, `wal` replay and `trie` arena
//! adoption dominate and the steady-state layers do little: this is the
//! workload a snapshot-format deletion must not move. At ~130 ms an
//! operation, a run holds well under a hundred samples: the tail reported
//! is the 80th percentile.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use eh_lubm::generate_triples;
use eh_srv::{respond, QueryService, ServiceConfig};
use emptyheaded::FsyncPolicy;

use crate::data::{load_lubm, lubm_mix, UpdateStream};
use crate::env::{Env, ScratchDir};
use crate::harness::{passes_until, Check, Lane, Layers, Workload};
use crate::json::Json;
use crate::svc::{
    applied_fully, batch_of, default_service, model_check, planner, references, update_stream,
    verify_against_oracle, Reference,
};
use crate::trace::Tracer;

/// A 17 MB image: big enough that opening it is a third of the operation
/// (planning the thirteen queries afresh is most of the rest).
const LUBM_SCALE: u32 = 2;
const LOGGED_BATCHES: u64 = 200;

pub struct ColdOpen {
    /// The service that wrote the files, kept as the source of truth.
    live: QueryService,
    stream: UpdateStream,
    refs: Vec<Reference>,
    snapshot: PathBuf,
    wal: PathBuf,
    snapshot_bytes: u64,
    wal_bytes: u64,
    cfg: eh_lubm::GeneratorConfig,
    /// Holds the image and the log; removed with the workload.
    _dir: ScratchDir,
}

fn config() -> ServiceConfig {
    ServiceConfig {
        planner: planner(1).with_wal_fsync(FsyncPolicy::Never),
        result_cache_bytes: ServiceConfig::DEFAULT_RESULT_CACHE_BYTES,
        plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
        server_sessions: 1,
        record_metrics: true,
        slow_query_ms: None,
    }
}

impl ColdOpen {
    fn open(&self, lane: &mut Lane, rid: u64, tr: &mut Tracer) {
        let root = tr.enter("request", rid);
        let t0 = Instant::now();
        let mut service = tr.span("rdf.snapshot_open_mmap", rid, || {
            QueryService::from_snapshot_mmap(&self.snapshot, config()).expect("the image opens")
        });
        let recovery = tr.span("wal.replay", rid, || service.open_wal(&self.wal));
        let mut ok = recovery.is_ok_and(|r| r.replayed as u64 == LOGGED_BATCHES);
        let pass = tr.enter("core.first_pass", rid);
        for r in &self.refs {
            ok &= respond(&service, &r.request) == r.response;
        }
        tr.exit(pass);
        let ns = t0.elapsed().as_nanos() as u64;
        tr.exit(root);
        lane.read(ns, self.refs.iter().map(|r| r.rows).sum(), ok);
    }
}

impl Workload for ColdOpen {
    const NAME: &'static str = "cold_open";
    const TAIL_PCT: f64 = 80.0;

    fn setup(env: &Env, tr: &mut Tracer) -> ColdOpen {
        let cfg = env.lubm(LUBM_SCALE);
        let store = load_lubm(&cfg, tr);
        let dir = ScratchDir::new(Self::NAME);
        let (snapshot, wal) = (dir.path().join("image.snap"), dir.path().join("tail.wal"));
        let mut live = default_service(store, config().planner);
        let stream = update_stream(&live, env.seed);
        // Image first, log after: saving with a log attached would fold
        // the log into the image and leave nothing to replay.
        let (snapshot_bytes, _) = tr
            .span("rdf.snapshot_write", 0, || live.save_snapshot(&snapshot))
            .expect("the image writes");
        live.open_wal(&wal).expect("a fresh log opens");
        for k in 0..LOGGED_BATCHES {
            let summary = live.update(batch_of(&stream, k));
            assert!(applied_fully(k, summary.inserted, summary.deleted), "batch {k}");
        }
        let wal_bytes = live.stats().wal_bytes;
        let mut texts = lubm_mix();
        texts.push(stream.probe_query());
        let refs = references(&live, &texts, &texts, tr);
        ColdOpen { live, stream, refs, snapshot, wal, snapshot_bytes, wal_bytes, cfg, _dir: dir }
    }

    /// The references against the pairwise oracle, and the store they came
    /// from against one rebuilt from the generator's triples and the
    /// model's live synthetic ones.
    fn verify(&mut self, _tr: &mut Tracer) -> Check {
        let mut check = verify_against_oracle(&self.live.store(), &self.refs);
        let base = generate_triples(&self.cfg);
        check.add(model_check(&self.live, &base, &self.stream, LOGGED_BATCHES, &self.refs));
        check
    }

    fn run_rep(&mut self, deadline: Instant, tr: &mut Tracer) -> Vec<Lane> {
        let mut lane = Lane::default();
        let mut rid = 0;
        passes_until(deadline, || {
            rid += 1;
            self.open(&mut lane, rid, tr);
        });
        vec![lane]
    }

    fn probe(&mut self, _env: &Env, _budget: Duration, tr: &mut Tracer, layers: &mut Layers) {
        layers.set("rdf.snapshot_open_mmap_ms", tr.mean_us("rdf.snapshot_open_mmap") / 1e3);
        layers.set("wal.replay_ms", tr.mean_us("wal.replay") / 1e3);
        layers.set("wal.replay_records", LOGGED_BATCHES as f64);
        layers.set("core.first_pass_ms", tr.mean_us("core.first_pass") / 1e3);
        layers.set("rdf.snapshot_write_ms", tr.mean_us("rdf.snapshot_write") / 1e3);
        layers.set("rdf.snapshot_bytes", self.snapshot_bytes as f64);
        layers.set("wal.bytes_per_batch", self.wal_bytes as f64 / LOGGED_BATCHES as f64);
        let triples = self.live.store().num_triples();
        layers.set(
            "stored_bytes_per_triple",
            (self.snapshot_bytes + self.wal_bytes) as f64 / triples as f64,
        );
        // The copying load of the same image, beside the mapped one.
        for i in 0..5 {
            let service = tr.span("rdf.snapshot_read_copy", i, || {
                QueryService::from_snapshot(&self.snapshot, config()).expect("the image loads")
            });
            drop(service);
        }
        layers.set("rdf.snapshot_read_copy_ms", tr.mean_us("rdf.snapshot_read_copy") / 1e3);
    }

    fn sizes(&self) -> Json {
        let mut sizes = Json::obj();
        sizes
            .set("lubm_triples", (self.live.store().num_triples() as u64).into())
            .set("ops_per_pass", 1u64.into())
            .set("queries_per_op", (self.refs.len() as u64).into())
            .set("logged_batches", LOGGED_BATCHES.into())
            .set("snapshot_bytes", self.snapshot_bytes.into())
            .set("wal_bytes", self.wal_bytes.into())
            .set("clients", 1u64.into())
            .set("engine_threads", 1u64.into())
            .set("fsync", "never".into());
        sizes
    }
}
