//! `update_read` — writes beside reads.
//!
//! An in-process [`QueryService`] with a write-ahead log at
//! [`FsyncPolicy::Never`] (device flushes are not real in a sandbox; the
//! traced run prices `Always` separately), one thread. Each round is one
//! 64-triple batch (48 inserts, 16 deletes of earlier inserts, on
//! `takesCourse`/`advisor`/`memberOf`) through `update`, then the twelve
//! LUBM queries once through `respond`; threshold compaction fires on its
//! own. `wal`, `rdf` batch staging, the `trie` overlay merge and catalog
//! invalidation carry the load, and reads run over base+delta cursors, so
//! a join fast path that slows the overlay path shows here.

use std::time::{Duration, Instant};

use eh_lubm::generate_triples;
use eh_query::parse_sparql;
use eh_rdf::{encode_update, Triple, TripleStore};
use eh_srv::{respond, QueryService};
use emptyheaded::{FsyncPolicy, PlannerConfig};

use crate::data::{load_lubm, lubm_mix, UpdateStream};
use crate::env::{Env, ScratchDir};
use crate::harness::{mean_us, passes_until, Check, Lane, Layers, Workload};
use crate::json::Json;
use crate::stats::mean;
use crate::svc::{
    applied_fully, batch_of, cache_ratios, default_service, model_check, planner, references,
    update_stream, verify_against_oracle, Reference,
};
use crate::trace::Tracer;

const LUBM_SCALE: u32 = 1;
/// A predicate folds its overlay into the base table once its staged
/// pairs pass max(this, 20 % of the table). The shipped floor is 4096; a
/// round stages about 11 pairs per predicate and takes ~70 ms (every read
/// re-plans after a write), so at 4096 a run of seconds would never see a
/// fold. At 512 each of the three predicates folds every ~48 rounds and a
/// run sees several compaction cycles.
const COMPACTION_FLOOR: u32 = 512;
/// Batches the traced run applies to fresh twin services; every count it
/// reports comes from this pinned number, so counts repeat for a seed.
const PROBE_BATCHES: u64 = 200;
/// Of which this many are re-run at `FsyncPolicy::Always`.
const FSYNC_BATCHES: u64 = 50;

fn write_planner(fsync: FsyncPolicy) -> PlannerConfig {
    planner(1).with_wal_fsync(fsync).with_compaction(COMPACTION_FLOOR, 20)
}

pub struct UpdateRead {
    service: QueryService,
    /// The store as loaded, for the traced run's fresh twins.
    base: TripleStore,
    stream: UpdateStream,
    refs: Vec<Reference>,
    applied: u64,
    cfg: eh_lubm::GeneratorConfig,
    base_triples: Option<Vec<Triple>>,
    dir: ScratchDir,
}

impl Workload for UpdateRead {
    const NAME: &'static str = "update_read";
    const TAIL_PCT: f64 = 95.0;

    fn setup(env: &Env, tr: &mut Tracer) -> UpdateRead {
        let cfg = env.lubm(LUBM_SCALE);
        let base = load_lubm(&cfg, tr);
        let dir = ScratchDir::new(Self::NAME);
        let mut service = default_service(base.clone(), write_planner(FsyncPolicy::Never));
        service.open_wal(dir.path().join("live.wal")).expect("a fresh log opens");
        let stream = update_stream(&service, env.seed);
        let refs = references(&service, &lubm_mix(), &lubm_mix(), tr);
        UpdateRead { service, base, stream, refs, applied: 0, cfg, base_triples: None, dir }
    }

    fn verify(&mut self, _tr: &mut Tracer) -> Check {
        verify_against_oracle(&self.service.store(), &self.refs)
    }

    /// Rounds of one write and the twelve reads.
    fn run_rep(&mut self, deadline: Instant, tr: &mut Tracer) -> Vec<Lane> {
        let mut lane = Lane::default();
        passes_until(deadline, || {
            let batch = batch_of(&self.stream, self.applied);
            let span = tr.enter("core.update", self.applied);
            let t0 = Instant::now();
            let summary = self.service.update(batch);
            let ns = t0.elapsed().as_nanos() as u64;
            tr.exit(span);
            lane.write(ns, applied_fully(self.applied, summary.inserted, summary.deleted));
            self.applied += 1;
            for r in &self.refs {
                let span = tr.enter("srv.respond", self.applied);
                let t0 = Instant::now();
                let response = respond(&self.service, &r.request);
                let ns = t0.elapsed().as_nanos() as u64;
                tr.exit(span);
                lane.read(ns, r.rows, response == r.response);
            }
        });
        vec![lane]
    }

    /// After every second repetition (ten make four checkpoints and the end):
    /// the engine's answers against a store rebuilt from the model.
    fn checkpoint(&mut self) -> Check {
        let base = self.base_triples.get_or_insert_with(|| generate_triples(&self.cfg));
        model_check(&self.service, base, &self.stream, self.applied, &self.refs)
    }

    fn probe(&mut self, _env: &Env, _budget: Duration, tr: &mut Tracer, layers: &mut Layers) {
        layers.set("srv.respond_us", tr.mean_us("srv.respond"));
        cache_ratios(&self.service, layers);
        layers.set("srv.invalidations", self.service.stats().updates_applied as f64);

        // Twin services over the loaded store, one with a log and one
        // without, take the same pinned batches interleaved: the
        // difference is what the log costs an update.
        let never = write_planner(FsyncPolicy::Never);
        let mut logged = default_service(self.base.clone(), never);
        let wal_path = self.dir.path().join("probe.wal");
        logged.open_wal(&wal_path).expect("a fresh log opens");
        let bare = default_service(self.base.clone(), never);
        let q = parse_sparql(&self.stream.probe_query(), &logged.store()).expect("parses");
        logged.engine().warm(&q).expect("plans");
        let (mut with_log, mut without, mut rewarm) = (Vec::new(), Vec::new(), Vec::new());
        let (mut compactions, mut staged_max, mut all_applied) = (0usize, 0u64, true);
        for k in 0..PROBE_BATCHES {
            let batch = batch_of(&self.stream, k);
            let twin = batch.clone();
            let t0 = Instant::now();
            let summary = tr.span("core.update", k, || logged.update(batch));
            with_log.push(t0.elapsed().as_nanos() as f64 / 1e3);
            let t0 = Instant::now();
            bare.update(twin);
            without.push(t0.elapsed().as_nanos() as f64 / 1e3);
            compactions += summary.compacted_predicates;
            all_applied &= applied_fully(k, summary.inserted, summary.deleted);
            staged_max = staged_max.max(logged.stats().staged_pairs);
            // The next read of a touched predicate merges the new overlay.
            let t0 = Instant::now();
            tr.span("trie.rewarm", k, || logged.engine().warm(&q).expect("plans"));
            rewarm.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        assert!(all_applied, "a probe batch did not apply as generated");
        layers.set("core.update_us", mean(&with_log));
        layers.set("wal.append_us", (mean(&with_log) - mean(&without)).max(0.0));
        layers.set("trie.rewarm_us", mean(&rewarm));
        layers.set("core.compactions", compactions as f64);
        layers.set("rdf.staged_pairs_max", staged_max as f64);
        let wal_bytes = logged.stats().wal_bytes;
        layers.set("wal.bytes_per_batch", wal_bytes as f64 / PROBE_BATCHES as f64);

        // The same batches at `Always`: what a real flush per batch costs
        // here (in a sandbox, not what a device would charge).
        let mut durable = default_service(self.base.clone(), write_planner(FsyncPolicy::Always));
        durable.open_wal(self.dir.path().join("always.wal")).expect("a fresh log opens");
        let (mut fsyncs, mut fsync_us) = (0u64, 0u64);
        for k in 0..FSYNC_BATCHES {
            if let Some(w) = durable.update(batch_of(&self.stream, k)).wal {
                fsyncs += u64::from(w.fsynced);
                fsync_us += w.fsync_us;
            }
        }
        layers.set("wal.fsyncs", fsyncs as f64);
        layers.set("wal.fsync_us", fsync_us as f64 / fsyncs.max(1) as f64);

        // Staging and encoding alone, on a private copy of the store.
        let mut copy = self.base.clone();
        let stage_us = mean_us(PROBE_BATCHES as usize, |k| {
            let (inserts, deletes) = self.stream.batch(k as u64);
            tr.span("rdf.stage", k as u64, || {
                copy.stage_remove_triples(deletes);
                copy.stage_add_triples(inserts);
            });
        });
        layers.set("rdf.stage_us", stage_us);
        let batches: Vec<_> = (0..PROBE_BATCHES).map(|k| self.stream.batch(k)).collect();
        let encode_us = mean_us(batches.len(), |k| {
            let (inserts, deletes) = &batches[k];
            std::hint::black_box(encode_update(deletes, inserts));
        });
        layers.set("rdf.batch_encode_us", encode_us);

        // Fold everything staged, then what the durable footprint is:
        // the image plus the log it has not yet absorbed, per live triple.
        let t0 = Instant::now();
        tr.span("core.compact", 0, || logged.compact());
        layers.set("core.compact_ms", t0.elapsed().as_secs_f64() * 1e3);
        let (snapshot_bytes, triples) =
            logged.save_snapshot(self.dir.path().join("probe.snap")).expect("the image writes");
        layers.set("stored_bytes_per_triple", (snapshot_bytes + wal_bytes) as f64 / triples as f64);
    }

    fn sizes(&self) -> Json {
        let mut sizes = Json::obj();
        sizes
            .set("lubm_triples", (self.base.num_triples() as u64).into())
            .set("ops_per_pass", (1 + self.refs.len() as u64).into())
            .set("batch_triples", 64u64.into())
            .set("batches_applied", self.applied.into())
            .set("clients", 1u64.into())
            .set("engine_threads", 1u64.into())
            .set("compaction_floor", u64::from(COMPACTION_FLOOR).into())
            .set("fsync", "never".into());
        sizes
    }
}
