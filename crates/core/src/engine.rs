//! The user-facing engine API.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use eh_query::{parse_sparql, ConjunctiveQuery};
use eh_rdf::{LoadInfo, LoadMode, SnapshotError, StoreSnapshot, TripleStore};
use eh_wal::{crash_point, FsyncPolicy, Wal, WalError, WalScan};

use crate::error::EngineError;
use crate::exec::{execute_plan, relation};
use crate::flags::{OptFlags, PlannerConfig};
use crate::plan::Plan;
use crate::planner::build_plan_with;
use crate::profile::{ExecStats, QueryProfile};
use crate::result::QueryResult;
use crate::shared::SharedStore;
use crate::update::{UpdateBatch, UpdateSummary, WalAppend};

/// `EH_OBS_FORCE=1` routes every plan execution through the profiled
/// path (the profile is recorded and discarded when the caller didn't ask
/// for it). CI uses this to run the whole suite with instrumentation on,
/// proving the recording layer cannot perturb results.
fn obs_forced() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("EH_OBS_FORCE").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// A WAL frame that checksums clean but whose payload fails batch
/// decode is corrupt content, not framing — surface it through the same
/// typed refusal.
fn payload_decode_reason(e: &eh_rdf::BatchCodecError) -> &'static str {
    use eh_rdf::BatchCodecError;
    match e {
        BatchCodecError::Truncated => "payload decode: truncated batch",
        BatchCodecError::BadTermKind(_) => "payload decode: unknown term kind",
        BatchCodecError::BadUtf8 => "payload decode: bad utf-8",
        BatchCodecError::BadSharedPrefix => "payload decode: bad shared prefix",
        BatchCodecError::TrailingBytes(_) => "payload decode: trailing bytes",
    }
}

/// A worst-case optimal join engine over a [`SharedStore`].
///
/// The engine reads its operands straight from the store: its own frozen
/// tries (its "indexes"), built once at load and reused across queries as
/// EmptyHeaded does, plus what the store memoises from them on first use
/// (overlays, ablation re-freezes). Timing methodology note: the paper
/// excludes index construction from query time (§IV-A4) — call
/// [`Engine::warm`] before measuring.
///
/// The store is *live*: [`Engine::update`] stages a batch of insertions
/// and deletions as deltas beside the untouched base tries and advances
/// the epoch so downstream result caches retire their stale entries.
/// Every operation pins one store version when it starts and reads only
/// that version, so an answer is always one store state's answer; a write
/// landing meanwhile publishes the next version without waiting for it
/// (see [`SharedStore`]).
///
/// [`SharedStore`]: crate::SharedStore
pub struct Engine {
    store: SharedStore,
    config: PlannerConfig,
    /// How the snapshot behind this engine loaded (copy vs mmap, with
    /// any fallback reason); `None` for engines not built from a
    /// snapshot.
    load: Option<LoadInfo>,
    /// The attached write-ahead log, `None` until
    /// [`Engine::open_wal`]. Behind a `Mutex` because appends must hit
    /// the file in the same order batches stage: `update` holds this
    /// lock from its append through its staging, making (append order)
    /// = (apply order) by construction. Lock order is wal → store;
    /// nothing takes them the other way around.
    wal: Option<Mutex<Wal>>,
    /// Serialises [`Engine::save_snapshot`] against itself, clone through
    /// log truncation: the image on disk and the log's base sequence must
    /// advance together, in one order. Taken before the wal lock.
    save: Mutex<()>,
}

/// What replaying a log did (see [`Engine::open_wal`] /
/// [`Engine::replay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalRecovery {
    /// Log records replayed through the update machinery.
    pub replayed: usize,
    /// Triples actually added across the replayed batches.
    pub inserted: usize,
    /// Triples actually removed across the replayed batches.
    pub deleted: usize,
    /// The log's base sequence (already folded into the snapshot).
    pub base_seq: u64,
    /// Last sequence number in the log after recovery.
    pub last_seq: u64,
    /// Whether a torn final record was dropped during the open.
    pub torn_tail_dropped: bool,
}

impl WalRecovery {
    /// The one replay loop: decode each scanned record into a batch and
    /// hand it to `apply` — the engine's own staging on recovery, its
    /// logged update path for a foreign log, a serving tier's update path
    /// for `REPLAY` — tallying what the batches changed. A record whose
    /// payload does not decode refuses the whole replay with a typed
    /// [`WalError::Corrupt`], never replaying around it.
    pub fn replay(
        scan: &WalScan,
        mut apply: impl FnMut(UpdateBatch) -> Result<UpdateSummary, WalError>,
    ) -> Result<WalRecovery, WalError> {
        let mut recovery = WalRecovery {
            base_seq: scan.base_seq,
            last_seq: scan.last_seq(),
            torn_tail_dropped: scan.torn.is_some(),
            ..WalRecovery::default()
        };
        for record in &scan.records {
            let (deletes, inserts) = eh_rdf::decode_update(&record.payload).map_err(|e| {
                WalError::Corrupt { seq: record.seq, offset: 0, reason: payload_decode_reason(&e) }
            })?;
            let summary = apply(UpdateBatch { inserts, deletes })?;
            recovery.replayed += 1;
            recovery.inserted += summary.inserted;
            recovery.deleted += summary.deleted;
        }
        Ok(recovery)
    }
}

/// Live WAL observables (surfaced in `STATS` and `METRICS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatus {
    /// Last appended sequence number.
    pub seq: u64,
    /// Log file size in bytes.
    pub bytes: u64,
    /// The configured fsync policy.
    pub fsync: FsyncPolicy,
}

impl Engine {
    /// An engine with the given optimization flags. Accepts a
    /// [`SharedStore`] (clone the handle to keep access) or a bare
    /// [`TripleStore`] (moved in; read it through [`Engine::store`]).
    pub fn new(store: impl Into<SharedStore>, flags: OptFlags) -> Engine {
        Engine::with_config(store, PlannerConfig::with_flags(flags))
    }

    /// An engine with a full planner configuration (used by the
    /// LogicBlox-style baseline).
    pub fn with_config(store: impl Into<SharedStore>, config: PlannerConfig) -> Engine {
        Engine { store: store.into(), config, load: None, wal: None, save: Mutex::new(()) }
    }

    /// An engine restored from the snapshot file at `path`: the store
    /// loads without parsing or re-freezing, its base tries the image's —
    /// so the engine starts *warm*. The loaded store is as mutable as a
    /// cold-built one; compaction re-freezes only the folded predicate's
    /// tries, exactly as on any store.
    ///
    /// [`LoadMode::Copy`] decodes the arenas into owned memory;
    /// [`LoadMode::Mmap`] serves them straight from the mapped pages, so
    /// cold start pays metadata decode and the reader's checks, not an
    /// arena copy, and co-located processes mapping the same file share
    /// physical memory. A mapping the platform refuses falls back to the
    /// copy path (recorded in [`Engine::load_info`]); only corruption and
    /// I/O errors fail.
    pub fn open(
        path: impl AsRef<Path>,
        mode: LoadMode,
        config: PlannerConfig,
    ) -> Result<Engine, SnapshotError> {
        let snapshot = StoreSnapshot::open(path, mode)?;
        let mut engine = Engine::with_config(snapshot.store, config);
        engine.load = Some(snapshot.load);
        Ok(engine)
    }

    /// How this engine's snapshot loaded — `None` when the engine was
    /// not built from a snapshot. A serving tier surfaces this in STATS
    /// and metrics so "did we actually get mmap?" is answerable from
    /// outside the process.
    pub fn load_info(&self) -> Option<LoadInfo> {
        self.load
    }

    /// Persist the current store — dictionary and both frozen tries of
    /// every relation — to a snapshot file. Returns the bytes written and
    /// the number of triples the image holds.
    ///
    /// The save pins one store version, so the image is a consistent
    /// point in time, and folds that version's deltas into a private copy
    /// of it: writers are not stalled behind the fold and the file I/O.
    /// The triple count is taken from that same copy, so it always agrees
    /// with the file contents even when updates land mid-save.
    /// With a WAL attached, `save` also *truncates the log*: records
    /// folded into the image are dropped (atomic temp-and-rename, like
    /// the snapshot itself), so the log only ever holds the tail since
    /// the last image. The version is pinned and the WAL sequence
    /// captured under the wal lock — and because updates hold that lock
    /// from append through staging, every record `<=` the captured
    /// sequence is *in* the pinned version and every later one is not.
    /// A crash between the image rename and the log truncation leaves
    /// both the new image and the untruncated log; replaying
    /// already-folded records is idempotent (set semantics: re-inserts
    /// and re-deletes of applied operations are no-ops), so recovery
    /// still converges to the identical store.
    ///
    /// Concurrent saves run one at a time, each from its pin to its
    /// truncation. Otherwise a save that captured sequence 5 could rename
    /// its image over one that captured 7 and already truncated the log
    /// through 7 — leaving records 6–7 in neither file.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(u64, usize), SnapshotError> {
        // The guard protects no data, so a save that panicked mid-way
        // leaves nothing behind it for the next one to trip over.
        let _saving = self.save.lock().unwrap_or_else(PoisonError::into_inner);
        let (pinned, wal_seq) = match &self.wal {
            None => (self.store(), None),
            Some(wal) => {
                let w = Self::lock_wal(wal);
                (self.store(), Some(w.last_seq()))
                // wal lock drops here: writers proceed while the copy
                // folds and writes below.
            }
        };
        // Snapshots encode base relations only; fold the staged deltas
        // into a private copy so overlay novelty is never silently
        // dropped from the image. The live store keeps its deltas.
        let mut store = Arc::unwrap_or_clone(pinned);
        store.compact_all();
        crash_point("engine-save-pre");
        let bytes = StoreSnapshot::write_to_path(&store, path)?;
        crash_point("engine-save-renamed");
        if let (Some(wal), Some(seq)) = (&self.wal, wal_seq) {
            Self::lock_wal(wal)
                .truncate_through(seq)
                .map_err(|e| SnapshotError::Io(std::io::Error::other(e.to_string())))?;
        }
        Ok((bytes, store.num_triples()))
    }

    /// Attach (or create) a write-ahead log at `path`, first replaying
    /// any records it holds through the staging machinery — the restart
    /// protocol is: load snapshot, `open_wal`, serve. Replayed batches
    /// stage exactly like live traffic (deltas, threshold compaction,
    /// epoch bumps) but are not re-appended to the log. The fsync
    /// policy comes from [`PlannerConfig::wal_fsync`].
    ///
    /// A torn final record (crash mid-append) is dropped with a warning
    /// and the file truncated to the last clean frame; corruption
    /// anywhere earlier refuses with [`WalError::Corrupt`] rather than
    /// replaying around a hole.
    pub fn open_wal(&mut self, path: impl AsRef<Path>) -> Result<WalRecovery, WalError> {
        assert!(self.wal.is_none(), "engine already has a wal attached");
        let (wal, scan) = Wal::open(path.as_ref(), self.config.wal_fsync)?;
        let recovery = WalRecovery::replay(&scan, |batch| Ok(self.apply_batch(batch)))?;
        self.wal = Some(Mutex::new(wal));
        Ok(recovery)
    }

    /// Replay a *foreign* log file through [`Engine::update`] — the
    /// `REPLAY <path>` verb, and the replica catch-up entry point: a
    /// follower replays the primary's shipped log tail, and if the
    /// follower has its own WAL attached the replayed batches are
    /// logged there like any other write.
    pub fn replay(&self, path: impl AsRef<Path>) -> Result<WalRecovery, WalError> {
        WalRecovery::replay(&eh_wal::scan_path(path.as_ref())?, |batch| self.try_update(batch))
    }

    /// Current WAL observables, `None` when no log is attached.
    pub fn wal_status(&self) -> Option<WalStatus> {
        self.wal.as_ref().map(|wal| {
            let w = Self::lock_wal(wal);
            WalStatus { seq: w.last_seq(), bytes: w.log_bytes(), fsync: w.policy() }
        })
    }

    /// Pin the current store version (see [`SharedStore::read`]): a
    /// fixed state for term resolution and row decoding. A pin blocks no
    /// writer, but the first write while it is held copies the store, so
    /// drop it when done.
    ///
    /// [`SharedStore::read`]: crate::SharedStore::read
    pub fn store(&self) -> Arc<TripleStore> {
        self.store.read()
    }

    /// The planner configuration.
    pub fn config(&self) -> PlannerConfig {
        self.config
    }

    /// The current epoch: the store's
    /// [`version`](SharedStore::version), which every change to the store
    /// advances. Engines over one store share it, and layers that cache
    /// *derived* artifacts (a serving tier's result cache) key them by it.
    pub fn epoch(&self) -> u64 {
        self.store.version()
    }

    /// Advance the epoch without changing the store, forcing downstream
    /// caches keyed by `(query, epoch)` to miss. Every trie survives.
    /// Returns the new epoch.
    pub fn invalidate(&self) -> u64 {
        let mut version = self.store.write();
        version.epoch += 1;
        version.epoch
    }

    /// Apply a batch of live updates: deletions first, then insertions
    /// (SPARQL Update convention), atomically: the batch lands as one
    /// new store version. The batch is **staged** LSM-style — sorted
    /// per-predicate delta sets of inserts and tombstones — in O(delta)
    /// time, without re-freezing any trie: queries serve the novelty by
    /// handing each delta to the multiway driver as one more set operand.
    /// Only a predicate whose accumulated delta crosses
    /// [`PlannerConfig::compaction_threshold`] is folded into freshly
    /// frozen base tries as part of the batch.
    /// The epoch — the store's version — advances once per batch, in the
    /// write guard that publishes the batch; a batch that changes
    /// nothing — duplicates of resident triples, deletions of absent
    /// ones — leaves deltas, epoch, and downstream caches untouched.
    ///
    /// With a log attached ([`Engine::open_wal`]) the encoded batch is
    /// appended — and pushed to stable storage per the configured
    /// [`FsyncPolicy`] — *before* any delta stages, so an acknowledged
    /// batch survives a crash. A WAL I/O failure is fail-stop here
    /// (panic): acknowledging an unlogged batch would be a silent
    /// durability hole. Use [`Engine::try_update`] to handle it.
    pub fn update(&self, batch: UpdateBatch) -> UpdateSummary {
        self.try_update(batch).unwrap_or_else(|e| {
            panic!("wal append failed; refusing to apply an unlogged batch: {e}")
        })
    }

    /// [`Engine::update`] with WAL failures surfaced instead of
    /// panicking. Without an attached log this cannot fail.
    pub fn try_update(&self, batch: UpdateBatch) -> Result<UpdateSummary, WalError> {
        let Some(wal) = &self.wal else { return Ok(self.apply_batch(batch)) };
        // Hold the wal lock across append *and* staging: append order
        // is apply order, so replay reproduces exactly the live
        // sequence of store states. No-op batches are logged too —
        // their replay is a no-op, and deciding no-op-ness up front
        // would need the store lock this method must not take first.
        let mut wal = Self::lock_wal(wal);
        let info =
            wal.append_with(|buf| eh_rdf::encode_update_into(buf, &batch.deletes, &batch.inserts))?;
        let mut summary = self.apply_batch(batch);
        crash_point("engine-staged");
        summary.wal = Some(WalAppend {
            seq: info.seq,
            wal_bytes: info.wal_bytes,
            fsynced: info.fsynced,
            fsync_us: info.fsync_us,
        });
        Ok(summary)
    }

    /// The wal mutex is only poisoned when a writer died between its
    /// append and its staging; the next append would then follow a
    /// frame whose batch never applied, silently diverging log from
    /// store. Fail-stop and let recovery replay the log.
    fn lock_wal(wal: &Mutex<Wal>) -> MutexGuard<'_, Wal> {
        wal.lock().unwrap_or_else(|_| {
            panic!("wal mutex poisoned: a writer died mid-update; restart and recover")
        })
    }

    /// Stage one batch into the live store (the non-durable inner half
    /// of [`Engine::update`]; WAL replay calls this directly so
    /// recovered batches are *not* re-appended to the log they came
    /// from).
    fn apply_batch(&self, batch: UpdateBatch) -> UpdateSummary {
        let mut version = self.store.write();
        let store = Arc::make_mut(&mut version.store);
        let mut report = store.stage_remove_triples(batch.deletes);
        report.merge(store.stage_add_triples(batch.inserts));
        if report.is_empty() {
            return UpdateSummary::unchanged(version.epoch);
        }
        // Threshold compaction, still under the write guard: fold exactly
        // the predicates whose deltas grew past max(absolute floor, frac%
        // of the base table). Every other predicate's tries and deltas are
        // untouched; everything below the threshold stays an overlay.
        let mut compacted = 0;
        for &p in &report.changed_preds {
            let staged = store.delta(p).map_or(0, eh_rdf::PredDelta::len);
            let base = store.trie_pair(p).map_or(0, eh_rdf::TriePair::len);
            if staged > 0 && staged >= self.config.compaction_threshold(base) {
                store.compact_pred(p);
                compacted += 1;
            }
        }
        version.epoch += 1;
        UpdateSummary {
            inserted: report.added,
            deleted: report.removed,
            changed_predicates: report.changed_preds.len(),
            rebuilt_tries: 2 * compacted,
            compacted_predicates: compacted,
            epoch: version.epoch,
            wal: None,
        }
    }

    /// Fold every staged delta into freshly frozen base tries — the
    /// off-hot-path compaction entry point a serving tier calls from its
    /// maintenance trigger (or a caller who wants overlay memory back).
    /// No-op (epoch untouched) when nothing is staged.
    pub fn compact(&self) -> UpdateSummary {
        let mut version = self.store.write();
        if !version.store.has_deltas() {
            return UpdateSummary::unchanged(version.epoch);
        }
        let folded = Arc::make_mut(&mut version.store).compact_all().len();
        version.epoch += 1;
        UpdateSummary {
            inserted: 0,
            deleted: 0,
            changed_predicates: folded,
            rebuilt_tries: 2 * folded,
            compacted_predicates: folded,
            epoch: version.epoch,
            wal: None,
        }
    }

    /// Plan a query without running it.
    pub fn plan(&self, q: &ConjunctiveQuery) -> Result<Plan, EngineError> {
        self.plan_on(&self.store(), q)
    }

    fn plan_on(&self, store: &TripleStore, q: &ConjunctiveQuery) -> Result<Plan, EngineError> {
        if q.projection().is_empty() {
            return Err(EngineError::EmptyProjection);
        }
        Ok(build_plan_with(q, self.config, Some(store)))
    }

    /// Plan and execute a query.
    pub fn run(&self, q: &ConjunctiveQuery) -> Result<QueryResult, EngineError> {
        let store = self.store();
        let plan = self.plan_on(&store, q)?;
        Ok(self.execute(&store, q, &plan, obs_forced()).0)
    }

    /// Execute a previously built plan (on the configured runtime:
    /// sequential by default, morsel-parallel when
    /// [`PlannerConfig::with_threads`] asked for workers) against the
    /// store version current when it starts. Every operand comes from
    /// that version, so the answer is one store state's answer however
    /// many updates land while the join runs.
    pub fn run_plan(&self, q: &ConjunctiveQuery, plan: &Plan) -> QueryResult {
        self.execute(&self.store(), q, plan, obs_forced()).0
    }

    /// Execute a previously built plan with full profiling, as
    /// [`Engine::run_plan`] does, recording every join's kernel
    /// dispatches, candidate counts, probes, and wall times.
    pub fn run_plan_profiled(
        &self,
        q: &ConjunctiveQuery,
        plan: &Plan,
    ) -> (QueryResult, QueryProfile) {
        let (result, profile) = self.execute(&self.store(), q, plan, true);
        (result, profile.expect("a profiled run returns its profile"))
    }

    /// Run `plan` on the pinned `store`; `profiled` decides whether the
    /// run records into a collector (and reads the clock).
    fn execute(
        &self,
        store: &TripleStore,
        q: &ConjunctiveQuery,
        plan: &Plan,
        profiled: bool,
    ) -> (QueryResult, Option<QueryProfile>) {
        let threads = self.config.runtime.num_threads;
        let t0 = profiled.then(Instant::now);
        let stats = profiled.then(|| ExecStats::new(threads));
        let result = execute_plan(
            store,
            q,
            plan,
            self.config.flags.layouts,
            self.config.runtime,
            stats.as_ref(),
        );
        let profile = stats
            .zip(t0)
            .map(|(stats, t0)| stats.snapshot(threads, t0.elapsed().as_nanos() as u64));
        (result, profile)
    }

    /// Parse a SPARQL query against this engine's store and run it.
    pub fn run_sparql(&self, text: &str) -> Result<QueryResult, EngineError> {
        let store = self.store();
        let q = parse_sparql(text, &store)?;
        let plan = self.plan_on(&store, &q)?;
        Ok(self.execute(&store, &q, &plan, obs_forced()).0)
    }

    /// Pre-build the tries a query needs, so a subsequent timed
    /// [`Engine::run`] measures join execution, not index construction —
    /// the paper's timing methodology (§IV-A4) excludes index build time.
    /// Auto-layout tries are the store's own and always built, so this
    /// only plans the query unless the engine runs the `UintOnly`
    /// ablation, whose re-freezes it builds.
    ///
    /// Distinct tries build **concurrently** on the configured runtime's
    /// workers (EmptyHeaded's trie construction is parallel too); each
    /// one is built once however many workers ask for it.
    pub fn warm(&self, q: &ConjunctiveQuery) -> Result<(), EngineError> {
        let store = self.store();
        let plan = self.plan_on(&store, q)?;
        if self.config.flags.layouts {
            return Ok(());
        }
        // One build job per distinct (predicate, column order).
        let mut jobs: Vec<(u32, bool, usize)> = plan
            .nodes
            .iter()
            .flat_map(|node| node.atoms.iter())
            .map(|ap| (q.atoms()[ap.atom_index].pred, ap.subject_first, ap.atom_index))
            .collect();
        jobs.sort_unstable();
        jobs.dedup_by_key(|&mut (pred, subject_first, _)| (pred, subject_first));
        eh_par::run_tasks(self.config.runtime.num_threads, jobs.len(), None, |i| {
            let (_, subject_first, atom_index) = jobs[i];
            relation(&store, &q.atoms()[atom_index], subject_first, false);
        });
        Ok(())
    }

    /// `EXPLAIN ANALYZE`: plan and run `q` with full profiling (see
    /// [`Engine::run_plan_profiled`]) and render the plan — the GHD,
    /// global attribute order, width and pipelining decision, then each
    /// atom's chosen trie order and logical cardinality — followed by the
    /// measured profile (per-depth kernel choices, candidate and probe
    /// counts, wall times) and the result cardinality, all from one store
    /// version. Volatile (timing) lines are `~`-prefixed; the rest is
    /// schedule-invariant across thread counts.
    pub fn explain_analyze(&self, q: &ConjunctiveQuery) -> Result<String, EngineError> {
        use std::fmt::Write;
        let store = self.store();
        let plan = self.plan_on(&store, q)?;
        let (result, profile) = self.execute(&store, q, &plan, true);
        let mut out = plan.render(q);
        let _ = writeln!(out, "atom access paths:");
        for ap in plan.nodes.iter().flat_map(|node| &node.atoms) {
            let atom = &q.atoms()[ap.atom_index];
            let short = atom.relation.rsplit(['/', '#']).next().unwrap_or(&atom.relation);
            let order = if ap.subject_first { "[s, o]" } else { "[o, s]" };
            let tuples = store.resolve_iri(&atom.relation).map_or(0, |p| store.pred_logical_len(p));
            let _ = writeln!(out, "  {short}: trie {order}, {tuples} tuples");
        }
        out.push_str(&profile.expect("a profiled run returns its profile").render());
        let _ = writeln!(out, "result rows: {}", result.cardinality());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::QueryBuilder;
    use eh_rdf::{Term, Triple};

    fn edge(s: u32, o: u32) -> Triple {
        Triple::new(Term::iri(format!("n{s}")), Term::iri("edge"), Term::iri(format!("n{o}")))
    }

    /// A small graph with two triangles: (0,1,2) and (1,2,3).
    fn triangle_store() -> SharedStore {
        SharedStore::from_triples(vec![edge(0, 1), edge(1, 2), edge(0, 2), edge(1, 3), edge(2, 3)])
    }

    fn triangle_query(store: &TripleStore) -> ConjunctiveQuery {
        let pred = store.resolve_iri("edge").unwrap();
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.atom("edge", pred, x, y).atom("edge", pred, y, z).atom("edge", pred, x, z);
        qb.select(vec![x, y, z]).build().unwrap()
    }

    #[test]
    fn triangle_listing_all_flag_combinations() {
        let store = triangle_store();
        let q = triangle_query(&store.read());
        for k in 0..=4 {
            let engine = Engine::new(store.clone(), OptFlags::cumulative(k));
            let r = engine.run(&q).unwrap();
            let rows: Vec<Vec<u32>> = r.iter().map(|t| t.to_vec()).collect();
            assert_eq!(rows.len(), 2, "flags {k}: {rows:?}");
        }
        // LogicBlox-style single node agrees.
        let engine = Engine::with_config(store.clone(), PlannerConfig::logicblox_style());
        assert_eq!(engine.run(&q).unwrap().cardinality(), 2);
    }

    #[test]
    fn triangle_results_decode() {
        let store = triangle_store();
        let q = triangle_query(&store.read());
        let engine = Engine::new(store.clone(), OptFlags::all());
        let r = engine.run(&q).unwrap();
        let guard = store.read();
        let decoded: Vec<String> =
            r.decode_row(&guard, 0).into_iter().map(|t| t.as_str().to_string()).collect();
        assert_eq!(decoded, vec!["n0", "n1", "n2"]);
    }

    #[test]
    fn sparql_end_to_end() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let r = engine.run_sparql("SELECT ?x ?y WHERE { ?x <edge> ?y . ?y <edge> ?x }").unwrap();
        // No 2-cycles in the triangle store.
        assert_eq!(r.cardinality(), 0);
        let r2 = engine.run_sparql("SELECT ?x WHERE { ?x <edge> <n3> }").unwrap();
        assert_eq!(r2.cardinality(), 2);
    }

    #[test]
    fn missing_constant_is_empty_not_error() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let r = engine.run_sparql("SELECT ?x WHERE { ?x <edge> <nowhere> }").unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn empty_projection_rejected() {
        let store = triangle_store();
        let q = {
            let mut qb = QueryBuilder::new();
            let (x, y) = (qb.var("x"), qb.var("y"));
            let pred = store.read().resolve_iri("edge").unwrap();
            qb.atom("edge", pred, x, y);
            qb.build().unwrap()
        };
        let engine = Engine::new(store.clone(), OptFlags::all());
        assert_eq!(engine.run(&q).unwrap_err(), EngineError::EmptyProjection);
    }

    #[test]
    fn warm_populates_cache() {
        let store = triangle_store();
        let q = triangle_query(&store.read());
        let engine = Engine::new(store.clone(), OptFlags::all());
        engine.warm(&q).unwrap();
        let r = engine.run(&q).unwrap();
        assert_eq!(r.cardinality(), 2);
    }

    #[test]
    fn parallel_execution_is_bit_identical() {
        let store = triangle_store();
        let q = triangle_query(&store.read());
        let reference = Engine::new(store.clone(), OptFlags::all()).run(&q).unwrap();
        for threads in [2, 4] {
            for flags in [OptFlags::all(), OptFlags::none()] {
                let config = PlannerConfig::with_flags(flags)
                    .with_runtime(eh_par::RuntimeConfig::with_threads(threads).with_morsel_size(1));
                let engine = Engine::with_config(store.clone(), config);
                engine.warm(&q).unwrap();
                let r = engine.run(&q).unwrap();
                assert_eq!(r, reference, "threads {threads}, flags {flags:?}");
            }
        }
    }

    #[test]
    fn parallel_warm_builds_each_trie_once() {
        let store = triangle_store();
        let q = triangle_query(&store.read());
        let atom = &q.atoms()[0];
        let engines = [OptFlags::all(), OptFlags::none(), OptFlags::none()].map(|flags| {
            Engine::with_config(store.clone(), PlannerConfig::with_flags(flags).with_threads(4))
        });
        std::thread::scope(|scope| {
            for engine in &engines {
                scope.spawn(|| engine.warm(&q).unwrap());
            }
        });
        let trie = |engine: &Engine, subject_first, auto_layout| {
            relation(&engine.store(), atom, subject_first, auto_layout).base
        };
        for subject_first in [true, false] {
            // Auto-layout operands are the store's tries: nothing to build.
            let auto = trie(&engines[0], subject_first, true);
            let pair = store.read().trie_pair(atom.pred).cloned().unwrap();
            assert!(std::sync::Arc::ptr_eq(&auto, pair.order(subject_first)));
            // The ablation's three self-join atoms over one predicate,
            // warmed by two engines on four workers each, share one
            // re-freeze per order: the store's pair keeps it.
            let uint = engines.each_ref().map(|e| trie(e, subject_first, false));
            assert!(uint.iter().all(|t| std::sync::Arc::ptr_eq(t, &uint[0])));
            assert!(!std::sync::Arc::ptr_eq(&uint[0], &auto));
        }
        for engine in &engines {
            assert_eq!(engine.run(&q).unwrap().cardinality(), 2);
        }
    }

    #[test]
    fn update_applies_batch_and_reports_real_change() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let q = triangle_query(&store.read());
        assert_eq!(engine.run(&q).unwrap().cardinality(), 2);

        // Delete one edge of the second triangle, insert a duplicate
        // (no-op) and one fresh edge closing a new triangle (0, 2, 3).
        let mut batch = UpdateBatch::new();
        batch.delete(edge(1, 3)).insert(edge(0, 1)).insert(edge(0, 3));
        let summary = engine.update(batch);
        assert_eq!((summary.inserted, summary.deleted, summary.changed_predicates), (1, 1, 1));
        assert_eq!(summary.epoch, 1);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.run(&q).unwrap().cardinality(), 2); // (0,1,2) and (0,2,3)

        // A no-op batch leaves the epoch alone.
        let mut noop = UpdateBatch::new();
        noop.insert(edge(0, 1)).delete(edge(7, 9));
        assert_eq!(engine.update(noop).epoch, 1);
        assert_eq!(engine.epoch(), 1);
    }

    /// `INVALIDATE` is an epoch bump and nothing else: every trie and
    /// overlay survives by `Arc` identity, in both layouts.
    #[test]
    fn invalidate_advances_the_epoch_and_keeps_every_trie() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3));
        assert_eq!(engine.update(batch).epoch, 1);
        let q = triangle_query(&store.read());
        let atom = &q.atoms()[0];
        let layer = |auto_layout| relation(&store.read(), atom, true, auto_layout);
        let before = [true, false].map(layer);
        assert_eq!(engine.invalidate(), 2);
        assert_eq!((engine.epoch(), store.version()), (2, 2));
        for (auto, old) in [true, false].into_iter().zip(&before) {
            let now = layer(auto);
            let (old_ov, now_ov) = (old.overlay.as_ref().unwrap(), now.overlay.as_ref().unwrap());
            assert!(std::sync::Arc::ptr_eq(&old.base, &now.base), "auto {auto}");
            assert!(std::sync::Arc::ptr_eq(old_ov, now_ov), "auto {auto}");
        }
    }

    /// A held version is one fixed store state: holding it blocks no
    /// writer, the write publishes a copy beside it, and the held version
    /// is freed when its holder drops it.
    #[test]
    fn a_held_version_blocks_no_writer_and_is_freed_when_dropped() {
        let engine = &Engine::new(triangle_store(), OptFlags::all());
        // Everything lives inside the scope, so a failed wait drops the
        // pin before the scope joins the writer.
        std::thread::scope(|scope| {
            let held = engine.store();
            let old = Arc::downgrade(&held);
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(move || {
                let mut batch = UpdateBatch::new();
                batch.insert(edge(0, 9));
                tx.send(engine.update(batch).epoch).unwrap();
            });
            let epoch = rx.recv_timeout(std::time::Duration::from_secs(10));
            assert_eq!(epoch, Ok(1), "the writer waited for a reader's pin");
            assert_eq!((held.num_triples(), engine.store().num_triples()), (5, 6));
            drop(held);
            assert!(old.upgrade().is_none(), "the old version outlived its last pin");
        });
    }

    /// With no version pinned, writes change the store in place: the
    /// sequential update → query loop never copies it. (A copy is made
    /// while the original is alive, so one write that copied would move
    /// the address; each write is checked on its own.)
    #[test]
    fn unpinned_writes_change_the_store_in_place() {
        let engine = Engine::new(triangle_store(), OptFlags::all());
        let at = || Arc::as_ptr(&engine.store());
        let before = at();
        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 9)).delete(edge(1, 3));
        engine.update(batch);
        assert_eq!(at(), before, "update");
        engine.compact();
        assert_eq!(at(), before, "compact");
        engine.invalidate();
        assert_eq!(at(), before, "invalidate");
        assert_eq!((engine.epoch(), engine.store().num_triples()), (3, 5));
    }

    #[test]
    fn staged_update_is_o_delta_and_compact_folds() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let q = triangle_query(&store.read());
        assert_eq!(engine.run(&q).unwrap().cardinality(), 2);

        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3)).delete(edge(1, 3));
        let s = engine.update(batch);
        // Below the compaction threshold the batch stays an overlay: no
        // base table merged, no trie re-frozen — O(delta) apply.
        assert_eq!((s.inserted, s.deleted), (1, 1));
        assert_eq!((s.rebuilt_tries, s.compacted_predicates), (0, 0));
        assert!(engine.store().has_deltas());
        // Queries answer the merged (base − del) ∪ ins view: deleting
        // (1,3) kills triangle (1,2,3), inserting (0,3) closes (0,2,3).
        assert_eq!(engine.run(&q).unwrap().cardinality(), 2);

        // Explicit compaction folds the overlay into freshly frozen base
        // tries — both orders of the one folded predicate —
        // and answers are unchanged.
        let before = engine.run(&q).unwrap();
        let c = engine.compact();
        assert_eq!(c.compacted_predicates, 1);
        assert_eq!(c.rebuilt_tries, 2, "the fold froze both orders");
        assert!(!engine.store().has_deltas());
        assert_eq!(engine.run(&q).unwrap(), before);
        // Compacting an already-compacted store is a no-op on the epoch.
        assert_eq!(engine.compact().epoch, c.epoch);
    }

    #[test]
    fn tiny_compaction_threshold_folds_inline() {
        let store = triangle_store();
        let config = PlannerConfig::with_flags(OptFlags::all()).with_compaction(1, 1);
        let engine = Engine::with_config(store.clone(), config);
        let q = triangle_query(&store.read());
        assert_eq!(engine.run(&q).unwrap().cardinality(), 2);
        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3));
        let s = engine.update(batch);
        assert_eq!((s.changed_predicates, s.compacted_predicates), (1, 1));
        assert!(!engine.store().has_deltas());
        assert_eq!(engine.run(&q).unwrap().cardinality(), 4);
    }

    #[test]
    fn snapshot_with_deltas_resident_round_trips_logical_contents() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let q = triangle_query(&store.read());
        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3)).delete(edge(1, 3));
        engine.update(batch);
        assert!(engine.store().has_deltas());
        let reference = engine.run(&q).unwrap();

        let path =
            std::env::temp_dir().join(format!("eh-engine-delta-snap-{}.snap", std::process::id()));
        engine.save_snapshot(&path).unwrap();
        let restored =
            Engine::open(&path, LoadMode::Copy, PlannerConfig::with_flags(OptFlags::all()))
                .expect("snapshot loads");
        std::fs::remove_file(&path).ok();
        // The image carries the delta-merged contents even though the
        // snapshot format encodes base relations only.
        assert_eq!(restored.run(&q).unwrap(), reference);
        assert!(!restored.store().has_deltas());
        // Saving compacted only the private clone; the live overlay stays.
        assert!(engine.store().has_deltas());
    }

    /// Several engines over one [`SharedStore`]: an update applied
    /// through one must be observed by the others — they read the same
    /// store and share its epoch — not served stale from tries read
    /// before the foreign update.
    #[test]
    fn sibling_engines_observe_foreign_updates() {
        let store = triangle_store();
        let writer = Engine::new(store.clone(), OptFlags::all());
        let reader = Engine::new(store.clone(), OptFlags::all());
        let q = triangle_query(&store.read());
        // Warm the reader so it has read the pre-update tries.
        assert_eq!(reader.run(&q).unwrap().cardinality(), 2);
        assert_eq!(reader.epoch(), 0);

        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3));
        writer.update(batch);

        // The reader's next answer reflects the new data — edge (0, 3)
        // closes triangles (0, 1, 3) and (0, 2, 3) on top of the original
        // two — and its epoch moved, so a serving tier's result cache
        // over it misses too.
        assert_eq!(reader.run(&q).unwrap().cardinality(), 4);
        assert_eq!(reader.epoch(), 1);
        assert_eq!(writer.run(&q).unwrap().cardinality(), 4);
    }

    #[test]
    fn snapshot_restart_starts_warm_and_answers_identically() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let q = triangle_query(&store.read());
        let reference = engine.run(&q).unwrap();

        let path = std::env::temp_dir().join(format!("eh-engine-snap-{}.snap", std::process::id()));
        engine.save_snapshot(&path).unwrap();
        let restored =
            Engine::open(&path, LoadMode::Copy, PlannerConfig::with_flags(OptFlags::all()))
                .expect("snapshot loads");
        std::fs::remove_file(&path).ok();

        // Warm from the image: the store's base tries are the image's.
        {
            let store = restored.store();
            let edge = store.resolve_iri("edge").unwrap();
            assert_eq!(store.trie_pair(edge).map(eh_rdf::TriePair::len), Some(5));
        }
        assert_eq!(restored.run(&q).unwrap(), reference);

        // The loaded store stays live: updates thaw only what changed.
        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3));
        let summary = restored.update(batch);
        assert_eq!(summary.inserted, 1);
        assert_eq!(restored.run(&q).unwrap().cardinality(), 4);
        // And a writer on the original engine sees independent state.
        assert_eq!(engine.run(&q).unwrap(), reference);
    }

    #[test]
    fn mmap_snapshot_restart_matches_copy_restart() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let q = triangle_query(&store.read());
        let reference = engine.run(&q).unwrap();

        let path =
            std::env::temp_dir().join(format!("eh-engine-mmap-snap-{}.snap", std::process::id()));
        engine.save_snapshot(&path).unwrap();
        let config = || PlannerConfig::with_flags(OptFlags::all());
        let copied = Engine::open(&path, LoadMode::Copy, config()).expect("copy load");
        let mapped = Engine::open(&path, LoadMode::Mmap, config()).expect("mmap load");

        assert!(copied.load_info().is_some_and(|l| l.mode == LoadMode::Copy));
        let info = mapped.load_info().expect("snapshot engine records load info");
        assert_eq!(info.mode, LoadMode::Mmap);
        assert!(info.mapped_bytes > 0 && info.fallback.is_none());
        assert!(engine.load_info().is_none(), "cold-built engine has no load info");

        // Identical answers, and the mapped engine stays fully live:
        // update, query the overlay, compact, re-save — all while its
        // base tries point into the mapping.
        assert_eq!(mapped.run(&q).unwrap(), reference);
        assert_eq!(copied.run(&q).unwrap(), reference);
        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3));
        mapped.update(batch);
        assert_eq!(mapped.run(&q).unwrap().cardinality(), 4);
        mapped.compact();
        assert_eq!(mapped.run(&q).unwrap().cardinality(), 4);
        mapped.save_snapshot(&path).expect("re-save over the mapped path");
        let reread = Engine::open(&path, LoadMode::Mmap, config()).expect("reload");
        assert_eq!(reread.run(&q).unwrap().cardinality(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_counts_are_identical_across_thread_counts() {
        let store = triangle_store();
        let q = triangle_query(&store.read());
        let engine = Engine::new(store.clone(), OptFlags::all());
        let profile = |engine: &Engine| engine.run_plan_profiled(&q, &engine.plan(&q).unwrap());
        let (r, p) = profile(&engine);
        assert_eq!(r.cardinality(), 2);
        assert!(!p.joins.is_empty());
        let totals = p.kernel_totals();
        assert!(totals.dispatches() + totals.single_iter > 0, "{totals:?}");
        let stable = |p: &crate::QueryProfile| {
            p.render()
                .lines()
                .filter(|l| !l.trim_start().starts_with('~'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for threads in [2, 4] {
            let config = PlannerConfig::with_flags(OptFlags::all())
                .with_runtime(eh_par::RuntimeConfig::with_threads(threads).with_morsel_size(1));
            let engine_t = Engine::with_config(store.clone(), config);
            let (r_t, p_t) = profile(&engine_t);
            assert_eq!(r_t.cardinality(), 2);
            assert_eq!(p_t.kernel_totals(), totals, "threads {threads}");
            assert_eq!(stable(&p_t), stable(&p), "threads {threads}");
        }
    }

    #[test]
    fn explain_analyze_renders_plan_access_paths_and_profile() {
        let store = triangle_store();
        let engine = Engine::new(store.clone(), OptFlags::all());
        let text = engine.explain_analyze(&triangle_query(&store.read())).unwrap();
        assert!(text.contains("global attribute order"), "{text}");
        assert!(text.contains("atom access paths"), "{text}");
        assert!(text.contains("edge: trie"), "{text}");
        assert!(text.contains("5 tuples"), "{text}");
        assert!(text.contains("profile:"), "{text}");
        assert!(text.contains("kernels {"), "{text}");
        assert!(text.contains("result rows: 2"), "{text}");
    }

    #[test]
    fn path_query_projection_order_and_dedup() {
        let store = triangle_store();
        let pred = store.read().resolve_iri("edge").unwrap();
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.atom("edge", pred, x, y).atom("edge", pred, y, z);
        // Project z before x, dropping y: forces permutation + dedup.
        let q = qb.select(vec![z, x]).build().unwrap();
        for flags in [OptFlags::all(), OptFlags::none()] {
            let engine = Engine::new(store.clone(), flags);
            let r = engine.run(&q).unwrap();
            let rows: Vec<Vec<u32>> = r.iter().map(|t| t.to_vec()).collect();
            // Paths of length 2: 0->1->2, 0->1->3, 0->2->3, 1->2->3; on
            // (z, x) the pairs (3,0) from the middle two collapse,
            // leaving (2,0), (3,0), (3,1).
            assert_eq!(rows.len(), 3, "{rows:?}");
            assert_eq!(r.columns(), &["z".to_string(), "x".to_string()]);
        }
    }

    fn temp_path(tag: &str, ext: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("eh-engine-{tag}-{}.{ext}", std::process::id()))
    }

    /// Every answer the triangle query gives, decoded — the byte-level
    /// equality oracle the durability tests compare engines with.
    fn answer(engine: &Engine) -> Vec<Vec<u32>> {
        let q = triangle_query(&engine.store());
        engine.run(&q).unwrap().iter().map(|t| t.to_vec()).collect()
    }

    #[test]
    fn wal_recovery_replays_unsaved_updates() {
        let wal_path = temp_path("wal-recover", "wal");
        std::fs::remove_file(&wal_path).ok();

        // Writer: empty WAL attached, two batches logged, no SAVE.
        let mut writer = Engine::new(triangle_store(), OptFlags::all());
        let r = writer.open_wal(&wal_path).unwrap();
        assert_eq!((r.replayed, r.last_seq), (0, 0));
        let mut b1 = UpdateBatch::new();
        b1.insert(edge(0, 3)).delete(edge(1, 3));
        let s1 = writer.update(b1);
        let w1 = s1.wal.expect("logged update reports its wal append");
        assert_eq!(w1.seq, 1);
        assert!(w1.fsynced, "default policy is fsync=always");
        let mut b2 = UpdateBatch::new();
        b2.insert(edge(3, 0));
        assert_eq!(writer.update(b2).wal.unwrap().seq, 2);
        let reference = answer(&writer);
        let status = writer.wal_status().unwrap();
        assert_eq!(status.seq, 2);
        assert!(status.bytes > 24, "log holds frames past the header");

        // Restart: same base store, replay the log. Answers identical.
        let mut recovered = Engine::new(triangle_store(), OptFlags::all());
        let r = recovered.open_wal(&wal_path).unwrap();
        assert_eq!((r.replayed, r.base_seq, r.last_seq), (2, 0, 2));
        assert!(!r.torn_tail_dropped);
        assert_eq!((r.inserted, r.deleted), (2, 1));
        assert_eq!(answer(&recovered), reference);
        std::fs::remove_file(&wal_path).ok();
    }

    #[test]
    fn save_truncates_the_log_and_replay_after_save_is_idempotent() {
        let wal_path = temp_path("wal-save", "wal");
        let snap_path = temp_path("wal-save", "snap");
        std::fs::remove_file(&wal_path).ok();

        let mut writer = Engine::new(triangle_store(), OptFlags::all());
        writer.open_wal(&wal_path).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3));
        writer.update(batch);
        // Keep the pre-truncation log: this is exactly the file a crash
        // between the image rename and the truncation leaves behind.
        let stale_log = std::fs::read(&wal_path).unwrap();
        writer.save_snapshot(&snap_path).unwrap();
        let status = writer.wal_status().unwrap();
        // Truncation kept the sequence (base moved up) and dropped frames.
        assert_eq!((status.seq, status.bytes), (1, 24));
        let reference = answer(&writer);

        // Clean restart: snapshot + truncated (empty-tail) log.
        let mut clean = Engine::open(&snap_path, LoadMode::Copy, PlannerConfig::default()).unwrap();
        let r = clean.open_wal(&wal_path).unwrap();
        assert_eq!((r.replayed, r.base_seq, r.last_seq), (0, 1, 1));
        assert_eq!(answer(&clean), reference);

        // Crashed-between restart: snapshot + the stale pre-truncation
        // log. The folded record replays as a no-op (set semantics).
        std::fs::write(&wal_path, &stale_log).unwrap();
        let mut crashed =
            Engine::open(&snap_path, LoadMode::Copy, PlannerConfig::default()).unwrap();
        let r = crashed.open_wal(&wal_path).unwrap();
        assert_eq!((r.replayed, r.inserted, r.deleted), (1, 0, 0));
        assert_eq!(answer(&crashed), reference);
        std::fs::remove_file(&wal_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn replay_applies_a_foreign_log_and_relogs_it() {
        let foreign_path = temp_path("wal-foreign", "wal");
        let own_path = temp_path("wal-own", "wal");
        std::fs::remove_file(&foreign_path).ok();
        std::fs::remove_file(&own_path).ok();

        // A primary writes two batches into its log.
        let mut primary = Engine::new(triangle_store(), OptFlags::all());
        primary.open_wal(&foreign_path).unwrap();
        let mut b = UpdateBatch::new();
        b.insert(edge(0, 3)).delete(edge(1, 3));
        primary.update(b);
        let mut b = UpdateBatch::new();
        b.insert(edge(3, 0));
        primary.update(b);

        // A follower with its own log replays the primary's: contents
        // converge AND the follower re-logged the batches for its own
        // downstream recovery.
        let mut follower = Engine::new(triangle_store(), OptFlags::all());
        follower.open_wal(&own_path).unwrap();
        let r = follower.replay(&foreign_path).unwrap();
        assert_eq!((r.replayed, r.inserted, r.deleted), (2, 2, 1));
        assert_eq!(answer(&follower), answer(&primary));
        assert_eq!(follower.wal_status().unwrap().seq, 2);

        // Replaying the same log again is idempotent on contents.
        let again = follower.replay(&foreign_path).unwrap();
        assert_eq!((again.replayed, again.inserted, again.deleted), (2, 0, 0));
        assert_eq!(answer(&follower), answer(&primary));
        std::fs::remove_file(&foreign_path).ok();
        std::fs::remove_file(&own_path).ok();
    }

    #[test]
    fn unlogged_engine_reports_no_wal() {
        let engine = Engine::new(triangle_store(), OptFlags::all());
        assert!(engine.wal_status().is_none());
        let mut batch = UpdateBatch::new();
        batch.insert(edge(0, 3));
        assert!(engine.update(batch).wal.is_none());
    }

    #[test]
    fn wal_fsync_policy_flows_from_config() {
        // A 60 s interval cannot come due between open and first append.
        for policy in [FsyncPolicy::Never, FsyncPolicy::Interval(60_000)] {
            let wal_path = temp_path("wal-policy", "wal");
            std::fs::remove_file(&wal_path).ok();
            let config = PlannerConfig::default().with_wal_fsync(policy);
            let mut engine = Engine::with_config(triangle_store(), config);
            engine.open_wal(&wal_path).unwrap();
            assert_eq!(engine.wal_status().unwrap().fsync, policy);
            let mut batch = UpdateBatch::new();
            batch.insert(edge(0, 3)).insert(edge(3, 0));
            let s = engine.update(batch);
            let w = s.wal.unwrap();
            assert_eq!((s.inserted, w.fsynced, w.fsync_us), (2, false, 0), "{policy}");
            std::fs::remove_file(&wal_path).ok();
        }
    }
}
