//! The query service: one shared engine, two caches, many callers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

use eh_query::{canonicalize, parse_sparql, CanonicalQuery, ConjunctiveQuery};
use eh_rdf::TripleStore;
use emptyheaded::{
    Engine, EngineError, FsyncPolicy, LoadMode, Plan, PlannerConfig, QueryResult, SharedStore,
    SnapshotError, UpdateBatch, UpdateSummary, WalError, WalRecovery,
};
use std::collections::HashMap;
use std::ops::Range;

use crate::cache::ResultLru;
use crate::metrics::ServiceMetrics;

/// Service knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Planner flags and execution runtime shared by every session: the
    /// runtime's `num_threads` parallelizes each query's join execution
    /// (session concurrency is a separate knob, `server_sessions`).
    pub planner: PlannerConfig,
    /// Byte budget of the LRU result cache. Results larger than the whole
    /// budget are recomputed on every request rather than cached.
    pub result_cache_bytes: usize,
    /// Maximum cached plans (clamped to ≥ 1). Canonical keys embed
    /// selection constants, so parameterized traffic (`... ?x <name>
    /// "user1"`, `"user2"`, ...) mints unbounded distinct shapes; the
    /// oldest plan is dropped once the cap is reached.
    pub plan_cache_entries: usize,
    /// Concurrent TCP sessions the front end serves (clamped to ≥ 1).
    /// Deliberately decoupled from the engine's `num_threads`: a session
    /// occupies its worker while *connected*, not just while executing,
    /// so an idle client must never starve the pool that runs joins.
    pub server_sessions: usize,
    /// Record service metrics (latency histograms, per-verb counters,
    /// cache counters) exposed by the `METRICS` verb. The recording path
    /// is a handful of relaxed atomics per request; turning it off exists
    /// mainly so the overhead benchmark has an uninstrumented baseline.
    pub record_metrics: bool,
    /// Queries slower than this many milliseconds are counted and kept in
    /// a bounded slow-query log. `None` (the default) disables the log;
    /// `EH_SLOW_QUERY_MS` sets it for [`ServiceConfig::default`].
    pub slow_query_ms: Option<u64>,
}

impl ServiceConfig {
    /// Default budget: 64 MiB of materialised results.
    pub const DEFAULT_RESULT_CACHE_BYTES: usize = 64 << 20;
    /// Default plan-cache capacity.
    pub const DEFAULT_PLAN_CACHE_ENTRIES: usize = 4096;
    /// Default concurrent-session capacity of the TCP front end.
    pub const DEFAULT_SERVER_SESSIONS: usize = 8;

    /// The slow-query threshold from `EH_SLOW_QUERY_MS` (unset, empty,
    /// `0`, or unparsable all mean "off").
    pub fn slow_query_ms_from_env() -> Option<u64> {
        std::env::var("EH_SLOW_QUERY_MS").ok()?.parse::<u64>().ok().filter(|&ms| ms > 0)
    }
}

impl Default for ServiceConfig {
    /// All optimizations on, runtime from `EH_THREADS` (sequential when
    /// unset), 64 MiB result budget, 4096 cached plans, 8 sessions,
    /// metrics on, slow-query log from `EH_SLOW_QUERY_MS` (off when
    /// unset).
    fn default() -> Self {
        ServiceConfig {
            planner: PlannerConfig::default().with_runtime(eh_par::RuntimeConfig::from_env()),
            result_cache_bytes: Self::DEFAULT_RESULT_CACHE_BYTES,
            plan_cache_entries: Self::DEFAULT_PLAN_CACHE_ENTRIES,
            server_sessions: Self::DEFAULT_SERVER_SESSIONS,
            record_metrics: true,
            slow_query_ms: Self::slow_query_ms_from_env(),
        }
    }
}

/// A cached plan: the canonical query it was built for (the engine
/// executes this rebuilt form) plus the plan itself.
struct CachedPlan {
    query: ConjunctiveQuery,
    plan: Plan,
}

/// The bounded plan store: map plus FIFO insertion order for eviction.
/// Keys are shared (`Arc`) between the two, as in the result LRU.
#[derive(Default)]
struct PlanCache {
    map: HashMap<Arc<CanonicalQuery>, Arc<CachedPlan>>,
    order: std::collections::VecDeque<Arc<CanonicalQuery>>,
}

/// Cache counters, readable while the service runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Plan-cache hits / misses.
    pub plan_hits: u64,
    /// Plan-cache misses (each one paid GHD enumeration + the LP solve).
    pub plan_misses: u64,
    /// Result-cache hits / misses.
    pub result_hits: u64,
    /// Result-cache misses (each one paid a join execution).
    pub result_misses: u64,
    /// Plans currently cached (bounded by
    /// [`ServiceConfig::plan_cache_entries`]).
    pub plan_cache_entries: u64,
    /// Bytes currently held by the result cache.
    pub result_cache_bytes: u64,
    /// Entries currently held by the result cache.
    pub result_cache_entries: u64,
    /// Current epoch (the engine's).
    pub epoch: u64,
    /// Update batches that actually changed data. No-op batches are
    /// counted separately in [`ServiceStats::updates_noop`], so apply
    /// latency percentiles and throughput math describe real work.
    pub updates_applied: u64,
    /// Update batches that changed nothing (every insert already
    /// resident, every delete already absent).
    pub updates_noop: u64,
    /// Delta pairs (staged inserts + tombstones) currently resident in
    /// the store's novelty overlays, awaiting compaction. Bounds the
    /// overlay memory the write path has deferred.
    pub staged_pairs: u64,
    /// Triples actually inserted across all applied batches.
    pub triples_inserted: u64,
    /// Triples actually deleted across all applied batches.
    pub triples_deleted: u64,
    /// Median end-to-end query latency in microseconds (0 until the
    /// first recorded query, or when metrics recording is off).
    pub query_p50_us: u64,
    /// 99th-percentile end-to-end query latency in microseconds.
    pub query_p99_us: u64,
    /// Subject-hash shards the store is partitioned into (1 = the
    /// unpartitioned layout).
    pub partitions: u64,
    /// Load imbalance across shards: the largest shard's logical triple
    /// count over the per-shard average (`1.0` = perfectly balanced,
    /// also reported for an empty or single-shard store). Subject-hash
    /// placement keeps this near 1 unless the data is pathologically
    /// concentrated on few subjects.
    pub max_shard_skew: f64,
    /// How the engine's snapshot loaded: [`LoadMode::Mmap`] when trie
    /// arenas serve from mapped pages, [`LoadMode::Copy`] otherwise
    /// (including engines never built from a snapshot).
    pub load_mode: LoadMode,
    /// Snapshot bytes held mapped (0 on a copy load).
    pub mapped_bytes: u64,
    /// Last WAL sequence number appended (0 without a log).
    pub wal_seq: u64,
    /// Write-ahead log size in bytes (0 without a log).
    pub wal_bytes: u64,
    /// The WAL fsync policy, `None` when no log is attached.
    pub wal_fsync: Option<FsyncPolicy>,
}

/// Append rows `rows` of `result` to `out` as protocol text: one line per
/// row, terms tab-separated in N-Triples syntax
/// ([`Term::write_ntriples`](eh_rdf::Term::write_ntriples), which escapes
/// every byte that could break the line or tab framing). The only
/// row-to-bytes routine of the service: cache fill and the streamed live
/// path both call it, reading ids straight from the tuple buffer.
pub(crate) fn render_rows_into(
    result: &QueryResult,
    store: &TripleStore,
    rows: Range<usize>,
    out: &mut Vec<u8>,
) {
    let dict = store.dict();
    for i in rows {
        for (j, &id) in result.row(i).iter().enumerate() {
            if j > 0 {
                out.push(b'\t');
            }
            dict.decode(id).write_ntriples(out);
        }
        out.push(b'\n');
    }
}

/// A cacheable result: the engine's [`QueryResult`] plus a lazily
/// rendered protocol row block, so repeated identical requests skip not
/// only the join but also per-row dictionary decoding and formatting.
/// Derefs to [`QueryResult`] for row access.
#[derive(Debug)]
pub struct CachedResult {
    result: QueryResult,
    rendered: std::sync::OnceLock<String>,
}

impl CachedResult {
    pub(crate) fn new(result: QueryResult) -> CachedResult {
        CachedResult { result, rendered: std::sync::OnceLock::new() }
    }

    /// The result's rows as protocol text ([`render_rows_into`] over all
    /// of them), computed once per entry: the miss path renders every
    /// result that can be cached eagerly, so the cache charges real bytes.
    pub fn rendered_rows(&self, store: &TripleStore) -> &str {
        self.rendered.get_or_init(|| {
            let mut out = Vec::new();
            render_rows_into(&self.result, store, 0..self.result.cardinality(), &mut out);
            String::from_utf8(out).expect("rendered terms are UTF-8")
        })
    }

    /// The rendered rows if this entry holds them already (it does unless
    /// the result was too large to cache).
    pub(crate) fn rendered(&self) -> Option<&str> {
        self.rendered.get().map(String::as_str)
    }
}

impl std::ops::Deref for CachedResult {
    type Target = QueryResult;

    fn deref(&self) -> &QueryResult {
        &self.result
    }
}

/// One answered query: the rows (shared, possibly served straight from
/// cache) plus the caller's column names and cache provenance.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Column names in the *caller's* `SELECT` order and spelling. The
    /// cached [`QueryResult`] carries canonical names (`v0, v1, ...`);
    /// these are the names the response must print.
    pub columns: Vec<String>,
    /// The materialised rows (canonical column names inside).
    pub result: Arc<CachedResult>,
    /// True when the plan came from the plan cache. (Unset on a result
    /// hit, which skips planning entirely.)
    pub plan_cache_hit: bool,
    /// True when the rows came from the result cache.
    pub result_cache_hit: bool,
}

/// A concurrent, caching query service over one warmed engine.
///
/// Sessions call [`QueryService::query_sparql`] through `&self` from any
/// number of threads. Internally:
///
/// 1. the SPARQL text is parsed and [canonicalized](eh_query::canonicalize),
///    so α-equivalent query strings share one cache identity;
/// 2. the **result cache** (LRU, byte-budgeted, keyed by canonical query +
///    engine epoch) is consulted;
/// 3. on a miss, the **plan cache** supplies (or planning builds) the
///    `Plan` for the canonical form — GHD enumeration and the fractional
///    cover LP run once per query shape, not once per request;
/// 4. the engine executes the plan on its configured runtime, and the
///    result is published to the cache.
///
/// Cached and freshly computed answers are byte-identical: a cached entry
/// *is* the deterministic engine's output, and parallel execution is
/// bit-identical to sequential by the runtime's merge contract.
pub struct QueryService {
    engine: Engine,
    config: ServiceConfig,
    // Both cache locks recover from poisoning
    // (`unwrap_or_else(PoisonError::into_inner)`): they guard *derived*
    // data that is safe to serve or retire after a panicking session,
    // and one crashed request must not wedge every later one.
    plans: RwLock<PlanCache>,
    results: Mutex<ResultLru>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    updates_applied: AtomicU64,
    updates_noop: AtomicU64,
    triples_inserted: AtomicU64,
    triples_deleted: AtomicU64,
    metrics: ServiceMetrics,
}

impl QueryService {
    /// A service over `store` with the given configuration.
    pub fn new(store: impl Into<SharedStore>, config: ServiceConfig) -> QueryService {
        QueryService::from_engine(Engine::with_config(store, config.planner), config)
    }

    fn from_engine(engine: Engine, config: ServiceConfig) -> QueryService {
        QueryService {
            engine,
            config,
            plans: RwLock::new(PlanCache::default()),
            results: Mutex::new(ResultLru::new(config.result_cache_bytes)),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
            updates_applied: AtomicU64::new(0),
            updates_noop: AtomicU64::new(0),
            triples_inserted: AtomicU64::new(0),
            triples_deleted: AtomicU64::new(0),
            metrics: ServiceMetrics::new(),
        }
    }

    /// A service with default configuration.
    pub fn with_defaults(store: impl Into<SharedStore>) -> QueryService {
        QueryService::new(store, ServiceConfig::default())
    }

    /// A service restored from a snapshot file
    /// ([`Engine::open`] with [`LoadMode::Copy`]): the store loads
    /// without parsing or sorting and its base tries are the snapshot's,
    /// so even the *first* query skips index construction.
    pub fn from_snapshot(
        path: impl AsRef<std::path::Path>,
        config: ServiceConfig,
    ) -> Result<QueryService, SnapshotError> {
        Ok(QueryService::from_engine(Engine::open(path, LoadMode::Copy, config.planner)?, config))
    }

    /// [`QueryService::from_snapshot`], zero-copy: trie arenas serve
    /// from the `mmap`ed snapshot file ([`LoadMode::Mmap`]), falling back
    /// to the copy path on unmappable platforms. `STATS` reports
    /// `load_mode=mmap|copy` and the `eh_mapped_bytes` gauge shows how
    /// much of the file is held mapped.
    pub fn from_snapshot_mmap(
        path: impl AsRef<std::path::Path>,
        config: ServiceConfig,
    ) -> Result<QueryService, SnapshotError> {
        Ok(QueryService::from_engine(Engine::open(path, LoadMode::Mmap, config.planner)?, config))
    }

    /// Persist the current store — its dictionary and base tries — to
    /// `path`, the protocol's `SAVE` verb. Returns the bytes written and
    /// the triple count of the image. The store is cloned under its read
    /// lock and serialized from the clone, so the image is a consistent
    /// point in time and concurrent `APPLY` traffic is never stalled
    /// behind delta folding or file I/O.
    pub fn save_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(u64, usize), SnapshotError> {
        self.engine.save_snapshot(path)
    }

    /// Attach (or create) a write-ahead log, replaying any records it
    /// holds through the staging machinery first (see
    /// [`Engine::open_wal`]). Call before serving: the restart protocol
    /// is load snapshot → `open_wal` → serve, after which every
    /// `INSERT`/`DELETE`/`APPLY` batch is logged (and fsynced per
    /// [`PlannerConfig::wal_fsync`]) before it stages, and `SAVE`
    /// truncates the log down to the new image.
    pub fn open_wal(&mut self, path: impl AsRef<std::path::Path>) -> Result<WalRecovery, WalError> {
        let recovery = self.engine.open_wal(path)?;
        if recovery.replayed > 0 {
            // Replayed batches moved the epoch past anything cached.
            self.drop_derived_caches();
        }
        Ok(recovery)
    }

    /// Replay a foreign log file through the service's update path — the
    /// protocol's `REPLAY <path>` verb and the replica catch-up entry
    /// point. Each record flows through [`QueryService::update`], so
    /// cache retirement, update counters, apply-latency metrics, and
    /// (when this service has its own WAL) re-logging all behave exactly
    /// as for live write traffic.
    pub fn replay(&self, path: impl AsRef<std::path::Path>) -> Result<WalRecovery, WalError> {
        WalRecovery::replay(&eh_wal::scan_path(path.as_ref())?, |batch| Ok(self.update(batch)))
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Read access to the underlying store (short-lived guard).
    pub fn store(&self) -> RwLockReadGuard<'_, TripleStore> {
        self.engine.store()
    }

    /// The service configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// Parse, canonicalize, and answer a SPARQL query through the caches.
    pub fn query_sparql(&self, text: &str) -> Result<Answer, EngineError> {
        let t0 = self.config.record_metrics.then(Instant::now);
        let q = {
            let store = self.store();
            parse_sparql(text, &store)?
        };
        let out = self.query_inner(&q);
        if let Some(t0) = t0 {
            self.record_query(t0, &out, Some(text));
        }
        out
    }

    /// Answer an already-built query through the caches.
    pub fn query(&self, q: &ConjunctiveQuery) -> Result<Answer, EngineError> {
        let t0 = self.config.record_metrics.then(Instant::now);
        let out = self.query_inner(q);
        if let Some(t0) = t0 {
            self.record_query(t0, &out, None);
        }
        out
    }

    /// Record one answered (or failed) query into the metric surface:
    /// the end-to-end latency histogram, cache hit/miss counters, and —
    /// past the configured threshold — the slow-query log.
    fn record_query(&self, t0: Instant, out: &Result<Answer, EngineError>, text: Option<&str>) {
        let us = t0.elapsed().as_micros() as u64;
        self.metrics.query_latency_us.record(us);
        if let Ok(a) = out {
            if a.result_cache_hit {
                self.metrics.result_cache_hits.inc();
            } else {
                self.metrics.result_cache_misses.inc();
                if a.plan_cache_hit {
                    self.metrics.plan_cache_hits.inc();
                } else {
                    self.metrics.plan_cache_misses.inc();
                }
            }
        }
        if let Some(threshold_ms) = self.config.slow_query_ms {
            let ms = us / 1_000;
            if ms >= threshold_ms {
                let text = text.unwrap_or("<prebuilt query>");
                eprintln!("slow query ({ms} ms): {text}");
                self.metrics.note_slow_query(ms, text);
            }
        }
    }

    fn query_inner(&self, q: &ConjunctiveQuery) -> Result<Answer, EngineError> {
        let columns: Vec<String> =
            q.projection().iter().map(|&v| q.var_name(v).to_string()).collect();
        let canonical = canonicalize(q);
        let epoch = self.engine.epoch();
        let key = (canonical, epoch);

        if let Some(result) = self.results.lock().unwrap_or_else(PoisonError::into_inner).get(&key)
        {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Answer { columns, result, plan_cache_hit: false, result_cache_hit: true });
        }
        self.result_misses.fetch_add(1, Ordering::Relaxed);

        let (canonical, _) = key;
        let (cached, plan_cache_hit) = self.plan_for(&canonical)?;
        let result = Arc::new(CachedResult::new(self.engine.run_plan(&cached.query, &cached.plan)));
        // When the entry can be cached, render the protocol text now so
        // the budget charges what the entry actually holds — rendered
        // terms dominate the raw ids (LUBM IRIs are ~50 bytes per 4-byte
        // id), so accounting only the tuple payload would blow the
        // budget by an order of magnitude. Results whose payload alone
        // busts the budget skip rendering: they cannot be cached, and a
        // protocol caller will render lazily if it needs the text.
        let bytes = if result.approx_bytes() <= self.config.result_cache_bytes {
            result.approx_bytes() + result.rendered_rows(&self.store()).len()
        } else {
            result.approx_bytes()
        };
        self.results.lock().unwrap_or_else(PoisonError::into_inner).insert(
            (canonical, epoch),
            Arc::clone(&result),
            bytes,
        );
        Ok(Answer { columns, result, plan_cache_hit, result_cache_hit: false })
    }

    /// The plan for a canonical query, from cache or built fresh. Two
    /// racing builders may both plan; the first insert wins and both run
    /// the same (deterministic) plan. The cache is FIFO-bounded by
    /// [`ServiceConfig::plan_cache_entries`].
    fn plan_for(&self, canonical: &CanonicalQuery) -> Result<(Arc<CachedPlan>, bool), EngineError> {
        if let Some(p) =
            self.plans.read().unwrap_or_else(PoisonError::into_inner).map.get(canonical)
        {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(p), true));
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let planned_epoch = self.engine.epoch();
        let query = canonical.to_query()?;
        let plan = self.engine.plan(&query)?;
        let entry = Arc::new(CachedPlan { query, plan });
        let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = plans.map.get(canonical) {
            return Ok((Arc::clone(existing), false));
        }
        // Plan entries carry no epoch in their key, so an insert must not
        // outlive the clear that [`QueryService::update`] performs: a
        // plan computed from pre-update cardinalities (whose attribute
        // order shapes the byte-exact row order) could otherwise be
        // published into the post-update cache and served indefinitely.
        // Planning is per-shape, so running this one uncached is cheap.
        if self.engine.epoch() != planned_epoch {
            return Ok((entry, false));
        }
        let cap = self.config.plan_cache_entries.max(1);
        while plans.map.len() >= cap {
            let Some(oldest) = plans.order.pop_front() else { break };
            plans.map.remove(&*oldest);
        }
        let key = Arc::new(canonical.clone());
        plans.map.insert(Arc::clone(&key), Arc::clone(&entry));
        plans.order.push_back(key);
        Ok((entry, false))
    }

    /// Drop every cached plan and result and advance the engine's epoch
    /// (the store's version; every trie survives). In-flight queries
    /// keyed by the old epoch may still publish stale entries; the epoch
    /// in the key keeps them unreachable, and LRU pressure retires them.
    pub fn invalidate(&self) -> u64 {
        self.drop_derived_caches();
        self.engine.invalidate()
    }

    /// Apply a batch of live updates through the engine and retire every
    /// derived cache entry the change invalidates.
    ///
    /// The division of labour: [`Engine::update`] touches only the
    /// *changed* predicates' deltas (every base trie survives), while
    /// this layer drops **all** cached plans and results — a plan
    /// embeds cardinality-driven decisions (GHD choice, attribute order)
    /// that the mutation may have shifted, and a materialised result can
    /// join across any predicate, so neither can be retained per
    /// predicate. Old-epoch result entries would be unreachable anyway
    /// (the epoch is in the key); clearing just frees their bytes now. A
    /// batch that changes nothing leaves epoch and caches untouched.
    pub fn update(&self, batch: UpdateBatch) -> UpdateSummary {
        let t0 = self.config.record_metrics.then(Instant::now);
        let summary = self.engine.update(batch);
        // WAL accounting runs before the no-op early return: a no-op
        // batch is still appended (replaying it is harmless), so the
        // append/bytes/fsync series must see it.
        if let (true, Some(w)) = (t0.is_some(), summary.wal) {
            self.metrics.wal_appends.inc();
            self.metrics.wal_bytes.set(w.wal_bytes as i64);
            if w.fsynced {
                self.metrics.wal_fsync_us.record(w.fsync_us);
            }
        }
        if summary.changed_predicates == 0 {
            // Nothing changed: no caches to retire, and recording the
            // batch into the applied counter or the apply-latency
            // histogram would dilute both — a no-op APPLY costs a store
            // probe, not a staging pass. Count it under its own series.
            self.updates_noop.fetch_add(1, Ordering::Relaxed);
            if t0.is_some() {
                self.metrics.updates_noop.inc();
            }
            return summary;
        }
        self.drop_derived_caches();
        self.updates_applied.fetch_add(1, Ordering::Relaxed);
        self.triples_inserted.fetch_add(summary.inserted as u64, Ordering::Relaxed);
        self.triples_deleted.fetch_add(summary.deleted as u64, Ordering::Relaxed);
        if let Some(t0) = t0 {
            self.metrics.update_apply_latency_us.record(t0.elapsed().as_micros() as u64);
            self.metrics.updates_applied.inc();
            self.metrics.triples_inserted.add(summary.inserted as u64);
            self.metrics.triples_deleted.add(summary.deleted as u64);
            if summary.compacted_predicates > 0 {
                self.metrics.compactions.add(summary.compacted_predicates as u64);
            }
            for &(shard, us) in &summary.shard_pauses {
                self.metrics.record_shard_pause(shard, us);
            }
        }
        summary
    }

    /// Fold every staged delta overlay into fresh frozen base tables —
    /// the protocol's `COMPACT` verb. Threshold-triggered compaction
    /// already runs inside [`Engine::update`]; this is the operator's
    /// explicit handle for reclaiming overlay memory (and restoring
    /// pure-base query speed) at a moment of their choosing. Folding
    /// advances the epoch, so derived caches are retired; with nothing
    /// staged this is a free no-op that touches neither.
    pub fn compact(&self) -> UpdateSummary {
        let t0 = self.config.record_metrics.then(Instant::now);
        let summary = self.engine.compact();
        if summary.compacted_predicates == 0 {
            return summary;
        }
        self.drop_derived_caches();
        if let Some(t0) = t0 {
            self.metrics.compaction_pause_us.record(t0.elapsed().as_micros() as u64);
            self.metrics.compactions.add(summary.compacted_predicates as u64);
            for &(shard, us) in &summary.shard_pauses {
                self.metrics.record_shard_pause(shard, us);
            }
        }
        summary
    }

    fn drop_derived_caches(&self) {
        {
            let mut plans = self.plans.write().unwrap_or_else(PoisonError::into_inner);
            plans.map.clear();
            plans.order.clear();
        }
        self.results.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    /// Current cache counters.
    pub fn stats(&self) -> ServiceStats {
        let (bytes, entries) = {
            let results = self.results.lock().unwrap_or_else(PoisonError::into_inner);
            (results.bytes() as u64, results.len() as u64)
        };
        let wal = self.engine.wal_status();
        let (partitions, max_shard_skew) = {
            let shards = self.store().shard_stats();
            let total: u64 = shards.iter().map(|s| s.triples as u64).sum();
            let max = shards.iter().map(|s| s.triples as u64).max().unwrap_or(0);
            let skew =
                if total == 0 { 1.0 } else { max as f64 * shards.len() as f64 / total as f64 };
            (shards.len() as u64, skew)
        };
        ServiceStats {
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            plan_cache_entries: self.plans.read().unwrap_or_else(PoisonError::into_inner).map.len()
                as u64,
            result_cache_bytes: bytes,
            result_cache_entries: entries,
            epoch: self.engine.epoch(),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            updates_noop: self.updates_noop.load(Ordering::Relaxed),
            staged_pairs: self.store().staged_pairs() as u64,
            triples_inserted: self.triples_inserted.load(Ordering::Relaxed),
            triples_deleted: self.triples_deleted.load(Ordering::Relaxed),
            query_p50_us: self.metrics.query_latency_us.p50(),
            query_p99_us: self.metrics.query_latency_us.p99(),
            partitions,
            max_shard_skew,
            load_mode: self.engine.load_info().map_or(LoadMode::Copy, |l| l.mode),
            mapped_bytes: self.engine.load_info().map_or(0, |l| l.mapped_bytes),
            wal_seq: wal.map_or(0, |w| w.seq),
            wal_bytes: wal.map_or(0, |w| w.bytes),
            wal_fsync: wal.map(|w| w.fsync),
        }
    }

    /// The service's metric handles (the TCP front end records per-verb
    /// counters and the session gauge through these).
    pub(crate) fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Whether this service records metrics (see
    /// [`ServiceConfig::record_metrics`]).
    pub(crate) fn metrics_on(&self) -> bool {
        self.config.record_metrics
    }

    /// Render the full metric exposition (Prometheus text format) — the
    /// `METRICS` verb's payload. Cache-occupancy and epoch gauges are
    /// synchronised from live state at scrape time; counters and
    /// histograms are whatever the recording paths accumulated.
    pub fn metrics_text(&self) -> String {
        let (bytes, entries) = {
            let results = self.results.lock().unwrap_or_else(PoisonError::into_inner);
            (results.bytes() as i64, results.len() as i64)
        };
        self.metrics.result_cache_bytes.set(bytes);
        self.metrics.result_cache_entries.set(entries);
        self.metrics
            .plan_cache_entries
            .set(self.plans.read().unwrap_or_else(PoisonError::into_inner).map.len() as i64);
        self.metrics.epoch.set(self.engine.epoch() as i64);
        self.metrics.staged_pairs.set(self.store().staged_pairs() as i64);
        self.metrics.mapped_bytes.set(self.engine.load_info().map_or(0, |l| l.mapped_bytes) as i64);
        if let Some(w) = self.engine.wal_status() {
            self.metrics.wal_bytes.set(w.bytes as i64);
        }
        for s in self.store().shard_stats() {
            self.metrics.set_shard_gauges(
                s.shard,
                s.triples as i64,
                s.staged_pairs as i64,
                s.arena_bytes as i64,
            );
        }
        self.metrics.expose()
    }

    /// Recent slow queries (oldest first; empty unless
    /// [`ServiceConfig::slow_query_ms`] is set and was exceeded).
    pub fn slow_queries(&self) -> Vec<String> {
        self.metrics.slow_log()
    }

    /// `EXPLAIN ANALYZE` for the `PROFILE` verb: parse and canonicalize
    /// the SPARQL text exactly as [`QueryService::query_sparql`] does, then
    /// plan, execute with full profiling, and render the canonical query
    /// ([`Engine::explain_analyze`]) — so the report describes the plan a
    /// `QUERY` of the same text runs, under canonical variable names.
    /// Deliberately bypasses the result cache and leaves every cache
    /// counter alone — the point is to measure a real execution — but
    /// shares the service's engine, so it profiles against the live store
    /// and warm tries.
    pub fn profile_sparql(&self, text: &str) -> Result<String, EngineError> {
        let q = parse_sparql(text, &self.store())?;
        self.engine.explain_analyze(&canonicalize(&q).to_query()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_lubm::queries::{lubm_query, QUERY_NUMBERS};
    use eh_lubm::{generate_store, GeneratorConfig};
    use emptyheaded::OptFlags;

    fn service(store: &SharedStore) -> QueryService {
        QueryService::new(
            store.clone(),
            ServiceConfig {
                planner: PlannerConfig::with_flags(OptFlags::all()),
                result_cache_bytes: 1 << 20,
                plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
                server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
                record_metrics: true,
                slow_query_ms: None,
            },
        )
    }

    #[test]
    fn repeat_queries_hit_both_caches() {
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        let svc = service(&store);
        let q = lubm_query(2, &store.read()).unwrap();
        let first = svc.query(&q).unwrap();
        assert!(!first.plan_cache_hit && !first.result_cache_hit);
        let second = svc.query(&q).unwrap();
        assert!(second.result_cache_hit);
        assert!(Arc::ptr_eq(&first.result, &second.result));
        let stats = svc.stats();
        assert_eq!((stats.result_hits, stats.result_misses), (1, 1));
        assert_eq!((stats.plan_hits, stats.plan_misses), (0, 1));
        assert!(stats.result_cache_bytes > 0);
    }

    #[test]
    fn alpha_equivalent_sparql_strings_share_entries() {
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        let svc = service(&store);
        let a = svc
            .query_sparql(
                "PREFIX ub: <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#>\n\
                 SELECT ?s ?c WHERE { ?s ub:takesCourse ?c . ?t ub:teacherOf ?c }",
            )
            .unwrap();
        // Renamed variables, reordered atoms, duplicated pattern.
        let b = svc
            .query_sparql(
                "PREFIX ub: <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#>\n\
                 SELECT ?x ?y WHERE { ?z ub:teacherOf ?y . ?x ub:takesCourse ?y . \
                 ?x ub:takesCourse ?y }",
            )
            .unwrap();
        assert!(b.result_cache_hit, "α-equivalent text must hit the result cache");
        assert!(Arc::ptr_eq(&a.result, &b.result));
        // Caller-facing names track each query's own SELECT clause.
        assert_eq!(a.columns, vec!["s", "c"]);
        assert_eq!(b.columns, vec!["x", "y"]);
    }

    #[test]
    fn plan_cache_hits_when_results_do_not_fit() {
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        // Zero-byte result budget: nothing is ever cached, so repeats
        // exercise the plan cache in isolation.
        let svc = QueryService::new(
            store.clone(),
            ServiceConfig {
                planner: PlannerConfig::with_flags(OptFlags::all()),
                result_cache_bytes: 0,
                plan_cache_entries: ServiceConfig::DEFAULT_PLAN_CACHE_ENTRIES,
                server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
                record_metrics: true,
                slow_query_ms: None,
            },
        );
        let q = lubm_query(2, &store.read()).unwrap();
        let reference = svc.query(&q).unwrap();
        for _ in 0..3 {
            let again = svc.query(&q).unwrap();
            assert!(again.plan_cache_hit && !again.result_cache_hit);
            assert_eq!(again.result.tuples(), reference.result.tuples());
        }
        let stats = svc.stats();
        assert_eq!((stats.plan_hits, stats.plan_misses), (3, 1));
        assert_eq!((stats.result_hits, stats.result_misses), (0, 4));
        assert_eq!(stats.result_cache_entries, 0);
    }

    #[test]
    fn plan_cache_is_bounded_by_config() {
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        // Result caching off and a 2-plan cap: the distinct shapes of the
        // workload churn through the bounded plan store.
        let svc = QueryService::new(
            store.clone(),
            ServiceConfig {
                planner: PlannerConfig::with_flags(OptFlags::all()),
                result_cache_bytes: 0,
                plan_cache_entries: 2,
                server_sessions: ServiceConfig::DEFAULT_SERVER_SESSIONS,
                record_metrics: true,
                slow_query_ms: None,
            },
        );
        for &n in QUERY_NUMBERS.iter() {
            svc.query(&lubm_query(n, &store.read()).unwrap()).unwrap();
            assert!(svc.stats().plan_cache_entries <= 2);
        }
        assert_eq!(svc.stats().plan_cache_entries, 2);
        // Evicted plans rebuild transparently: same answers, extra miss.
        let q = lubm_query(1, &store.read()).unwrap();
        let again = svc.query(&q).unwrap();
        assert!(!again.plan_cache_hit);
        assert!(!again.result.is_empty());
    }

    #[test]
    fn cached_answers_match_direct_execution_for_the_whole_workload() {
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        let svc = service(&store);
        let engine = Engine::new(store.clone(), OptFlags::all());
        for n in QUERY_NUMBERS {
            let q = lubm_query(n, &store.read()).unwrap();
            let direct = engine.run(&q).unwrap();
            let cold = svc.query(&q).unwrap();
            let warm = svc.query(&q).unwrap();
            assert!(warm.result_cache_hit, "query {n}");
            for answer in [&cold, &warm] {
                assert_eq!(answer.result.tuples(), direct.tuples(), "query {n}");
                let names: Vec<String> =
                    q.projection().iter().map(|&v| q.var_name(v).to_string()).collect();
                assert_eq!(answer.columns, names, "query {n}");
            }
        }
    }

    #[test]
    fn invalidate_bumps_epoch_and_forces_recompute() {
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        let svc = service(&store);
        let q = lubm_query(14, &store.read()).unwrap();
        let before = svc.query(&q).unwrap();
        assert_eq!(svc.invalidate(), 1);
        assert_eq!(svc.stats().epoch, 1);
        assert_eq!(svc.stats().result_cache_entries, 0);
        let after = svc.query(&q).unwrap();
        assert!(!after.result_cache_hit && !after.plan_cache_hit);
        // Same store contents, so the recomputed answer is identical.
        assert_eq!(after.result.tuples(), before.result.tuples());
    }

    #[test]
    fn update_retires_caches_and_answers_like_a_cold_engine() {
        use eh_rdf::{Term, Triple};
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let store = SharedStore::from_triples(vec![t("a", "p", "b")]);
        let svc = service(&store);
        let q = "SELECT ?x ?y WHERE { ?x <p> ?y }";
        assert_eq!(svc.query_sparql(q).unwrap().result.cardinality(), 1);
        assert!(svc.query_sparql(q).unwrap().result_cache_hit);

        let mut batch = UpdateBatch::new();
        batch.insert(t("c", "p", "d")).delete(t("a", "p", "b"));
        let summary = svc.update(batch);
        assert_eq!((summary.inserted, summary.deleted), (1, 1));
        assert_eq!(summary.epoch, 1);
        let stats = svc.stats();
        assert_eq!(stats.epoch, 1);
        assert_eq!(
            (stats.updates_applied, stats.triples_inserted, stats.triples_deleted),
            (1, 1, 1)
        );
        assert_eq!((stats.plan_cache_entries, stats.result_cache_entries), (0, 0));

        // Post-update answers equal a cold engine over the same store.
        let answer = svc.query_sparql(q).unwrap();
        assert!(!answer.result_cache_hit && !answer.plan_cache_hit);
        let cold = Engine::new(store.clone(), OptFlags::all()).run_sparql(q).unwrap();
        assert_eq!(answer.result.tuples(), cold.tuples());

        // A no-op batch (re-inserting a resident triple) leaves the epoch
        // and the freshly warmed caches alone.
        assert!(svc.query_sparql(q).unwrap().result_cache_hit);
        let mut noop = UpdateBatch::new();
        noop.insert(t("c", "p", "d"));
        let summary = svc.update(noop);
        assert_eq!((summary.inserted, summary.changed_predicates), (0, 0));
        assert_eq!(summary.epoch, 1);
        assert_eq!(svc.stats().result_cache_entries, 1);
        assert!(svc.query_sparql(q).unwrap().result_cache_hit);

        // The no-op batch lands in its own counter: the applied count and
        // the apply-latency histogram keep describing batches that did
        // real work.
        let stats = svc.stats();
        assert_eq!((stats.updates_applied, stats.updates_noop), (1, 1));
        let text = svc.metrics_text();
        assert!(text.contains("eh_updates_applied_total 1"), "{text}");
        assert!(text.contains("eh_updates_noop_total 1"), "{text}");
        assert!(text.contains("eh_update_apply_latency_us_count 1"), "{text}");
    }

    #[test]
    fn poisoned_cache_locks_recover_instead_of_wedging_the_service() {
        use eh_rdf::{Term, Triple};
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let store = SharedStore::from_triples(vec![t("a", "p", "b")]);
        let svc = service(&store);
        let q = "SELECT ?x ?y WHERE { ?x <p> ?y }";
        svc.query_sparql(q).unwrap();

        // Two sessions die while holding the cache locks — the classic
        // poisoning scenario a panicking request used to leave behind.
        let svc_ref = &svc;
        std::thread::scope(|scope| {
            let victim = scope.spawn(move || {
                let _guard = svc_ref.results.lock().unwrap();
                panic!("session dies holding the result cache");
            });
            assert!(victim.join().is_err());
            let victim = scope.spawn(move || {
                let _guard = svc_ref.plans.write().unwrap();
                panic!("session dies holding the plan cache");
            });
            assert!(victim.join().is_err());
        });

        // Later sessions still get full service through both caches.
        let warm = svc.query_sparql(q).unwrap();
        assert!(warm.result_cache_hit);
        let stats = svc.stats();
        assert_eq!(stats.result_hits, 1, "{stats:?}");
        assert!(!svc.metrics_text().is_empty());
        let mut batch = UpdateBatch::new();
        batch.insert(t("c", "p", "d"));
        assert_eq!(svc.update(batch).inserted, 1);
        assert_eq!(svc.query_sparql(q).unwrap().result.cardinality(), 2);
    }

    #[test]
    fn partitioned_service_reports_shards_in_stats_and_metrics() {
        use eh_rdf::{Term, Triple};
        let t = |s: &str, p: &str, o: &str| Triple::new(Term::iri(s), Term::iri(p), Term::iri(o));
        let triples: Vec<Triple> = (0..32).map(|i| t(&format!("s{i}"), "p", "o")).collect();
        let store = SharedStore::new(TripleStore::from_triples_partitioned(triples, 4));
        let svc = service(&store);
        let q = "SELECT ?x WHERE { ?x <p> <o> }";
        assert_eq!(svc.query_sparql(q).unwrap().result.cardinality(), 32);

        let stats = svc.stats();
        assert_eq!(stats.partitions, 4);
        assert!(stats.max_shard_skew >= 1.0, "{stats:?}");
        // 32 hashed subjects over 4 shards: nothing pathological.
        assert!(stats.max_shard_skew < 4.0, "{stats:?}");

        // Every shard gets its labeled occupancy series, and the warmed
        // shard tries show up as cached arena bytes somewhere.
        let text = svc.metrics_text();
        for shard in 0..4 {
            assert!(text.contains(&format!("eh_shard_triples{{shard=\"{shard}\"}}")), "{text}");
            assert!(
                text.contains(&format!("eh_shard_staged_pairs{{shard=\"{shard}\"}}")),
                "{text}"
            );
            assert!(text.contains(&format!("eh_shard_arena_bytes{{shard=\"{shard}\"}}")), "{text}");
        }
        assert!(!text.contains("eh_shard_triples{shard=\"4\"}"), "{text}");

        // A COMPACT that folds one shard's staged delta records its pause
        // in that shard's labeled series of the pause family.
        let mut batch = UpdateBatch::new();
        batch.insert(t("s99", "p", "o"));
        assert_eq!(svc.update(batch).inserted, 1);
        let summary = svc.compact();
        assert_eq!(summary.compacted_predicates, 1);
        assert_eq!(summary.shard_pauses.len(), 1, "{summary:?}");
        let shard = summary.shard_pauses[0].0;
        let text = svc.metrics_text();
        assert!(
            text.contains(&format!("eh_compaction_pause_us_count{{shard=\"{shard}\"}} 1")),
            "{text}"
        );
    }

    #[test]
    fn parse_errors_surface_not_panic() {
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        let svc = service(&store);
        let err = svc.query_sparql("SELECT ?x WHERE { ?x ").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn concurrent_sessions_agree_with_sequential_answers() {
        let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
        let svc = service(&store);
        let reference: Vec<_> = QUERY_NUMBERS
            .iter()
            .map(|&n| {
                let q = lubm_query(n, &store.read()).unwrap();
                Engine::new(store.clone(), OptFlags::all()).run(&q).unwrap()
            })
            .collect();
        // 8 sessions × 2 passes over the mix, racing on both caches.
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let (svc, reference, store) = (&svc, &reference, &store);
                scope.spawn(move || {
                    for pass in 0..2 {
                        for i in 0..QUERY_NUMBERS.len() {
                            let idx = (i + worker + pass) % QUERY_NUMBERS.len();
                            let q = lubm_query(QUERY_NUMBERS[idx], &store.read()).unwrap();
                            let a = svc.query(&q).unwrap();
                            assert_eq!(a.result.tuples(), reference[idx].tuples());
                        }
                    }
                });
            }
        });
        let stats = svc.stats();
        assert!(stats.result_hits > 0, "{stats:?}");
        assert_eq!(stats.result_hits + stats.result_misses, 8 * 2 * 12);
    }

    mod render_proptests {
        use super::*;
        use eh_rdf::{Term, Triple};
        use eh_trie::TupleBuffer;
        use proptest::prelude::*;

        /// One term as the service rendered it before `render_rows_into`:
        /// `Display` one `char` at a time into a fresh `String`, then
        /// three `replace` passes over the control characters that
        /// `Display` left raw in IRIs.
        fn reference_term(term: &Term) -> String {
            let text = match term {
                Term::Iri(s) => format!("<{s}>"),
                Term::Literal(s) => {
                    let mut out = String::from("\"");
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            '\r' => out.push_str("\\r"),
                            '\t' => out.push_str("\\t"),
                            c => out.push(c),
                        }
                    }
                    out.push('"');
                    out
                }
            };
            text.replace('\n', "\\n").replace('\r', "\\r").replace('\t', "\\t")
        }

        fn reference_rows(result: &QueryResult, store: &TripleStore) -> String {
            let mut out = String::new();
            for i in 0..result.cardinality() {
                for (j, term) in result.decode_row(store, i).iter().enumerate() {
                    if j > 0 {
                        out.push('\t');
                    }
                    out.push_str(&reference_term(term));
                }
                out.push('\n');
            }
            out
        }

        /// Terms dense in what rendering must get right: the escaped
        /// bytes, both delimiters, multi-byte UTF-8, the empty body.
        fn arb_term() -> impl Strategy<Value = Term> {
            const ALPHABET: [char; 14] =
                ['\n', '\r', '\t', '"', '\\', '<', '>', ' ', 'a', 'E', '7', 'é', '€', '😀'];
            (any::<bool>(), proptest::collection::vec(0usize..ALPHABET.len(), 0..12)).prop_map(
                |(iri, picks)| {
                    let body: String = picks.into_iter().map(|i| ALPHABET[i]).collect();
                    if iri {
                        Term::iri(body)
                    } else {
                        Term::literal(body)
                    }
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn rows_render_like_the_reference_construction(
                terms in proptest::collection::vec(arb_term(), 1..8),
                arity in 0usize..=4,
                picks in proptest::collection::vec(0usize..64, 0..40),
                split in 0usize..64,
            ) {
                let store = TripleStore::from_triples(
                    terms.iter().map(|t| Triple::new(t.clone(), Term::iri("p"), t.clone())),
                );
                let mut tuples = TupleBuffer::new(arity);
                for row in picks.chunks_exact(arity.max(1)).filter(|_| arity > 0) {
                    let ids: Vec<u32> = row
                        .iter()
                        .map(|&i| store.dict().lookup(&terms[i % terms.len()]).unwrap())
                        .collect();
                    tuples.push(&ids);
                }
                let columns = (0..arity).map(|c| format!("v{c}")).collect();
                let result = CachedResult::new(QueryResult::new(columns, tuples));
                let expect = reference_rows(&result, &store);
                prop_assert_eq!(result.rendered_rows(&store), expect.as_str());

                // Rendered in two pieces into one buffer — as the streamed
                // path does, chunk after chunk — the bytes are the same.
                let n = result.cardinality();
                let cut = split.min(n);
                let mut out = Vec::new();
                render_rows_into(&result, &store, 0..cut, &mut out);
                render_rows_into(&result, &store, cut..n, &mut out);
                prop_assert_eq!(String::from_utf8(out).unwrap(), expect);
            }
        }
    }
}
