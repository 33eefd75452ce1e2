//! The trie catalog: loads vertically partitioned predicate tables as
//! tries in the orders the plan needs, with caching.
//!
//! A trie over one attribute order is "analogous to a single index in a
//! standard database" (paper §III-A); the catalog is therefore the
//! engine's index manager. Binary RDF atoms need at most two orders per
//! predicate — subject-major (`[s, o]`) and object-major (`[o, s]`) — and
//! both sort orders are already materialised in the store's
//! [`PairTable`](eh_rdf::PairTable)s, so trie construction skips sorting.
//!
//! ## Sharding
//!
//! The store hash-partitions subjects into `P` shards, each owning its
//! own `PairTable`s and staged deltas; the catalog mirrors that layout
//! one level down: every cache key carries the shard, so each shard's
//! trie freezes into its own contiguous arena and a shard-local
//! compaction retires exactly one shard's tries. [`Catalog::relation`]
//! assembles the executor's view, a [`Layered`] operand: one
//! `(base, overlay?)` [`Layer`] at `P = 1` (or when only one shard holds
//! the predicate, or the plan is shard-local), byte-identical to the
//! unpartitioned engine; otherwise one layer per non-empty shard under
//! the merged root domain that the generic join unions through its
//! layered cursor.
//!
//! ## Ownership and mutation
//!
//! The catalog co-owns its [`SharedStore`]: queries and updates share one
//! store behind a `RwLock`, and the catalog's job is keeping its tries
//! consistent with whatever that store currently holds. After a mutation,
//! [`Catalog::refresh_after_update`] retires exactly the changed
//! (predicate, shard) pairs' tries (untouched shards keep theirs),
//! advances the epoch, and rebuilds the previously cached orders
//! concurrently on the runtime's workers. Layers that cache *derived*
//! artifacts (a serving tier's result cache) key them by
//! [`Catalog::epoch`] so every retired state is unreachable at once.
//!
//! ## Concurrency
//!
//! The cache is shared-state concurrent: tries live behind `Arc` and the
//! map behind an `RwLock`, so the parallel runtime can both *read* tries
//! from many worker threads during join execution and *build* distinct
//! tries concurrently during [`Engine::warm`](crate::Engine::warm) — all
//! through `&self`. Construction happens outside the lock; when two
//! workers race to build the same trie, the first insert wins and both
//! end up sharing one copy. Because construction is outside the lock, a
//! build can race with an invalidation — publication therefore re-checks
//! the epoch under the cache's write lock (the epoch only mutates under
//! that lock) and rebuilds instead of inserting a trie made from retired
//! data.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use eh_par::RuntimeConfig;
use eh_query::Atom;
use eh_rdf::PredDelta;
use eh_trie::{DeltaOverlay, FrozenTrie, LayoutPolicy, TupleBuffer};

use crate::shared::SharedStore;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TrieKey {
    pred: u32,
    shard: usize,
    subject_first: bool,
    auto_layout: bool,
}

/// Overlay cache key: `(predicate, subject_first, shard)`. Overlays are
/// layout-independent — their sets stay in the uint layout and the
/// kernels intersect mixed layouts anyway — so both layout modes share
/// one entry per (order, shard).
type OverlayKey = (u32, bool, usize);

/// Union-root cache key: `(predicate, subject_first)`. The merged root
/// domain across shards is a plain value set, independent of layout.
type UnionKey = (u32, bool);

/// All cache maps behind one lock: the epoch-recheck publication
/// protocol requires the epoch to mutate only under this lock, and
/// splitting the maps across several locks would force an ordering
/// discipline for no gain (overlay and union-root construction are
/// O(delta) / O(roots), never the bottleneck).
#[derive(Default)]
struct CacheMaps {
    tries: HashMap<TrieKey, Arc<FrozenTrie>>,
    overlays: HashMap<OverlayKey, Arc<DeltaOverlay>>,
    unions: HashMap<UnionKey, Arc<Vec<u32>>>,
}

/// One shard's contribution to a relation: its frozen base trie plus its
/// staged-delta overlay (when that shard has uncompacted novelty).
pub(crate) struct Layer {
    pub base: Arc<FrozenTrie>,
    pub overlay: Option<Arc<DeltaOverlay>>,
}

/// What [`Catalog::relation`] hands the executor for one access path:
/// `k ≥ 1` layers. One layer is the `P = 1` case, a predicate resident in
/// a single shard, one shard's slice for a shard-local plan, or an absent
/// predicate (empty trie). Several are the non-empty shards of a
/// partitioned predicate, and then carry the merged effective root domain
/// — the generic join iterates/probes it at the relation's first level
/// and routes descents to the layers that contain each value.
pub(crate) struct Layered {
    pub layers: Vec<Layer>,
    /// `Some` iff `layers.len() > 1` (catalog-cached).
    pub union_root: Option<Arc<Vec<u32>>>,
}

impl Layered {
    /// Whether any layer reads through a staged-delta overlay — what
    /// `EXPLAIN ANALYZE` counts as `overlay rels`.
    pub fn has_overlay(&self) -> bool {
        self.layers.iter().any(|l| l.overlay.is_some())
    }

    /// The merged effective root domain: the union root of several
    /// layers, or a lone layer's own overlay-merged root.
    pub fn root(&self) -> &[u32] {
        match (&self.union_root, self.layers.as_slice()) {
            (Some(root), _) => root,
            (None, [Layer { base, overlay: Some(ov) }]) => ov.root(base),
            _ => panic!("a lone bare layer reads as an arena; several carry a union root"),
        }
    }
}

/// The union over `layers` of each layer's overlay-merged root set,
/// sorted unique. Subject-major roots are disjoint across shards
/// (subjects hash to exactly one shard); object-major roots overlap —
/// sort + dedup restores the `P = 1` root set either way.
pub(crate) fn merged_root(layers: &[Layer]) -> Vec<u32> {
    let mut root: Vec<u32> = Vec::new();
    for l in layers {
        match &l.overlay {
            Some(ov) => root.extend_from_slice(ov.root(&l.base)),
            None => root.extend(l.base.root_set().iter()),
        }
    }
    root.sort_unstable();
    root.dedup();
    root
}

/// The trie layout for an `auto_layout` flag: per-set bitset/uint
/// selection, or the uint-only ablation.
pub(crate) fn layout_policy(auto: bool) -> LayoutPolicy {
    if auto {
        LayoutPolicy::Auto
    } else {
        LayoutPolicy::UintOnly
    }
}

/// Trie provider over a [`SharedStore`]. Every trie it serves is a
/// [`FrozenTrie`] — one contiguous arena per (predicate, shard, order,
/// layout) — whether it was built from the live store or preloaded from
/// a snapshot ([`Catalog::preload`]). An update *thaws* only the changed
/// (predicate, shard) pairs: their frozen tries are retired and rebuilt
/// from the mutable store through [`Catalog::refresh_after_update`],
/// exactly like any cache miss.
pub struct Catalog {
    store: SharedStore,
    cache: RwLock<CacheMaps>,
    empty: Arc<FrozenTrie>,
    /// Monotonic version of the catalog's contents. Advanced by
    /// [`Catalog::invalidate`] / [`Catalog::refresh_after_update`], and
    /// only ever mutated while the `cache` write lock is held — that is
    /// what makes the publish-time epoch re-check in [`Catalog::obtain`]
    /// race-free.
    epoch: AtomicU64,
    /// The [`SharedStore::version`] this catalog last synchronised with.
    /// Several engines can share one store; only the updating engine's
    /// catalog gets the precise per-predicate refresh, so every other
    /// catalog detects the skew here and retires *all* of its tries (it
    /// cannot know which predicates the foreign update touched). Mutated
    /// only under the `cache` write lock, like `epoch`.
    synced_version: AtomicU64,
}

impl Catalog {
    /// A catalog over `store`.
    pub fn new(store: SharedStore) -> Catalog {
        let synced_version = AtomicU64::new(store.version());
        Catalog {
            store,
            cache: RwLock::new(CacheMaps::default()),
            empty: Arc::new(FrozenTrie::build(TupleBuffer::new(2), LayoutPolicy::Auto)),
            epoch: AtomicU64::new(0),
            synced_version,
        }
    }

    /// The current catalog epoch (see the field docs). Reading the epoch
    /// first synchronises with the store version, so a foreign engine's
    /// update is observed — as a full invalidation — no later than the
    /// next epoch read.
    pub fn epoch(&self) -> u64 {
        self.sync_with_store();
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of subject-hash shards in the underlying store.
    pub fn partitions(&self) -> usize {
        self.store.read().partitions()
    }

    /// Catch up with updates applied through *other* engines over the
    /// same store: when the store version moved past the one this catalog
    /// last synchronised with, drop every trie and advance the epoch.
    /// (The updating engine's own catalog is kept in step by
    /// [`Catalog::refresh_after_update`], which records the version it
    /// covered.)
    fn sync_with_store(&self) {
        if self.synced_version.load(Ordering::Acquire) == self.store.version() {
            return;
        }
        let mut cache = self.cache.write().expect("catalog lock poisoned");
        let version = self.store.version();
        if self.synced_version.load(Ordering::Acquire) == version {
            return;
        }
        cache.tries.clear();
        cache.overlays.clear();
        cache.unions.clear();
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.synced_version.store(version, Ordering::Release);
    }

    /// Claim store version `version` as covered by this catalog's *own*
    /// in-flight update, before the store write lock is released: the
    /// precise [`Catalog::refresh_after_update`] that follows will retire
    /// exactly the changed (predicate, shard) pairs, so readers racing
    /// into the gap must not treat the version skew as a foreign update
    /// and full-invalidate (which would throw away every untouched
    /// predicate's trie).
    pub(crate) fn claim_version(&self, version: u64) {
        // Under the cache lock purely to keep the invariant that
        // `synced_version` mutates only there.
        let _cache = self.cache.write().expect("catalog lock poisoned");
        self.synced_version.fetch_max(version, Ordering::AcqRel);
    }

    /// Drop every cached trie and advance the epoch, forcing downstream
    /// caches keyed by `(query, epoch)` to miss. Tries rebuild lazily on
    /// the next access.
    pub fn invalidate(&self) -> u64 {
        let mut cache = self.cache.write().expect("catalog lock poisoned");
        cache.tries.clear();
        cache.overlays.clear();
        cache.unions.clear();
        // A full clear also covers any store version we had not yet
        // synchronised with — record that so the next epoch read does not
        // invalidate a second time.
        self.synced_version.fetch_max(self.store.version(), Ordering::AcqRel);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The store handle this catalog indexes.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// The trie for `atom`'s predicate table in the given column order —
    /// the `P = 1` view. Predicates absent from the store (or with
    /// emptied tables) resolve to a shared empty trie.
    ///
    /// # Panics
    /// Panics on a partitioned catalog: a single trie per predicate is
    /// ill-defined there — use [`Catalog::relation`].
    pub fn trie(&self, atom: &Atom, subject_first: bool, auto_layout: bool) -> Arc<FrozenTrie> {
        assert_eq!(self.partitions(), 1, "partitioned catalog: use relation()");
        let Some(pred) = self.store.read().resolve_iri(&atom.relation) else {
            return Arc::clone(&self.empty);
        };
        let key = TrieKey { pred, shard: 0, subject_first, auto_layout };
        self.obtain(key, &|| {})
    }

    /// Test hook: like [`Catalog::trie`], but runs `window` between
    /// building a trie and publishing it — the exact window in which a
    /// concurrent invalidation used to be able to slip a stale trie into
    /// a freshly cleared cache. Kept public (hidden) so the regression
    /// test can drive the interleaving deterministically.
    #[doc(hidden)]
    pub fn trie_with_publish_window(
        &self,
        atom: &Atom,
        subject_first: bool,
        auto_layout: bool,
        window: &dyn Fn(),
    ) -> Arc<FrozenTrie> {
        let Some(pred) = self.store.read().resolve_iri(&atom.relation) else {
            return Arc::clone(&self.empty);
        };
        self.obtain(TrieKey { pred, shard: 0, subject_first, auto_layout }, window)
    }

    /// Build (or fetch) one shard's trie for `atom` — the warm path's
    /// per-shard unit of work ([`Engine::warm`](crate::Engine::warm) fans
    /// (predicate, order, shard) jobs over the runtime's workers).
    pub(crate) fn warm_shard(
        &self,
        atom: &Atom,
        subject_first: bool,
        auto_layout: bool,
        shard: usize,
    ) {
        if let Some(pred) = self.store.read().resolve_iri(&atom.relation) {
            self.obtain(TrieKey { pred, shard, subject_first, auto_layout }, &|| {});
        }
    }

    /// Cached-or-built trie for `key`, with race-safe publication:
    ///
    /// 1. fast path — return a cached trie;
    /// 2. record the epoch, then build from the store *outside* any
    ///    catalog lock (concurrent warm-up builds distinct tries in
    ///    parallel instead of serialising on the map);
    /// 3. publish under the cache write lock **only if the epoch is
    ///    unchanged** — an invalidation between (2) and (3) means the
    ///    build may have read retired data, so the loop rebuilds.
    ///
    /// Without step 3's re-check, a build racing an invalidation could
    /// insert a pre-invalidation trie into the cleared cache and serve it
    /// under the new epoch indefinitely.
    fn obtain(&self, key: TrieKey, window: &dyn Fn()) -> Arc<FrozenTrie> {
        // The hook models a single racing invalidation, injected into the
        // first build's publish window; it must not re-fire on the retry
        // or the retry can never settle.
        let mut window = Some(window);
        loop {
            self.sync_with_store();
            if let Some(t) = self.cache.read().expect("catalog lock poisoned").tries.get(&key) {
                return Arc::clone(t);
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            let Some(trie) = self.build(key) else {
                return Arc::clone(&self.empty);
            };
            if let Some(w) = window.take() {
                w();
            }
            let mut cache = self.cache.write().expect("catalog lock poisoned");
            // Raw load, NOT self.epoch(): epoch() runs sync_with_store,
            // which may re-acquire the cache write lock held right here —
            // std's RwLock is non-reentrant, so that would self-deadlock.
            // A version skew at this point is fine to publish through: the
            // next sync (no later than the next epoch read) retires it.
            if self.epoch.load(Ordering::Acquire) == epoch {
                return Arc::clone(cache.tries.entry(key).or_insert(trie));
            }
            // Epoch moved while building: the data this trie was built
            // from may be gone. Drop it and start over.
        }
    }

    /// The staged-delta overlay for `(pred, subject_first, shard)`, or
    /// `None` when that shard has no uncompacted delta for the predicate.
    /// Cached with the same race-safe epoch-recheck publication as
    /// [`Catalog::obtain`]; the delta's presence is re-read from the
    /// store on every miss (no negative caching — a predicate without
    /// deltas costs one map probe and one store read).
    fn overlay(&self, pred: u32, subject_first: bool, shard: usize) -> Option<Arc<DeltaOverlay>> {
        let key: OverlayKey = (pred, subject_first, shard);
        loop {
            self.sync_with_store();
            if let Some(ov) = self.cache.read().expect("catalog lock poisoned").overlays.get(&key) {
                return Some(Arc::clone(ov));
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            let built = {
                let store = self.store.read();
                if shard >= store.partitions() {
                    return None;
                }
                Arc::new(build_overlay(store.shard_delta(shard, pred)?, subject_first))
            };
            let mut cache = self.cache.write().expect("catalog lock poisoned");
            // Same raw load as obtain(): epoch() would re-enter the lock.
            if self.epoch.load(Ordering::Acquire) == epoch {
                return Some(Arc::clone(cache.overlays.entry(key).or_insert(built)));
            }
        }
    }

    /// The merged effective root domain for a partitioned relation
    /// ([`merged_root`]), cached per (predicate, order) under the same
    /// epoch-recheck publication — retired whenever any shard of the
    /// predicate changes (staged or compacted), since either moves some
    /// shard's effective root.
    fn union_root(&self, pred: u32, subject_first: bool, layers: &[Layer]) -> Arc<Vec<u32>> {
        let key: UnionKey = (pred, subject_first);
        loop {
            self.sync_with_store();
            if let Some(u) = self.cache.read().expect("catalog lock poisoned").unions.get(&key) {
                return Arc::clone(u);
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            let built = Arc::new(merged_root(layers));
            let mut cache = self.cache.write().expect("catalog lock poisoned");
            if self.epoch.load(Ordering::Acquire) == epoch {
                return Arc::clone(cache.unions.entry(key).or_insert(built));
            }
        }
    }

    /// The operand for one access path — what the executor consumes.
    /// Overlays ride into the join as extra
    /// [`SetRef`](eh_setops::SetRef) operands, never folded into an
    /// arena. `only` restricts the view to one shard's slice of the
    /// predicate (the shard-local execution path, whose eligibility check
    /// makes the restriction lossless); otherwise every shard that holds
    /// base pairs or staged novelty contributes a layer.
    pub(crate) fn relation(
        &self,
        atom: &Atom,
        subject_first: bool,
        auto_layout: bool,
        only: Option<usize>,
    ) -> Layered {
        let (pred, partitions) = {
            let store = self.store.read();
            (store.resolve_iri(&atom.relation), store.partitions())
        };
        let empty = || Layer { base: Arc::clone(&self.empty), overlay: None };
        let Some(pred) = pred else {
            return Layered { layers: vec![empty()], union_root: None };
        };
        let mut layers: Vec<Layer> = only
            .map_or(0..partitions, |shard| shard..shard + 1)
            .map(|shard| Layer {
                base: self.obtain(TrieKey { pred, shard, subject_first, auto_layout }, &|| {}),
                overlay: self.overlay(pred, subject_first, shard).filter(|ov| !ov.is_empty()),
            })
            .collect();
        // Skip shards that contribute nothing to any set view: dropping
        // them here is what collapses a one-shard-resident predicate back
        // onto the exact single-layer code path.
        layers.retain(|l| l.base.num_tuples() > 0 || l.overlay.is_some());
        if layers.is_empty() {
            layers.push(empty());
        }
        let union_root = (layers.len() > 1).then(|| self.union_root(pred, subject_first, &layers));
        Layered { layers, union_root }
    }

    /// Build a trie for `key` from the current store contents, or `None`
    /// when the predicate's table is absent or empty in that shard.
    fn build(&self, key: TrieKey) -> Option<Arc<FrozenTrie>> {
        let store = self.store.read();
        if key.shard >= store.partitions() {
            // A racing repartition shrank the shard count; the version
            // bump will retire this key's world momentarily.
            return None;
        }
        let table = store.shard_table(key.shard, key.pred)?;
        let pairs = if key.subject_first { table.so_pairs() } else { table.os_pairs() };
        if pairs.is_empty() {
            return None;
        }
        let policy = layout_policy(key.auto_layout);
        Some(Arc::new(FrozenTrie::from_sorted(TupleBuffer::from_pairs(pairs), policy)))
    }

    /// Seed the cache with pre-built frozen tries (auto-layout orders) —
    /// the snapshot cold-start path: a loaded engine starts *warm*, no
    /// trie is rebuilt until an update thaws its (predicate, shard).
    /// Entries are inserted as given and trusted to match the store's
    /// current shard tables (the snapshot reader validates exactly that
    /// before handing them over). Intended for startup; entries are
    /// published under the current epoch like any built trie.
    pub fn preload(&self, entries: impl IntoIterator<Item = (u32, bool, usize, Arc<FrozenTrie>)>) {
        let mut cache = self.cache.write().expect("catalog lock poisoned");
        for (pred, subject_first, shard, trie) in entries {
            cache.tries.insert(TrieKey { pred, shard, subject_first, auto_layout: true }, trie);
        }
    }

    /// The store's base tables changed under `preds` (every shard — a
    /// whole-predicate fold such as `compact_pred` rebuilds all of them)
    /// at store version `version`: retire those predicates' cached tries,
    /// advance the epoch, and eagerly rebuild the retired ("hot") orders
    /// concurrently on `runtime`'s workers so the next query doesn't pay
    /// the build. Untouched predicates keep their tries untouched.
    pub fn refresh_preds(
        &self,
        preds: &[u32],
        version: u64,
        runtime: RuntimeConfig,
    ) -> (u64, usize) {
        let partitions = self.partitions();
        let compacted: Vec<(u32, usize)> =
            preds.iter().flat_map(|&p| (0..partitions).map(move |s| (p, s))).collect();
        self.refresh_after_update(&[], &compacted, version, runtime)
    }

    /// The overlay-aware refresh behind [`Engine::update`](crate::Engine::update):
    ///
    /// * `staged` predicates gained or changed a delta but kept their base
    ///   tables — their base tries **survive** (that is the whole point of
    ///   the overlay: O(delta) apply cost), only their cached overlays
    ///   (every shard's — overlay rebuilds are O(delta), precision buys
    ///   nothing) and union roots are retired, rebuilt lazily from the
    ///   store's new deltas;
    /// * `compacted` (predicate, shard) pairs had that shard's delta
    ///   folded into a fresh base table — exactly that shard's base tries
    ///   retire and the previously hot orders rebuild eagerly on
    ///   `runtime`'s workers, plus the shard's cached overlay drops (the
    ///   delta is gone). Other shards of the same predicate keep their
    ///   tries — the shard-local compaction contract.
    ///
    /// One epoch bump covers the whole batch. Returns the new epoch and
    /// the number of base tries rebuilt.
    pub fn refresh_after_update(
        &self,
        staged: &[u32],
        compacted: &[(u32, usize)],
        version: u64,
        runtime: RuntimeConfig,
    ) -> (u64, usize) {
        let (epoch, stale) = {
            let mut cache = self.cache.write().expect("catalog lock poisoned");
            let stale: Vec<TrieKey> = cache
                .tries
                .keys()
                .filter(|k| compacted.contains(&(k.pred, k.shard)))
                .copied()
                .collect();
            for k in &stale {
                cache.tries.remove(k);
            }
            cache
                .overlays
                .retain(|&(p, _, s), _| !staged.contains(&p) && !compacted.contains(&(p, s)));
            // Either kind of change moves some shard's effective root, so
            // the merged domain is stale for every touched predicate.
            cache.unions.retain(|&(p, _), _| {
                !staged.contains(&p) && !compacted.iter().any(|&(cp, _)| cp == p)
            });
            // fetch_max, not store: if an even newer foreign version
            // exists, the next sync must still do its full invalidation.
            self.synced_version.fetch_max(version, Ordering::AcqRel);
            (self.epoch.fetch_add(1, Ordering::AcqRel) + 1, stale)
        };
        eh_par::run_tasks(runtime.num_threads, stale.len(), |i| {
            self.obtain(stale[i], &|| {});
        });
        (epoch, stale.len())
    }

    /// Logical cardinality of an atom's predicate (0 when absent): the
    /// base tables adjusted by the staged deltas across all shards, so
    /// the planner's cost-model sees the same relation the executor
    /// serves — identical at every partition count.
    pub fn cardinality(&self, atom: &Atom) -> usize {
        let store = self.store.read();
        let Some(pred) = store.resolve_iri(&atom.relation) else {
            return 0;
        };
        store.pred_logical_len(pred)
    }

    /// Number of distinct tries currently cached (diagnostics).
    pub fn cached_tries(&self) -> usize {
        self.cache.read().expect("catalog lock poisoned").tries.len()
    }

    /// Number of distinct delta overlays currently cached (diagnostics).
    pub fn cached_overlays(&self) -> usize {
        self.cache.read().expect("catalog lock poisoned").overlays.len()
    }

    /// Cached arena bytes per shard (index = shard), for the serving
    /// tier's per-shard gauges. Shards with nothing cached report 0.
    pub fn arena_bytes_by_shard(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.partitions()];
        let cache = self.cache.read().expect("catalog lock poisoned");
        for (k, t) in &cache.tries {
            if let Some(slot) = out.get_mut(k.shard) {
                *slot += t.arena_bytes() as u64;
            }
        }
        out
    }
}

/// Materialise one order's [`DeltaOverlay`] from the store's staged
/// delta. Deltas are kept subject-major in the store; the object-major
/// order permutes and re-sorts (deltas are small by the compaction
/// threshold, so this stays O(delta log delta)).
fn build_overlay(delta: &PredDelta, subject_first: bool) -> DeltaOverlay {
    if subject_first {
        DeltaOverlay::from_pairs(delta.ins_pairs(), delta.del_pairs())
    } else {
        let permute = |pairs: &[(u32, u32)]| {
            let mut v: Vec<(u32, u32)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
            v.sort_unstable();
            v
        };
        DeltaOverlay::from_pairs(&permute(delta.ins_pairs()), &permute(delta.del_pairs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::QueryBuilder;
    use eh_rdf::{Term, Triple, TripleStore};

    fn triple(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    fn store() -> SharedStore {
        SharedStore::from_triples(vec![
            triple("s1", "p", "o1"),
            triple("s1", "p", "o2"),
            triple("s2", "p", "o1"),
        ])
    }

    /// Stage one triple and fold it, so it lands in the base table the
    /// cached tries are built from.
    fn add_to_base(s: &SharedStore, t: Triple) {
        let mut store = s.write();
        store.stage_add_triples(vec![t]);
        store.compact_all();
    }

    fn atom_for(store: &TripleStore, rel: &str) -> Atom {
        let mut qb = QueryBuilder::new();
        let (x, y) = (qb.var("x"), qb.var("y"));
        let pred = store.resolve_iri(rel).unwrap_or(u32::MAX);
        qb.atom(rel, pred, x, y);
        qb.select(vec![x]).build().unwrap().atoms()[0].clone()
    }

    /// Unwrap a one-layer operand of [`Catalog::relation`] — the whole
    /// relation (`only = None`) or one shard's slice of it.
    fn single_rel(
        c: &Catalog,
        a: &Atom,
        subject_first: bool,
        only: Option<usize>,
    ) -> (Arc<FrozenTrie>, Option<Arc<DeltaOverlay>>) {
        let Layered { mut layers, union_root } = c.relation(a, subject_first, true, only);
        assert!(layers.len() == 1 && union_root.is_none(), "expected a single layer");
        let Layer { base, overlay } = layers.pop().expect("checked length");
        (base, overlay)
    }

    /// Expand predicate keys to (pred, shard) pairs across all shards.
    fn all_shards(c: &Catalog, preds: &[u32]) -> Vec<(u32, usize)> {
        let p = c.partitions();
        preds.iter().flat_map(|&pred| (0..p).map(move |s| (pred, s))).collect()
    }

    #[test]
    fn loads_both_orders() {
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let so = c.trie(&a, true, true);
        let os = c.trie(&a, false, true);
        assert_eq!(so.num_tuples(), 3);
        assert_eq!(os.num_tuples(), 3);
        // Subject-major roots on subjects (2 of them), object-major on
        // objects (2 of them).
        assert_eq!(so.root_set().len(), 2);
        assert_eq!(os.root_set().len(), 2);
    }

    #[test]
    fn cache_hits() {
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let t1 = c.trie(&a, true, true);
        let t2 = c.trie(&a, true, true);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(c.cached_tries(), 1);
        let _ = c.trie(&a, false, true);
        let _ = c.trie(&a, true, false);
        assert_eq!(c.cached_tries(), 3);
    }

    #[test]
    fn missing_predicate_is_empty() {
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "absent");
        assert!(c.trie(&a, true, true).is_empty());
        assert_eq!(c.cardinality(&a), 0);
    }

    #[test]
    fn invalidate_clears_tries_and_bumps_epoch() {
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        assert_eq!(c.epoch(), 0);
        let before = c.trie(&a, true, true);
        assert_eq!(c.cached_tries(), 1);
        assert_eq!(c.invalidate(), 1);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.cached_tries(), 0);
        // The trie rebuilds on demand, content-identical.
        let after = c.trie(&a, true, true);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(before.num_tuples(), after.num_tuples());
    }

    #[test]
    fn cardinality() {
        let s = store();
        let c = Catalog::new(s.clone());
        assert_eq!(c.cardinality(&atom_for(&s.read(), "p")), 3);
    }

    #[test]
    fn concurrent_access_shares_one_trie_per_key() {
        // The warm-path contract: many workers requesting overlapping
        // keys through &self agree on a single cached Arc per key.
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let tries = eh_par::run_tasks(4, 16, |i| c.trie(&a, i % 2 == 0, true));
        assert_eq!(c.cached_tries(), 2);
        for (i, t) in tries.iter().enumerate() {
            assert!(Arc::ptr_eq(t, &tries[i % 2]));
        }
    }

    #[test]
    fn refresh_preds_keeps_untouched_predicates() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b"), triple("a", "q", "b")]);
        let c = Catalog::new(s.clone());
        let (ap, aq) = { (atom_for(&s.read(), "p"), atom_for(&s.read(), "q")) };
        let p_before = c.trie(&ap, true, true);
        let q_before = c.trie(&aq, true, true);
        let pred_p = s.read().resolve_iri("p").unwrap();

        add_to_base(&s, triple("c", "p", "d"));
        let v = s.bump_version();
        let (epoch, rebuilt) = c.refresh_preds(&[pred_p], v, RuntimeConfig::serial());
        assert_eq!(epoch, 1);
        assert_eq!(rebuilt, 1);
        // p was rebuilt eagerly (still cached) with the new contents; q's
        // trie is the very same Arc as before.
        assert_eq!(c.cached_tries(), 2);
        let p_after = c.trie(&ap, true, true);
        assert!(!Arc::ptr_eq(&p_before, &p_after));
        assert_eq!(p_after.num_tuples(), 2);
        assert!(Arc::ptr_eq(&q_before, &c.trie(&aq, true, true)));
    }

    #[test]
    fn emptied_table_resolves_to_empty_trie() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b")]);
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        assert_eq!(c.trie(&a, true, true).num_tuples(), 1);
        let pred = s.read().resolve_iri("p").unwrap();
        {
            let mut store = s.write();
            store.stage_remove_triples(vec![triple("a", "p", "b")]);
            store.compact_all();
        }
        let v = s.bump_version();
        c.refresh_preds(&[pred], v, RuntimeConfig::serial());
        assert!(c.trie(&a, true, true).is_empty());
        assert_eq!(c.cardinality(&a), 0);
    }

    /// The headline regression: a trie built from pre-invalidation data
    /// must not be published into the cache after the invalidation
    /// cleared it — with a mutable store that stale trie would be served
    /// under the new epoch indefinitely. The publish-window hook drives
    /// the exact interleaving; reverting the epoch re-check in
    /// [`Catalog::obtain`] makes this fail.
    #[test]
    fn stale_trie_is_not_published_across_invalidation() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b")]);
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let pred = s.read().resolve_iri("p").unwrap();
        // Build p's trie; in the window between build and publish, the
        // store gains a triple and the catalog invalidates p.
        let served = c.trie_with_publish_window(&a, true, true, &|| {
            add_to_base(&s, triple("c", "p", "d"));
            let v = s.bump_version();
            c.refresh_preds(&[pred], v, RuntimeConfig::serial());
        });
        // The racing builder must have retried against the new contents…
        assert_eq!(served.num_tuples(), 2, "stale trie escaped the publish window");
        // …and whatever the cache now serves must also be current.
        assert_eq!(c.trie(&a, true, true).num_tuples(), 2, "stale trie cached across invalidation");
    }

    /// The LSM contract: a staged update serves through an overlay
    /// while the base trie Arc survives untouched; compaction then
    /// retires both base trie and overlay.
    #[test]
    fn staged_deltas_serve_overlays_and_keep_base_tries() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b")]);
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let base = c.trie(&a, true, true);
        let pred = s.read().resolve_iri("p").unwrap();

        s.write().stage_add_triples(vec![triple("c", "p", "d")]);
        let v = s.bump_version();
        c.claim_version(v);
        let (epoch, rebuilt) = c.refresh_after_update(&[pred], &[], v, RuntimeConfig::serial());
        assert_eq!((epoch, rebuilt), (1, 0), "staged updates must not rebuild base tries");

        let (trie, ov) = single_rel(&c, &a, true, None);
        assert!(Arc::ptr_eq(&base, &trie), "base trie retired by a staged update");
        let ov = ov.expect("delta resident");
        assert_eq!((ov.inserted(), ov.deleted()), (1, 0));
        assert_eq!(c.cardinality(&a), 2);
        assert_eq!(c.cached_overlays(), 1);
        // Object-major overlay is served (and cached) independently.
        let (_, ov_os) = single_rel(&c, &a, false, None);
        assert_eq!(ov_os.expect("os overlay").inserted(), 1);
        assert_eq!(c.cached_overlays(), 2);

        // Compaction folds the delta: base tries rebuild, overlays drop.
        let compacted = s.write().compact_all();
        let v = s.bump_version();
        c.claim_version(v);
        let pairs = all_shards(&c, &compacted);
        let (_, rebuilt) = c.refresh_after_update(&[], &pairs, v, RuntimeConfig::serial());
        assert_eq!(rebuilt, 2, "both cached orders of p rebuild on compaction");
        let (trie, ov) = single_rel(&c, &a, true, None);
        assert!(!Arc::ptr_eq(&base, &trie));
        assert_eq!(trie.num_tuples(), 2);
        assert!(ov.is_none());
        assert_eq!(c.cached_overlays(), 0);
        assert_eq!(c.cardinality(&a), 2);
    }

    /// Same race against a full invalidate(): the cleared cache must not
    /// be repopulated with a pre-clear build.
    #[test]
    fn stale_trie_is_not_published_across_full_invalidate() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b")]);
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let served = c.trie_with_publish_window(&a, true, true, &|| {
            add_to_base(&s, triple("c", "p", "d"));
            c.invalidate();
        });
        assert_eq!(served.num_tuples(), 2);
        assert_eq!(c.trie(&a, true, true).num_tuples(), 2);
    }

    /// Enough distinct subjects to populate every shard at P = 4.
    fn wide_store(partitions: usize) -> SharedStore {
        let triples: Vec<Triple> =
            (0..32).map(|i| triple(&format!("s{i}"), "p", &format!("o{}", i % 3))).collect();
        SharedStore::from(TripleStore::from_triples_partitioned(triples, partitions))
    }

    /// The tentpole contract: a partitioned catalog serves per-shard
    /// operands whose union root reproduces the P = 1 root set exactly,
    /// in both trie orders.
    #[test]
    fn partitioned_relation_serves_sharded_operands() {
        let s1 = wide_store(1);
        let s4 = wide_store(4);
        let c1 = Catalog::new(s1.clone());
        let c4 = Catalog::new(s4.clone());
        let a = atom_for(&s4.read(), "p");
        assert_eq!(c4.partitions(), 4);
        for subject_first in [true, false] {
            let reference = c1.trie(&a, subject_first, true);
            let rel = c4.relation(&a, subject_first, true, None);
            assert!(rel.layers.len() >= 2, "32 spread subjects must occupy several shards");
            let total: usize = rel.layers.iter().map(|l| l.base.num_tuples()).sum();
            assert_eq!(total, reference.num_tuples(), "shards partition the pairs");
            let expect: Vec<u32> = reference.root_set().iter().collect();
            assert_eq!(rel.root(), expect, "union root reproduces the P=1 root set");
            // The union root is cached: a second fetch shares the Arc.
            let again = c4.relation(&a, subject_first, true, None);
            assert!(Arc::ptr_eq(
                rel.union_root.as_ref().expect("several layers carry a union root"),
                again.union_root.as_ref().expect("still several layers"),
            ));
        }
    }

    /// Shard-local compaction precision: folding one shard's delta must
    /// retire exactly that shard's tries — every other shard keeps its
    /// Arcs.
    #[test]
    fn shard_local_refresh_retires_only_that_shard() {
        let s = wide_store(4);
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let pred = s.read().resolve_iri("p").unwrap();
        // Warm every shard's subject-major trie.
        let before: Vec<Arc<FrozenTrie>> =
            (0..4).map(|shard| single_rel(&c, &a, true, Some(shard)).0).collect();

        // Stage a pair into whichever shard owns the (already encoded)
        // subject, then fold exactly that shard.
        let target = {
            let store = s.read();
            store.partitioner().shard_of(store.resolve_iri("s0").unwrap())
        };
        s.write().stage_add_triples(vec![triple("s0", "p", "o9")]);
        let v = s.bump_version();
        c.claim_version(v);
        c.refresh_after_update(&[pred], &[], v, RuntimeConfig::serial());
        assert!(s.write().compact_pred_in(target, pred));
        let v = s.bump_version();
        c.claim_version(v);
        let (_, rebuilt) =
            c.refresh_after_update(&[], &[(pred, target)], v, RuntimeConfig::serial());
        assert_eq!(rebuilt, 1, "only the folded shard's cached order rebuilds");

        for (shard, old) in before.iter().enumerate() {
            let (now, ov) = single_rel(&c, &a, true, Some(shard));
            assert!(ov.is_none(), "delta folded");
            if shard == target {
                assert!(!Arc::ptr_eq(old, &now), "folded shard must retire its trie");
                assert_eq!(now.num_tuples(), old.num_tuples() + 1);
            } else {
                assert!(Arc::ptr_eq(old, &now), "untouched shard {shard} lost its trie");
            }
        }
    }

    /// Staged novelty at P > 1 rides per-shard overlays: only the shard
    /// owning the staged subject carries one, and a predicate resident in
    /// a single shard collapses back to a single layer.
    #[test]
    fn partitioned_overlays_route_by_subject_shard() {
        let s = wide_store(4);
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let pred = s.read().resolve_iri("p").unwrap();
        let target = {
            let store = s.read();
            store.partitioner().shard_of(store.resolve_iri("s1").unwrap())
        };
        s.write().stage_add_triples(vec![triple("s1", "p", "o77")]);
        let v = s.bump_version();
        c.claim_version(v);
        c.refresh_after_update(&[pred], &[], v, RuntimeConfig::serial());

        for shard in 0..4 {
            let (_, ov) = single_rel(&c, &a, true, Some(shard));
            assert_eq!(ov.is_some(), shard == target, "overlay misrouted for shard {shard}");
        }

        // A predicate whose pairs all live in one shard serves a single
        // operand even on a partitioned store.
        add_to_base(&s, triple("lonely", "q", "z"));
        let v = s.bump_version();
        c.claim_version(v);
        let q_pred = s.read().resolve_iri("q").unwrap();
        c.refresh_preds(&[q_pred], v, RuntimeConfig::serial());
        let aq = atom_for(&s.read(), "q");
        assert_eq!(single_rel(&c, &aq, true, None).0.num_tuples(), 1);
    }
}
