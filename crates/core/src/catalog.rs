//! The trie catalog: hands the executor each relation as the tries the
//! plan's attribute orders need.
//!
//! A trie over one attribute order is "analogous to a single index in a
//! standard database" (paper §III-A), and the store already *is* those
//! indexes: every (shard, predicate) lives as its two frozen
//! auto-layout tries, subject-major (`[s, o]`) and object-major
//! (`[o, s]`) — the only two orders a binary RDF atom needs. An
//! auto-layout operand is therefore the store's own `Arc`: nothing is
//! built and nothing is cached. The catalog builds only what the store
//! does not hold: staged-delta overlays, the merged root domains of
//! partitioned relations, and the `UintOnly` tries of the Table I
//! +Layout ablation (re-frozen from the store trie's tuples).
//!
//! ## Sharding
//!
//! The store hash-partitions subjects into `P` shards, each owning its
//! own relations and staged deltas; every cache key carries the shard, so
//! a shard-local compaction retires exactly one shard's entries.
//! [`Catalog::relation`] assembles the executor's view, a [`Layered`]
//! operand: one `(base, overlay?)` [`Layer`] at `P = 1` (or when only one
//! shard holds the predicate, or the plan is shard-local), byte-identical
//! to the unpartitioned engine; otherwise one layer per non-empty shard
//! under the merged root domain that the generic join unions through its
//! layered cursor.
//!
//! ## Ownership and mutation
//!
//! The catalog co-owns its [`SharedStore`]: queries and updates share one
//! store behind a `RwLock`, and the catalog's job is keeping what it
//! derived consistent with whatever that store currently holds. After a
//! mutation, [`Catalog::refresh_after_update`] retires exactly the
//! changed (predicate, shard) pairs' derived entries (untouched shards
//! keep theirs) and advances the epoch. Layers that cache *derived*
//! artifacts (a serving tier's result cache) key them by
//! [`Catalog::epoch`] so every retired state is unreachable at once.
//!
//! ## Concurrency
//!
//! The cache is shared-state concurrent: entries live behind `Arc` and
//! the maps behind an `RwLock`, so the parallel runtime can both *read*
//! operands from many worker threads during join execution and *build*
//! distinct ablation tries concurrently during
//! [`Engine::warm`](crate::Engine::warm) — all through `&self`.
//! Construction happens outside the lock; when two workers race to build
//! the same entry, the first insert wins and both end up sharing one
//! copy. Because construction is outside the lock, a build can race with
//! an invalidation — publication therefore re-checks the epoch under the
//! cache's write lock (the epoch only mutates under that lock) and
//! rebuilds instead of inserting an entry made from retired data.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use eh_query::Atom;
use eh_rdf::PredDelta;
use eh_trie::{DeltaOverlay, FrozenTrie, LayoutPolicy, TupleBuffer};

use crate::shared::SharedStore;

/// One shard's trie for one predicate in one attribute order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TrieKey {
    pred: u32,
    shard: usize,
    subject_first: bool,
}

/// Union-root cache key: `(predicate, subject_first)`. The merged root
/// domain across shards is a plain value set, independent of layout.
type UnionKey = (u32, bool);

/// All cache maps behind one lock: the epoch-recheck publication
/// protocol requires the epoch to mutate only under this lock, and
/// splitting the maps across several locks would force an ordering
/// discipline for no gain.
#[derive(Default)]
struct CacheMaps {
    /// `UintOnly` ablation tries; auto-layout operands are the store's.
    uint_tries: HashMap<TrieKey, Arc<FrozenTrie>>,
    /// Staged-delta overlays. Layout-independent — their sets stay in the
    /// uint layout and the kernels intersect mixed layouts anyway — so
    /// both layout modes share one entry per (order, shard).
    overlays: HashMap<TrieKey, Arc<DeltaOverlay>>,
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

/// Operand provider over a [`SharedStore`]. Every trie it serves is a
/// [`FrozenTrie`] — one contiguous arena per (predicate, shard, order,
/// layout): the store's own for the auto layout (built at commit,
/// refrozen by compaction, or mapped from a snapshot), a cached re-freeze
/// for the `UintOnly` ablation.
pub struct Catalog {
    store: SharedStore,
    cache: RwLock<CacheMaps>,
    empty: Arc<FrozenTrie>,
    /// Monotonic version of the catalog's contents. Advanced by
    /// [`Catalog::invalidate`] / [`Catalog::refresh_after_update`], and
    /// only ever mutated while the `cache` write lock is held — that is
    /// what makes the publish-time epoch re-check race-free.
    epoch: AtomicU64,
    /// The [`SharedStore::version`] this catalog last synchronised with.
    /// Several engines can share one store; only the updating engine's
    /// catalog gets the precise per-predicate refresh, so every other
    /// catalog detects the skew here and retires *all* of its entries (it
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
    /// last synchronised with, drop every entry and advance the epoch.
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
        *cache = CacheMaps::default();
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.synced_version.store(version, Ordering::Release);
    }

    /// Claim store version `version` as covered by this catalog's *own*
    /// in-flight update, before the store write lock is released: the
    /// precise [`Catalog::refresh_after_update`] that follows will retire
    /// exactly the changed (predicate, shard) pairs, so readers racing
    /// into the gap must not treat the version skew as a foreign update
    /// and full-invalidate (which would throw away every untouched
    /// predicate's entries).
    pub(crate) fn claim_version(&self, version: u64) {
        // Under the cache lock purely to keep the invariant that
        // `synced_version` mutates only there.
        let _cache = self.cache.write().expect("catalog lock poisoned");
        self.synced_version.fetch_max(version, Ordering::AcqRel);
    }

    /// Drop every cached entry and advance the epoch, forcing downstream
    /// caches keyed by `(query, epoch)` to miss. Entries rebuild lazily
    /// on the next access.
    pub fn invalidate(&self) -> u64 {
        let mut cache = self.cache.write().expect("catalog lock poisoned");
        *cache = CacheMaps::default();
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

    /// The trie for `atom`'s predicate in the given column order — the
    /// `P = 1` view. Predicates absent from the store resolve to a shared
    /// empty trie.
    ///
    /// # Panics
    /// Panics on a partitioned catalog: a single trie per predicate is
    /// ill-defined there — use [`Catalog::relation`].
    pub fn trie(&self, atom: &Atom, subject_first: bool, auto_layout: bool) -> Arc<FrozenTrie> {
        assert_eq!(self.partitions(), 1, "partitioned catalog: use relation()");
        self.trie_with_publish_window(atom, subject_first, auto_layout, &|| {})
    }

    /// Test hook: like [`Catalog::trie`], but runs `window` between
    /// building an ablation trie and publishing it — the exact window in
    /// which a concurrent invalidation used to be able to slip a stale
    /// trie into a freshly cleared cache. Kept public (hidden) so the
    /// regression test can drive the interleaving deterministically.
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
        self.obtain(TrieKey { pred, shard: 0, subject_first }, auto_layout, window)
    }

    /// Fetch (building an ablation trie if needed) one shard's trie for
    /// `atom` — the warm path's per-shard unit of work
    /// ([`Engine::warm`](crate::Engine::warm) fans (predicate, order,
    /// shard) jobs over the runtime's workers).
    pub(crate) fn warm_shard(
        &self,
        atom: &Atom,
        subject_first: bool,
        auto_layout: bool,
        shard: usize,
    ) {
        if let Some(pred) = self.store.read().resolve_iri(&atom.relation) {
            self.obtain(TrieKey { pred, shard, subject_first }, auto_layout, &|| {});
        }
    }

    /// The trie for `key`: the store's own base trie in the auto layout
    /// (or when it is empty, where layouts coincide), otherwise the
    /// cached-or-built `UintOnly` re-freeze of it, with race-safe
    /// publication:
    ///
    /// 1. fast path — return a cached trie;
    /// 2. record the epoch, then build from the store's trie *outside*
    ///    any catalog lock (concurrent warm-up builds distinct tries in
    ///    parallel instead of serialising on the map);
    /// 3. publish under the cache write lock **only if the epoch is
    ///    unchanged** — an invalidation between (2) and (3) means the
    ///    build may have read retired data, so the loop rebuilds.
    ///
    /// Without step 3's re-check, a build racing an invalidation could
    /// insert a pre-invalidation trie into the cleared cache and serve it
    /// under the new epoch indefinitely.
    fn obtain(&self, key: TrieKey, auto_layout: bool, window: &dyn Fn()) -> Arc<FrozenTrie> {
        // The hook models a single racing invalidation, injected into the
        // first build's publish window; it must not re-fire on the retry
        // or the retry can never settle.
        let mut window = Some(window);
        loop {
            self.sync_with_store();
            if let Some(t) = self.cache.read().expect("catalog lock poisoned").uint_tries.get(&key)
            {
                return Arc::clone(t);
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            let base = {
                let store = self.store.read();
                // A racing repartition can shrink the shard count; the
                // version bump retires this key's world momentarily.
                let pair = (key.shard < store.partitions())
                    .then(|| store.trie_pair(key.shard, key.pred))
                    .flatten();
                match pair {
                    Some(pair) => Arc::clone(pair.order(key.subject_first)),
                    None => return Arc::clone(&self.empty),
                }
            };
            if auto_layout || base.is_empty() {
                return base;
            }
            let trie = Arc::new(FrozenTrie::from_sorted(base.to_tuples(), layout_policy(false)));
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
                return Arc::clone(cache.uint_tries.entry(key).or_insert(trie));
            }
            // Epoch moved while building: the data this trie was built
            // from may be gone. Drop it and start over.
        }
    }

    /// The staged-delta overlay for `key`, or `None` when that shard has
    /// no uncompacted delta for the predicate. Cached with the same
    /// race-safe epoch-recheck publication as [`Catalog::obtain`]; the
    /// delta's presence is re-read from the store on every miss (no
    /// negative caching — a predicate without deltas costs one map probe
    /// and one store read).
    fn overlay(&self, key: TrieKey) -> Option<Arc<DeltaOverlay>> {
        loop {
            self.sync_with_store();
            if let Some(ov) = self.cache.read().expect("catalog lock poisoned").overlays.get(&key) {
                return Some(Arc::clone(ov));
            }
            let epoch = self.epoch.load(Ordering::Acquire);
            let built = {
                let store = self.store.read();
                if key.shard >= store.partitions() {
                    return None;
                }
                Arc::new(build_overlay(store.shard_delta(key.shard, key.pred)?, key.subject_first))
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
            .map(|shard| {
                let key = TrieKey { pred, shard, subject_first };
                Layer {
                    base: self.obtain(key, auto_layout, &|| {}),
                    overlay: self.overlay(key).filter(|ov| !ov.is_empty()),
                }
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

    /// The overlay-aware refresh behind [`Engine::update`](crate::Engine::update),
    /// at store version `version`:
    ///
    /// * `staged` predicates gained or changed a delta but kept their base
    ///   tries — those **survive** (that is the whole point of the
    ///   overlay: O(delta) apply cost); only their cached overlays (every
    ///   shard's — overlay rebuilds are O(delta), precision buys nothing)
    ///   and union roots are retired, rebuilt lazily from the store's new
    ///   deltas;
    /// * `compacted` (predicate, shard) pairs had that shard's delta
    ///   folded into freshly frozen base tries by the store itself —
    ///   exactly that shard's cached ablation tries and overlay retire.
    ///   Other shards of the same predicate keep their entries — the
    ///   shard-local compaction contract.
    ///
    /// One epoch bump covers the whole batch. Returns the new epoch.
    pub fn refresh_after_update(
        &self,
        staged: &[u32],
        compacted: &[(u32, usize)],
        version: u64,
    ) -> u64 {
        let mut cache = self.cache.write().expect("catalog lock poisoned");
        cache.uint_tries.retain(|k, _| !compacted.contains(&(k.pred, k.shard)));
        cache
            .overlays
            .retain(|k, _| !staged.contains(&k.pred) && !compacted.contains(&(k.pred, k.shard)));
        // Either kind of change moves some shard's effective root, so
        // the merged domain is stale for every touched predicate.
        cache
            .unions
            .retain(|&(p, _), _| !staged.contains(&p) && !compacted.iter().any(|&(cp, _)| cp == p));
        // fetch_max, not store: if an even newer foreign version exists,
        // the next sync must still do its full invalidation.
        self.synced_version.fetch_max(version, Ordering::AcqRel);
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Logical cardinality of an atom's predicate (0 when absent): the
    /// base relations adjusted by the staged deltas across all shards, so
    /// the planner's cost-model sees the same relation the executor
    /// serves — identical at every partition count.
    pub fn cardinality(&self, atom: &Atom) -> usize {
        let store = self.store.read();
        let Some(pred) = store.resolve_iri(&atom.relation) else {
            return 0;
        };
        store.pred_logical_len(pred)
    }

    /// Number of `UintOnly` ablation tries currently cached
    /// (diagnostics). Auto-layout operands are the store's own tries and
    /// are never cached here.
    pub fn cached_tries(&self) -> usize {
        self.cache.read().expect("catalog lock poisoned").uint_tries.len()
    }

    /// Number of distinct delta overlays currently cached (diagnostics).
    pub fn cached_overlays(&self) -> usize {
        self.cache.read().expect("catalog lock poisoned").overlays.len()
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

    /// Stage one triple and fold it, so it lands in the base tries.
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

    /// The store's own base trie for a predicate IRI (shard, order).
    fn store_trie(
        s: &SharedStore,
        rel: &str,
        shard: usize,
        subject_first: bool,
    ) -> Arc<FrozenTrie> {
        let store = s.read();
        let pred = store.resolve_iri(rel).unwrap();
        Arc::clone(store.trie_pair(shard, pred).unwrap().order(subject_first))
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
    fn auto_operands_are_the_store_tries_and_ablation_tries_are_cached() {
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        // Auto layout: the store's own Arc, nothing built or cached.
        for subject_first in [true, false] {
            let t = c.trie(&a, subject_first, true);
            assert!(Arc::ptr_eq(&t, &store_trie(&s, "p", 0, subject_first)));
        }
        assert_eq!(c.cached_tries(), 0);
        // UintOnly: built once per key from the store trie's tuples.
        let t1 = c.trie(&a, true, false);
        let t2 = c.trie(&a, true, false);
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(t1.to_tuples(), store_trie(&s, "p", 0, true).to_tuples());
        assert_eq!(t1.bitset_blocks(), 0);
        assert_eq!(c.cached_tries(), 1);
        let _ = c.trie(&a, false, false);
        assert_eq!(c.cached_tries(), 2);
    }

    #[test]
    fn missing_predicate_is_empty() {
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "absent");
        assert!(c.trie(&a, true, true).is_empty());
        assert!(c.trie(&a, true, false).is_empty());
        assert_eq!(c.cardinality(&a), 0);
    }

    #[test]
    fn invalidate_clears_tries_and_bumps_epoch() {
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        assert_eq!(c.epoch(), 0);
        let before = c.trie(&a, true, false);
        assert_eq!(c.cached_tries(), 1);
        assert_eq!(c.invalidate(), 1);
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.cached_tries(), 0);
        // The trie rebuilds on demand, content-identical.
        let after = c.trie(&a, true, false);
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(*before, *after);
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
        // ablation keys through &self agree on a single cached Arc per
        // key.
        let s = store();
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let tries = eh_par::run_tasks(4, 16, |i| c.trie(&a, i % 2 == 0, false));
        assert_eq!(c.cached_tries(), 2);
        for (i, t) in tries.iter().enumerate() {
            assert!(Arc::ptr_eq(t, &tries[i % 2]));
        }
    }

    #[test]
    fn compaction_refresh_keeps_untouched_predicates() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b"), triple("a", "q", "b")]);
        let c = Catalog::new(s.clone());
        let (ap, aq) = { (atom_for(&s.read(), "p"), atom_for(&s.read(), "q")) };
        let p_before = c.trie(&ap, true, false);
        let q_before = c.trie(&aq, true, false);
        let pred_p = s.read().resolve_iri("p").unwrap();

        add_to_base(&s, triple("c", "p", "d"));
        let v = s.bump_version();
        let epoch = c.refresh_after_update(&[], &all_shards(&c, &[pred_p]), v);
        assert_eq!(epoch, 1);
        // p's ablation trie retired (rebuilt lazily with the new
        // contents); q's is the very same Arc as before.
        assert_eq!(c.cached_tries(), 1);
        let p_after = c.trie(&ap, true, false);
        assert!(!Arc::ptr_eq(&p_before, &p_after));
        assert_eq!(p_after.num_tuples(), 2);
        assert!(Arc::ptr_eq(&q_before, &c.trie(&aq, true, false)));
    }

    #[test]
    fn emptied_relation_resolves_to_empty_trie() {
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
        c.refresh_after_update(&[], &all_shards(&c, &[pred]), v);
        assert!(c.trie(&a, true, true).is_empty());
        assert!(c.trie(&a, true, false).is_empty());
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
        // Build p's ablation trie; in the window between build and
        // publish, the store gains a triple and the catalog retires p.
        let served = c.trie_with_publish_window(&a, true, false, &|| {
            add_to_base(&s, triple("c", "p", "d"));
            let v = s.bump_version();
            c.refresh_after_update(&[], &all_shards(&c, &[pred]), v);
        });
        // The racing builder must have retried against the new contents…
        assert_eq!(served.num_tuples(), 2, "stale trie escaped the publish window");
        // …and whatever the cache now serves must also be current.
        assert_eq!(c.trie(&a, true, false).num_tuples(), 2, "stale trie cached across refresh");
    }

    /// The LSM contract: a staged update serves through an overlay
    /// while the base trie Arc survives untouched; compaction then
    /// replaces the store's base tries and retires the overlay.
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
        assert_eq!(c.refresh_after_update(&[pred], &[], v), 1);

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

        // Compaction folds the delta into fresh store tries; overlays drop.
        let compacted = s.write().compact_all();
        let v = s.bump_version();
        c.claim_version(v);
        c.refresh_after_update(&[], &all_shards(&c, &compacted), v);
        let (trie, ov) = single_rel(&c, &a, true, None);
        assert!(!Arc::ptr_eq(&base, &trie));
        assert!(Arc::ptr_eq(&trie, &store_trie(&s, "p", 0, true)));
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
        let served = c.trie_with_publish_window(&a, true, false, &|| {
            add_to_base(&s, triple("c", "p", "d"));
            c.invalidate();
        });
        assert_eq!(served.num_tuples(), 2);
        assert_eq!(c.trie(&a, true, false).num_tuples(), 2);
    }

    /// Enough distinct subjects to populate every shard at P = 4.
    fn wide_store(partitions: usize) -> SharedStore {
        let triples: Vec<Triple> =
            (0..32).map(|i| triple(&format!("s{i}"), "p", &format!("o{}", i % 3))).collect();
        SharedStore::from(TripleStore::from_triples_partitioned(triples, partitions))
    }

    /// A partitioned catalog serves per-shard operands whose union root
    /// reproduces the P = 1 root set exactly, in both trie orders.
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
    /// replace exactly that shard's tries — every other shard keeps its
    /// Arcs.
    #[test]
    fn shard_local_refresh_retires_only_that_shard() {
        let s = wide_store(4);
        let c = Catalog::new(s.clone());
        let a = atom_for(&s.read(), "p");
        let pred = s.read().resolve_iri("p").unwrap();
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
        c.refresh_after_update(&[pred], &[], v);
        assert!(s.write().compact_pred_in(target, pred));
        let v = s.bump_version();
        c.claim_version(v);
        c.refresh_after_update(&[], &[(pred, target)], v);

        for (shard, old) in before.iter().enumerate() {
            let (now, ov) = single_rel(&c, &a, true, Some(shard));
            assert!(ov.is_none(), "delta folded");
            if shard == target {
                assert!(!Arc::ptr_eq(old, &now), "folded shard must replace its trie");
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
        c.refresh_after_update(&[pred], &[], v);

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
        c.refresh_after_update(&[], &all_shards(&c, &[q_pred]), v);
        let aq = atom_for(&s.read(), "q");
        assert_eq!(single_rel(&c, &aq, true, None).0.num_tuples(), 1);
    }
}
