//! The in-memory triple store: dictionary + one pair of frozen tries per
//! predicate, hash-partitioned into subject shards.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use eh_trie::{DeltaOverlay, FrozenTrie, LayoutPolicy};

use crate::dict::Dictionary;
use crate::partition::Partitioner;
use crate::term::Term;
use crate::triple::{EncodedTriple, Triple};

/// One (shard, predicate)'s base relation: a frozen trie per attribute
/// order. A trie over one order *is* that order's index (paper §III-A),
/// so the pair is the relation — the store keeps no other copy of it.
#[derive(Debug, Clone)]
pub struct TriePair {
    /// The subject-major `[s, o]` trie.
    pub(crate) so: Arc<FrozenTrie>,
    /// The object-major `[o, s]` trie — always exactly the transpose of
    /// `so`.
    pub(crate) os: Arc<FrozenTrie>,
    /// The `UintOnly` re-freeze of each order, indexed by
    /// `subject_first`: built on first use, gone with the pair.
    uint_only: [OnceLock<Arc<FrozenTrie>>; 2],
}

impl TriePair {
    /// A pair over two frozen tries, `os` the transpose of `so`.
    pub(crate) fn new(so: Arc<FrozenTrie>, os: Arc<FrozenTrie>) -> TriePair {
        TriePair { so, os, uint_only: Default::default() }
    }

    /// Freeze both orders from sorted-unique subject-major pairs, the
    /// object-major one from the same buffer transposed in place.
    fn from_so(mut pairs: Vec<(u32, u32)>) -> TriePair {
        let so = freeze(&pairs);
        transpose_in_place(&mut pairs);
        TriePair::new(so, freeze(&pairs))
    }

    /// Freeze both orders, each given sorted and unique.
    fn from_sorted(so: &[(u32, u32)], os: &[(u32, u32)]) -> TriePair {
        TriePair::new(freeze(so), freeze(os))
    }

    /// The subject-major `[s, o]` trie.
    pub fn so(&self) -> &Arc<FrozenTrie> {
        &self.so
    }

    /// The object-major `[o, s]` trie.
    pub fn os(&self) -> &Arc<FrozenTrie> {
        &self.os
    }

    /// The trie for one attribute order.
    pub fn order(&self, subject_first: bool) -> &Arc<FrozenTrie> {
        if subject_first {
            &self.so
        } else {
            &self.os
        }
    }

    /// One order's trie in the auto layout, or — for the Table I
    /// +Layout ablation — its `UintOnly` re-freeze, built from the auto
    /// trie's tuples on first use and kept as long as this pair. An empty
    /// trie is the same in both layouts.
    pub fn trie(&self, subject_first: bool, auto_layout: bool) -> &Arc<FrozenTrie> {
        let base = self.order(subject_first);
        if auto_layout || base.is_empty() {
            return base;
        }
        self.uint_only[usize::from(subject_first)].get_or_init(|| {
            Arc::new(FrozenTrie::from_sorted(base.to_tuples(), LayoutPolicy::UintOnly))
        })
    }

    /// Number of `(subject, object)` pairs.
    pub fn len(&self) -> usize {
        self.so.num_tuples()
    }

    /// True when the relation holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.so.is_empty()
    }

    /// True when the exact pair is present.
    pub fn contains(&self, s: u32, o: u32) -> bool {
        self.so.contains_prefix(&[s, o])
    }
}

/// The auto-layout trie of sorted-unique pairs.
fn freeze(pairs: &[(u32, u32)]) -> Arc<FrozenTrie> {
    Arc::new(FrozenTrie::from_sorted_pairs(pairs, LayoutPolicy::Auto))
}

/// Flip every pair to `(b, a)` and re-sort.
fn transpose_in_place(pairs: &mut [(u32, u32)]) {
    for p in pairs.iter_mut() {
        *p = (p.1, p.0);
    }
    pairs.sort_unstable();
}

/// True iff `os` holds exactly the transposed tuples of `so` (both
/// binary). Trie sets are strictly increasing, so each trie is a set of
/// distinct tuples: equal counts plus every transposed `os` tuple found
/// in `so` is a bijection — one probe per tuple, no sort.
pub(crate) fn is_transpose(so: &FrozenTrie, os: &FrozenTrie) -> bool {
    so.num_tuples() == os.num_tuples() && os.pairs().all(|(o, s)| so.contains_prefix(&[s, o]))
}

/// An in-memory RDF store in the paper's storage model: every term is
/// dictionary-encoded to a `u32` and triples are vertically partitioned
/// by predicate (§II-A1, §IV-A2), each predicate's relation held as the
/// two frozen tries of a [`TriePair`] and nothing else.
///
/// On top of the vertical partitioning, the store is **hash-partitioned
/// by subject** into `P` shards (see [`Partitioner`]): each shard owns its
/// own slice of every predicate plus its own staged [`PredDelta`]s, while
/// the dictionary is shared store-wide. `P = 1` (the default everywhere)
/// is layout-identical to the unpartitioned store — one shard holding
/// every relation.
///
/// The store's lifecycle has one mechanism per step, and every step ends
/// in frozen tries:
///
/// * **Build** — [`insert`](TripleStore::insert) buffers raw pairs and
///   [`commit`](TripleStore::commit) (or the bulk
///   [`from_triples`](TripleStore::from_triples)) sorts and deduplicates
///   them and freezes both orders of every (shard, predicate), once, on an
///   empty store. Read accessors panic on an uncommitted store to make
///   misuse loud rather than subtly stale.
/// * **Mutate** — [`stage_add_triples`](TripleStore::stage_add_triples)
///   and [`stage_remove_triples`](TripleStore::stage_remove_triples)
///   record a batch as a sorted per-(shard, predicate) [`PredDelta`]
///   (inserts + tombstones) in O(delta) without touching the base tries.
///   This is the only way a built store changes.
/// * **Fold** — [`compact_pred_in`](TripleStore::compact_pred_in) merges
///   one (shard, predicate)'s base trie tuples with its delta and freezes
///   fresh tries off the hot path;
///   [`compact_shard`](TripleStore::compact_shard) folds every delta of a
///   shard and [`compact_all`](TripleStore::compact_all) every shard.
///   Every other relation keeps its `Arc`s.
///
/// Logical accessors ([`num_triples`], [`encoded_triples`], [`stats`])
/// always report the merged view across all shards;
/// [`trie_pair`](TripleStore::trie_pair) exposes one shard's frozen
/// **base** only, with [`shard_delta`](TripleStore::shard_delta) carrying
/// the rest. Cloning a store bumps the tries' `Arc`s and copies only the
/// dictionary and the deltas.
///
/// Staging reports which predicates actually changed, so an index layer
/// can invalidate only what those predicates back. Removal never shrinks
/// the dictionary and leaves emptied relations in place — term keys stay
/// stable for the lifetime of the store.
///
/// [`num_triples`]: TripleStore::num_triples
/// [`encoded_triples`]: TripleStore::encoded_triples
/// [`stats`]: TripleStore::stats
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    dict: Dictionary,
    partitioner: Partitioner,
    /// Registered predicate keys in registration order: a key's position
    /// here is its relation's index in **every** shard.
    preds: Vec<u32>,
    by_pred: HashMap<u32, usize>,
    shards: Vec<StoreShard>,
    /// `P > 1` only: per-predicate distinct-object counts across shards
    /// (objects, unlike subjects, are not disjoint across shards).
    /// Recomputed from the `os` root sets whenever a base relation
    /// changes.
    agg_distinct_objects: HashMap<u32, usize>,
    /// Each predicate's merged root domain across shards (see
    /// [`union_root`](TripleStore::union_root)), aligned with `preds` and
    /// indexed by `subject_first`: built on first use, reset whenever a
    /// batch changes the predicate.
    union_roots: Vec<[OnceLock<Arc<Vec<u32>>>; 2]>,
    pending: HashMap<u32, Vec<(u32, u32)>>,
    n_pending: usize,
}

/// One subject-hash shard: its slice of every predicate's base relation
/// plus its staged deltas. Relation indices align across shards.
#[derive(Debug, Default, Clone)]
struct StoreShard {
    rels: Vec<TriePair>,
    deltas: HashMap<u32, PredDelta>,
}

/// Staged, uncompacted mutations for one predicate within one shard:
/// sorted insert pairs disjoint from the shard's base relation and sorted
/// tombstone pairs resident in it. Both slices are subject-major
/// `(s, o)`; [`overlay`](PredDelta::overlay) serves either order.
#[derive(Debug, Default, Clone)]
pub struct PredDelta {
    ins: Vec<(u32, u32)>,
    del: Vec<(u32, u32)>,
    /// The delta as each order's overlay, indexed by `subject_first`:
    /// built on first use, dropped whenever staging changes the delta.
    overlays: [OnceLock<Arc<DeltaOverlay>>; 2],
}

impl PredDelta {
    /// Staged insert pairs, sorted `(s, o)`, none resident in the base.
    pub fn ins_pairs(&self) -> &[(u32, u32)] {
        &self.ins
    }

    /// Staged tombstone pairs, sorted `(s, o)`, all resident in the base.
    pub fn del_pairs(&self) -> &[(u32, u32)] {
        &self.del
    }

    /// Total staged pairs (inserts + tombstones).
    pub fn len(&self) -> usize {
        self.ins.len() + self.del.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }

    /// This delta as one order's [`DeltaOverlay`], built on first use and
    /// kept until staging changes the delta or compaction folds it. The
    /// object-major overlay transposes and re-sorts the pairs — O(delta
    /// log delta), and deltas are small by the compaction threshold.
    pub fn overlay(&self, subject_first: bool) -> &Arc<DeltaOverlay> {
        self.overlays[usize::from(subject_first)].get_or_init(|| {
            if subject_first {
                return Arc::new(DeltaOverlay::from_pairs(&self.ins, &self.del));
            }
            let (mut ins, mut del) = (self.ins.clone(), self.del.clone());
            transpose_in_place(&mut ins);
            transpose_in_place(&mut del);
            Arc::new(DeltaOverlay::from_pairs(&ins, &del))
        })
    }
}

/// Three-way linear merge `(base − del) ∪ ins` of a binary trie's tuples
/// with sorted-unique pair slices — the compaction kernel, O(base +
/// delta).
fn merge_pairs(base: &FrozenTrie, del: &[(u32, u32)], ins: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(base.num_tuples() + ins.len());
    let mut di = del.iter().peekable();
    let mut ii = ins.iter().peekable();
    for pair in base.pairs() {
        while di.next_if(|&&d| d < pair).is_some() {}
        if di.next_if(|&&d| d == pair).is_some() {
            continue;
        }
        while let Some(&&i) = ii.peek() {
            if i < pair {
                out.push(i);
                ii.next();
            } else {
                break;
            }
        }
        if ii.next_if(|&&i| i == pair).is_some() {
            // Invariant says ins ∩ base = ∅; stay set-semantic anyway.
        }
        out.push(pair);
    }
    out.extend(ii.copied());
    out
}

/// Summary statistics for a committed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct triples across all predicates.
    pub triples: usize,
    /// Number of predicates (= vertically partitioned relations).
    pub predicates: usize,
    /// Distinct dictionary-encoded terms.
    pub terms: usize,
}

/// Per-shard summary statistics, for skew observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Distinct triples in this shard's **logical** (delta-merged) view.
    pub triples: usize,
    /// Staged pairs (inserts + tombstones) across this shard's deltas.
    pub staged_pairs: usize,
    /// Arena bytes of this shard's resident base tries (both orders of
    /// every predicate).
    pub arena_bytes: usize,
}

/// What a mutation actually changed, in dictionary-encoded terms.
///
/// "Actually" is load-bearing: inserting a resident triple or deleting an
/// absent one changes nothing and is not reported, so downstream index
/// invalidation stays proportional to real change, not batch size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Pairs newly added across all predicates.
    pub added: usize,
    /// Pairs removed across all predicates.
    pub removed: usize,
    /// Keys of predicates whose relations changed, sorted ascending.
    pub changed_preds: Vec<u32>,
}

impl UpdateReport {
    /// True when the mutation was a no-op on the relations' contents.
    pub fn is_empty(&self) -> bool {
        self.changed_preds.is_empty()
    }

    /// Fold another report into this one (counts add, predicate sets
    /// union).
    pub fn merge(&mut self, other: UpdateReport) {
        self.added += other.added;
        self.removed += other.removed;
        self.changed_preds.extend(other.changed_preds);
        self.changed_preds.sort_unstable();
        self.changed_preds.dedup();
    }
}

/// Aggregate per-predicate statistics that are **partition-invariant**:
/// the same numbers whether the store holds one shard or many, so the
/// planner's cardinality heuristics (and therefore the chosen plans) do
/// not depend on `P`. All of them read trie set lengths: subjects are
/// disjoint across shards (sums of `so` root lengths are exact); distinct
/// objects come from the store's cross-shard count.
#[derive(Debug, Clone, Copy)]
pub struct PredCard<'a> {
    store: &'a TripleStore,
    idx: usize,
    pred: u32,
}

impl PredCard<'_> {
    fn rels(&self) -> impl Iterator<Item = &TriePair> + '_ {
        self.store.shards.iter().map(|sh| &sh.rels[self.idx])
    }

    /// Base pairs across all shards (deltas excluded, like the `P = 1`
    /// base view the planner always used).
    pub fn len(&self) -> usize {
        self.rels().map(TriePair::len).sum()
    }

    /// True when every shard's base relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct subjects across all shards (disjoint by construction).
    pub fn distinct_subjects(&self) -> usize {
        self.rels().map(|r| r.so.root_set().len()).sum()
    }

    /// Distinct objects across all shards (deduplicated cross-shard).
    pub fn distinct_objects(&self) -> usize {
        if self.store.partitions() == 1 {
            self.store.shards[0].rels[self.idx].os.root_set().len()
        } else {
            self.store.agg_distinct_objects.get(&self.pred).copied().unwrap_or(0)
        }
    }

    /// Base pairs with the given subject — served by exactly the shard
    /// that owns it.
    pub fn matches_for_subject(&self, s: u32) -> usize {
        let shard = self.store.partitioner.shard_of(s);
        self.store.shards[shard].rels[self.idx].so.fanout(s)
    }

    /// Base pairs with the given object, summed across shards.
    pub fn matches_for_object(&self, o: u32) -> usize {
        self.rels().map(|r| r.os.fanout(o)).sum()
    }
}

impl TripleStore {
    /// An empty single-shard store.
    pub fn new() -> TripleStore {
        TripleStore::with_partitions(1)
    }

    /// An empty store hash-partitioned into `max(1, partitions)` subject
    /// shards.
    pub fn with_partitions(partitions: usize) -> TripleStore {
        let partitioner = Partitioner::new(partitions);
        TripleStore {
            dict: Dictionary::default(),
            partitioner,
            preds: Vec::new(),
            by_pred: HashMap::new(),
            shards: vec![StoreShard::default(); partitioner.partitions()],
            agg_distinct_objects: HashMap::new(),
            union_roots: Vec::new(),
            pending: HashMap::new(),
            n_pending: 0,
        }
    }

    /// Bulk-build a committed single-shard store.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> TripleStore {
        TripleStore::from_triples_partitioned(triples, 1)
    }

    /// Bulk-build a committed store hash-partitioned into `partitions`
    /// subject shards.
    pub fn from_triples_partitioned(
        triples: impl IntoIterator<Item = Triple>,
        partitions: usize,
    ) -> TripleStore {
        let mut store = TripleStore::with_partitions(partitions);
        for t in triples {
            store.insert(t);
        }
        store.commit();
        store
    }

    /// Reassemble a committed partitioned store from per-shard snapshot
    /// parts plus the persisted per-predicate cross-shard distinct-object
    /// counts. Every shard must hold one relation per registered
    /// predicate — checked here. Relation contents (ids in the
    /// dictionary, subjects in their shard, `os` the transpose of `so`)
    /// and the distinct-object claims are the *caller's* contract,
    /// verified by the snapshot decoder (the only untrusted input path)
    /// inside its parallel per-shard pass, so reassembly replays no
    /// store-wide sweep.
    pub(crate) fn from_partitioned_parts(
        terms: Vec<Term>,
        partitions: usize,
        preds: Vec<u32>,
        shard_rels: Vec<Vec<TriePair>>,
        agg_distinct_objects: HashMap<u32, usize>,
    ) -> Result<TripleStore, &'static str> {
        let partitioner = Partitioner::new(partitions);
        if shard_rels.len() != partitioner.partitions() {
            return Err("shard count does not match partition count");
        }
        if shard_rels.iter().any(|rels| rels.len() != preds.len()) {
            return Err("shards register different predicate counts");
        }
        let by_pred: HashMap<u32, usize> = preds.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let agg_distinct_objects =
            if partitioner.partitions() > 1 { agg_distinct_objects } else { HashMap::new() };
        Ok(TripleStore {
            union_roots: vec![Default::default(); preds.len()],
            dict: Dictionary::from_terms(terms),
            partitioner,
            preds,
            by_pred,
            shards: shard_rels
                .into_iter()
                .map(|rels| StoreShard { rels, deltas: HashMap::new() })
                .collect(),
            agg_distinct_objects,
            pending: HashMap::new(),
            n_pending: 0,
        })
    }

    /// Buffer one triple of the bulk build (call
    /// [`commit`](TripleStore::commit) before reading).
    ///
    /// # Panics
    /// Panics on a store that already has relations: a built store
    /// changes only through `stage_*` + `compact_*`.
    pub fn insert(&mut self, t: Triple) {
        assert!(
            self.by_pred.is_empty(),
            "insert() on a built store: mutate it with stage_add_triples / stage_remove_triples"
        );
        let s = self.dict.encode(&t.s);
        let p = self.dict.encode(&t.p);
        let o = self.dict.encode(&t.o);
        self.pending.entry(p).or_default().push((s, o));
        self.n_pending += 1;
    }

    /// The bulk build: sort and deduplicate all buffered pairs and freeze
    /// both orders of every predicate, split across the shards.
    pub fn commit(&mut self) {
        // Drain in predicate-key order, not HashMap order: registration
        // order must be deterministic so two stores built from the same
        // triples are identical regardless of hasher seeds (the
        // partition-determinism matrix compares across instances).
        let mut pending: Vec<(u32, Vec<(u32, u32)>)> =
            std::mem::take(&mut self.pending).into_iter().collect();
        pending.sort_unstable_by_key(|&(p, _)| p);
        self.n_pending = 0;
        for (p, mut pairs) in pending {
            pairs.sort_unstable();
            pairs.dedup();
            let idx = self.register_pred(p);
            let mut split = vec![Vec::new(); self.shards.len()];
            if let [only] = split.as_mut_slice() {
                *only = pairs;
            } else {
                for pair in pairs {
                    split[self.partitioner.shard_of(pair.0)].push(pair);
                }
            }
            for (sh, mine) in self.shards.iter_mut().zip(split) {
                sh.rels[idx] = TriePair::from_so(mine);
            }
            self.recompute_agg(p);
        }
    }

    /// Register a predicate: every shard gets an (initially empty)
    /// relation at the same index. Returns that index.
    fn register_pred(&mut self, p: u32) -> usize {
        let idx = self.preds.len();
        let empty = TriePair::from_so(Vec::new());
        for sh in &mut self.shards {
            sh.rels.push(empty.clone());
        }
        self.preds.push(p);
        self.by_pred.insert(p, idx);
        self.union_roots.push(Default::default());
        idx
    }

    /// Recompute the cross-shard distinct-object count for one predicate
    /// by merging the shards' `os` root sets (only maintained when
    /// partitioned; `P = 1` reads its one root set). Called only from
    /// paths that just froze a base relation at greater cost.
    fn recompute_agg(&mut self, pred: u32) {
        if self.partitions() == 1 {
            return;
        }
        let Some(&idx) = self.by_pred.get(&pred) else { return };
        let mut objects: Vec<u32> =
            self.shards.iter().flat_map(|sh| sh.rels[idx].os.root_set().iter()).collect();
        objects.sort_unstable();
        objects.dedup();
        self.agg_distinct_objects.insert(pred, objects.len());
    }

    /// Stage an insert batch as per-(shard, predicate) deltas without
    /// freezing any base trie: O(delta) in the batch, not the predicate.
    /// New terms grow the dictionary; a new predicate gets an empty base
    /// relation in every shard (so its key is stable) with the pairs
    /// staged as inserts. Each pair routes to the single shard its
    /// subject hashes to. Inserting a tombstoned pair cancels the
    /// tombstone; inserting a resident or already-staged pair is a no-op.
    /// The report counts real logical change only.
    ///
    /// # Panics
    /// Panics when called on an uncommitted store.
    pub fn stage_add_triples(&mut self, triples: impl IntoIterator<Item = Triple>) -> UpdateReport {
        self.assert_committed();
        let mut report = UpdateReport::default();
        for t in triples {
            let s = self.dict.encode(&t.s);
            let p = self.dict.encode(&t.p);
            let o = self.dict.encode(&t.o);
            let idx = match self.by_pred.get(&p) {
                Some(&idx) => idx,
                None => self.register_pred(p),
            };
            let pair = (s, o);
            let sh = &mut self.shards[self.partitioner.shard_of(s)];
            let d = sh.deltas.entry(p).or_default();
            if let Ok(at) = d.del.binary_search(&pair) {
                d.del.remove(at); // insert cancels the tombstone
            } else if sh.rels[idx].contains(s, o) || d.ins.binary_search(&pair).is_ok() {
                continue;
            } else if let Err(at) = d.ins.binary_search(&pair) {
                d.ins.insert(at, pair);
            }
            d.overlays = Default::default();
            report.added += 1;
            report.changed_preds.push(p);
        }
        self.finish_staging(&mut report);
        report
    }

    /// Stage a delete batch as per-(shard, predicate) tombstones without
    /// freezing any base trie: O(delta) in the batch. Deleting a staged
    /// insert cancels it; deleting an absent pair (or a triple naming
    /// unknown terms or predicates) is a no-op — such a triple cannot be
    /// resident. The report counts real logical change only.
    ///
    /// # Panics
    /// Panics when called on an uncommitted store.
    pub fn stage_remove_triples(
        &mut self,
        triples: impl IntoIterator<Item = Triple>,
    ) -> UpdateReport {
        self.assert_committed();
        let mut report = UpdateReport::default();
        for t in triples {
            let (Some(s), Some(p), Some(o)) =
                (self.dict.lookup(&t.s), self.dict.lookup(&t.p), self.dict.lookup(&t.o))
            else {
                continue;
            };
            let Some(&idx) = self.by_pred.get(&p) else {
                continue;
            };
            let pair = (s, o);
            let sh = &mut self.shards[self.partitioner.shard_of(s)];
            let d = sh.deltas.entry(p).or_default();
            if let Ok(at) = d.ins.binary_search(&pair) {
                d.ins.remove(at); // delete cancels the staged insert
            } else if sh.rels[idx].contains(s, o) {
                match d.del.binary_search(&pair) {
                    Ok(_) => continue, // already tombstoned
                    Err(at) => d.del.insert(at, pair),
                }
            } else {
                continue;
            }
            d.overlays = Default::default();
            report.removed += 1;
            report.changed_preds.push(p);
        }
        self.finish_staging(&mut report);
        report
    }

    /// Drop delta entries that cancelled out to nothing, reset the
    /// changed predicates' union roots and canonicalise the report.
    fn finish_staging(&mut self, report: &mut UpdateReport) {
        for sh in &mut self.shards {
            sh.deltas.retain(|_, d| !d.is_empty());
        }
        report.changed_preds.sort_unstable();
        report.changed_preds.dedup();
        for p in &report.changed_preds {
            self.union_roots[self.by_pred[p]] = Default::default();
        }
    }

    /// The staged delta for a predicate within one shard, if any.
    pub fn shard_delta(&self, shard: usize, pred: u32) -> Option<&PredDelta> {
        self.shards[shard].deltas.get(&pred)
    }

    /// Staged pairs for one predicate within one shard.
    pub fn shard_delta_len(&self, shard: usize, pred: u32) -> usize {
        self.shards[shard].deltas.get(&pred).map_or(0, PredDelta::len)
    }

    /// True when any shard has staged deltas.
    pub fn has_deltas(&self) -> bool {
        self.shards.iter().any(|sh| !sh.deltas.is_empty())
    }

    /// Total staged pairs across all shards and predicates (the overlay's
    /// memory bound, up to constant factors).
    pub fn staged_pairs(&self) -> usize {
        self.shards.iter().map(StoreShard::staged_pairs).sum()
    }

    /// Fold one predicate's staged delta within **one** shard — the
    /// shard-local compaction primitive: per order, one linear merge of
    /// the base trie's tuples with the delta, then one freeze. Other
    /// shards' relations and overlays are untouched.
    pub fn compact_pred_in(&mut self, shard: usize, pred: u32) -> bool {
        let Some(d) = self.shards[shard].deltas.remove(&pred) else {
            return false;
        };
        let idx = self.by_pred[&pred];
        let old = &self.shards[shard].rels[idx];
        let so = merge_pairs(&old.so, &d.del, &d.ins);
        let (mut del, mut ins) = (d.del, d.ins);
        transpose_in_place(&mut del);
        transpose_in_place(&mut ins);
        let os = merge_pairs(&old.os, &del, &ins);
        self.shards[shard].rels[idx] = TriePair::from_sorted(&so, &os);
        self.recompute_agg(pred);
        true
    }

    /// Fold every staged delta in every shard into its base relation,
    /// returning the compacted predicate keys sorted ascending.
    pub fn compact_all(&mut self) -> Vec<u32> {
        let mut preds: Vec<u32> =
            (0..self.shards.len()).flat_map(|shard| self.compact_shard(shard)).collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// Fold every staged delta within one shard, returning that shard's
    /// compacted predicate keys sorted ascending.
    pub fn compact_shard(&mut self, shard: usize) -> Vec<u32> {
        let mut preds: Vec<u32> = self.shards[shard].deltas.keys().copied().collect();
        preds.sort_unstable();
        for &p in &preds {
            self.compact_pred_in(shard, p);
        }
        preds
    }

    fn assert_committed(&self) {
        assert!(
            self.pending.is_empty(),
            "TripleStore read before commit(): {} pending pairs",
            self.n_pending
        );
    }

    /// The term dictionary (shared store-wide; shards never own terms).
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Encode a term, assigning a fresh key if unseen. Exposed for query
    /// frontends that need ids for constants before running.
    pub fn encode_term(&mut self, t: &Term) -> u32 {
        self.dict.encode(t)
    }

    /// Dictionary key of an IRI, if present.
    pub fn resolve_iri(&self, iri: &str) -> Option<u32> {
        self.dict.lookup_iri(iri)
    }

    /// Number of subject-hash shards (≥ 1).
    pub fn partitions(&self) -> usize {
        self.partitioner.partitions()
    }

    /// The subject → shard map.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Registered predicate keys, in registration order (the order every
    /// shard holds its relations in).
    pub(crate) fn preds(&self) -> &[u32] {
        &self.preds
    }

    /// One shard's base relation for a predicate key: its two frozen
    /// tries (deltas excluded — see [`shard_delta`](TripleStore::shard_delta)).
    /// `None` for an unknown predicate or a shard past the partition
    /// count.
    pub fn trie_pair(&self, shard: usize, pred: u32) -> Option<&TriePair> {
        self.assert_committed();
        Some(&self.shards.get(shard)?.rels[*self.by_pred.get(&pred)?])
    }

    /// A predicate's merged root domain across every shard, in one
    /// order: the union of each shard's base root set with that shard's
    /// staged overlay applied. Subject-major roots are disjoint across
    /// shards (subjects hash to exactly one); object-major roots overlap,
    /// and sort + dedup restores the `P = 1` root set either way. Built
    /// on first use and kept until a batch changes the predicate: the
    /// domain is a function of the logical relation, which compaction and
    /// repartition only move between base, delta and shards.
    pub fn union_root(&self, pred: u32, subject_first: bool) -> Option<&Arc<Vec<u32>>> {
        let idx = *self.by_pred.get(&pred)?;
        Some(self.union_roots[idx][usize::from(subject_first)].get_or_init(|| {
            let mut root: Vec<u32> = Vec::new();
            for sh in &self.shards {
                let base = sh.rels[idx].order(subject_first);
                match sh.deltas.get(&pred) {
                    Some(d) => root.extend_from_slice(d.overlay(subject_first).root(base)),
                    None => root.extend(base.root_set().iter()),
                }
            }
            root.sort_unstable();
            root.dedup();
            Arc::new(root)
        }))
    }

    /// One shard's base relations, in registration order.
    pub(crate) fn shard_rels(&self, shard: usize) -> &[TriePair] {
        &self.shards[shard].rels
    }

    /// Partition-invariant cardinality statistics for a predicate IRI
    /// (the planner's view — identical numbers at every `P`).
    pub fn pred_card(&self, iri: &str) -> Option<PredCard<'_>> {
        self.card_of(self.resolve_iri(iri)?)
    }

    /// [`pred_card`](TripleStore::pred_card) by predicate key.
    pub(crate) fn card_of(&self, pred: u32) -> Option<PredCard<'_>> {
        self.assert_committed();
        let idx = *self.by_pred.get(&pred)?;
        Some(PredCard { store: self, idx, pred })
    }

    /// Logical (delta-merged) pairs for a predicate across all shards.
    pub fn pred_logical_len(&self, pred: u32) -> usize {
        self.assert_committed();
        self.by_pred
            .get(&pred)
            .map_or(0, |&i| self.shards.iter().map(|sh| sh.logical_len(i, pred)).sum())
    }

    /// Total distinct triples in the **logical** (delta-merged) view,
    /// across all shards.
    pub fn num_triples(&self) -> usize {
        self.assert_committed();
        self.shards.iter().map(|sh| sh.logical_triples(&self.preds)).sum()
    }

    /// Per-shard logical sizes and resident arena bytes, for skew
    /// observability.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.assert_committed();
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, sh)| ShardStats {
                shard,
                triples: sh.logical_triples(&self.preds),
                staged_pairs: sh.staged_pairs(),
                arena_bytes: sh.rels.iter().map(|r| r.so.arena_bytes() + r.os.arena_bytes()).sum(),
            })
            .collect()
    }

    /// Iterate every triple of the **logical** (delta-merged) view in
    /// encoded form, predicate-major order; within a predicate, pairs are
    /// sorted `(s, o)` across shards. Each predicate's pairs are read off
    /// its `so` tries (merged with any staged delta) into one buffer.
    pub fn encoded_triples(&self) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.assert_committed();
        self.preds.iter().enumerate().flat_map(move |(idx, &p)| {
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for sh in &self.shards {
                let so = &sh.rels[idx].so;
                match sh.deltas.get(&p) {
                    None => pairs.extend(so.pairs()),
                    Some(d) => pairs.extend(merge_pairs(so, &d.del, &d.ins)),
                }
            }
            if self.shards.len() > 1 {
                pairs.sort_unstable();
            }
            pairs.into_iter().map(move |(s, o)| EncodedTriple { s, p, o })
        })
    }

    /// Decode an encoded triple back to terms.
    pub fn decode_triple(&self, t: EncodedTriple) -> Triple {
        Triple::new(
            self.dict.decode(t.s).clone(),
            self.dict.decode(t.p).clone(),
            self.dict.decode(t.o).clone(),
        )
    }

    /// Summary statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            triples: self.num_triples(),
            predicates: self.preds.len(),
            terms: self.dict.len(),
        }
    }

    /// Redistribute the store across `max(1, partitions)` subject shards.
    /// Staged deltas are folded first (their routing would change), then
    /// every predicate's tuples are read off the old shards' tries,
    /// re-split by the new hash and frozen again. The logical contents
    /// are unchanged; only placement moves. O(store).
    pub fn repartition(&mut self, partitions: usize) {
        self.assert_committed();
        self.compact_all();
        let partitioner = Partitioner::new(partitions);
        if partitioner == self.partitioner {
            return;
        }
        let mut new_shards = vec![StoreShard::default(); partitioner.partitions()];
        for idx in 0..self.preds.len() {
            // Gather each order across the old shards (concatenate +
            // sort: each shard's tuples are sorted, the union is not).
            let mut so: Vec<(u32, u32)> = Vec::new();
            let mut os: Vec<(u32, u32)> = Vec::new();
            for sh in &self.shards {
                so.extend(sh.rels[idx].so.pairs());
                os.extend(sh.rels[idx].os.pairs());
            }
            so.sort_unstable();
            os.sort_unstable();
            for (shard, new_sh) in new_shards.iter_mut().enumerate() {
                let so_mine: Vec<(u32, u32)> =
                    so.iter().copied().filter(|&(s, _)| partitioner.shard_of(s) == shard).collect();
                let os_mine: Vec<(u32, u32)> =
                    os.iter().copied().filter(|&(_, s)| partitioner.shard_of(s) == shard).collect();
                new_sh.rels.push(TriePair::from_sorted(&so_mine, &os_mine));
            }
        }
        self.partitioner = partitioner;
        self.shards = new_shards;
        self.agg_distinct_objects.clear();
        for p in self.preds.clone() {
            self.recompute_agg(p);
        }
    }
}

impl StoreShard {
    /// Logical pairs of the relation at `idx` (predicate `pred`).
    fn logical_len(&self, idx: usize, pred: u32) -> usize {
        let (ins, del) = self.deltas.get(&pred).map_or((0, 0), |d| (d.ins.len(), d.del.len()));
        self.rels[idx].len() + ins - del
    }

    fn logical_triples(&self, preds: &[u32]) -> usize {
        preds.iter().enumerate().map(|(idx, &p)| self.logical_len(idx, p)).sum()
    }

    fn staged_pairs(&self) -> usize {
        self.deltas.values().map(PredDelta::len).sum()
    }
}

impl TripleStore {
    #[doc(hidden)]
    pub fn __invariant_check(&self) -> bool {
        // Registration alignment: every shard holds a relation for every
        // registered predicate, at the same index.
        if self.shards.is_empty()
            || self.by_pred.len() != self.preds.len()
            || self.preds.iter().enumerate().any(|(i, p)| self.by_pred.get(p) != Some(&i))
            || self.shards.iter().any(|sh| sh.rels.len() != self.preds.len())
        {
            return false;
        }
        for (shard, sh) in self.shards.iter().enumerate() {
            // Subject affinity (every base subject lives in the shard it
            // hashes to) and one relation behind both orders.
            let ok = sh.rels.iter().all(|r| {
                r.so.root_set().iter().all(|s| self.partitioner.shard_of(s) == shard)
                    && is_transpose(&r.so, &r.os)
            });
            if !ok {
                return false;
            }
            // Staged deltas: sorted-unique, anchored to a real relation,
            // routed to this shard, with del ⊆ base and ins ∩ base = ∅
            // (and therefore non-empty).
            let ok = sh.deltas.iter().all(|(&p, d)| {
                let Some(&idx) = self.by_pred.get(&p) else {
                    return false;
                };
                let r = &sh.rels[idx];
                !d.is_empty()
                    && d.ins.windows(2).all(|w| w[0] < w[1])
                    && d.del.windows(2).all(|w| w[0] < w[1])
                    && d.del.iter().all(|&(s, o)| r.contains(s, o))
                    && d.ins.iter().all(|&(s, o)| !r.contains(s, o))
                    && d.ins
                        .iter()
                        .chain(&d.del)
                        .all(|&(s, _)| self.partitioner.shard_of(s) == shard)
            });
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// The `P = 1` base relation of a predicate IRI.
    fn rel<'a>(store: &'a TripleStore, iri: &str) -> &'a TriePair {
        store.trie_pair(0, store.resolve_iri(iri).unwrap()).unwrap()
    }

    #[test]
    fn bulk_build_and_stats() {
        let store = TripleStore::from_triples(vec![
            t("s1", "p1", "o1"),
            t("s1", "p1", "o1"), // duplicate collapses
            t("s2", "p1", "o1"),
            t("s1", "p2", "o2"),
        ]);
        let stats = store.stats();
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.predicates, 2);
        let p1 = rel(&store, "p1");
        assert_eq!(p1.len(), 2);
        let [s1, s2, o1] = ["s1", "s2", "o1"].map(|iri| store.resolve_iri(iri).unwrap());
        assert_eq!(p1.so.pairs().collect::<Vec<_>>(), vec![(s1, o1), (s2, o1)]);
        assert_eq!(p1.os.pairs().collect::<Vec<_>>(), vec![(o1, s1), (o1, s2)]);
        assert!(store.__invariant_check());
    }

    #[test]
    #[should_panic(expected = "insert() on a built store")]
    fn insert_into_a_built_store_is_rejected() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b")]);
        store.insert(t("c", "p", "d"));
    }

    #[test]
    #[should_panic(expected = "before commit")]
    fn reading_uncommitted_panics() {
        let mut store = TripleStore::new();
        store.insert(t("a", "p", "b"));
        let _ = store.num_triples();
    }

    #[test]
    fn encoded_roundtrip() {
        let store = TripleStore::from_triples(vec![t("s", "p", "o")]);
        let enc: Vec<_> = store.encoded_triples().collect();
        assert_eq!(enc.len(), 1);
        assert_eq!(store.decode_triple(enc[0]), t("s", "p", "o"));
    }

    #[test]
    fn resolve_and_trie_pair_lookup() {
        let store = TripleStore::from_triples(vec![t("s", "p", "o")]);
        let pid = store.resolve_iri("p").unwrap();
        let (s, o) = (store.resolve_iri("s").unwrap(), store.resolve_iri("o").unwrap());
        let pair = store.trie_pair(0, pid).unwrap();
        assert!(pair.contains(s, o) && !pair.contains(o, s));
        assert!(store.resolve_iri("absent").is_none());
        assert!(store.trie_pair(0, 9999).is_none());
    }

    #[test]
    fn commit_on_empty_is_noop() {
        let mut store = TripleStore::new();
        store.commit();
        assert_eq!(store.num_triples(), 0);
        assert!(store.__invariant_check());
    }

    #[test]
    fn update_report_merge_unions_predicates() {
        let mut a = UpdateReport { added: 1, removed: 0, changed_preds: vec![1, 3] };
        a.merge(UpdateReport { added: 2, removed: 4, changed_preds: vec![2, 3] });
        assert_eq!(a, UpdateReport { added: 3, removed: 4, changed_preds: vec![1, 2, 3] });
    }

    #[test]
    fn staging_reports_real_change_and_leaves_base_tries_alone() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b"), t("c", "p", "d")]);
        let p = store.resolve_iri("p").unwrap();
        let base = rel(&store, "p").clone();
        let report = store.stage_add_triples(vec![
            t("a", "p", "b"), // resident: no-op
            t("x", "p", "y"), // new pair
            t("m", "q", "n"), // brand-new predicate
        ]);
        let q = store.resolve_iri("q").unwrap();
        assert_eq!(report.added, 2);
        assert_eq!(report.changed_preds, {
            let mut v = vec![p, q];
            v.sort_unstable();
            v
        });
        // Base tries untouched (the very same Arcs); logical view merged.
        assert!(Arc::ptr_eq(&rel(&store, "p").so, &base.so));
        assert!(Arc::ptr_eq(&rel(&store, "p").os, &base.os));
        assert!(rel(&store, "q").is_empty());
        assert_eq!(store.num_triples(), 4);
        assert_eq!(store.shard_delta_len(0, p), 1);
        assert_eq!(store.staged_pairs(), 2);
        assert!(store.has_deltas());
        assert!(store.__invariant_check());

        let report = store.stage_remove_triples(vec![
            t("a", "p", "b"), // resident: tombstone
            t("x", "p", "y"), // staged insert: cancels
            t("z", "p", "z"), // absent: no-op
        ]);
        assert_eq!(report.removed, 2);
        assert_eq!(report.changed_preds, vec![p]);
        assert_eq!(store.num_triples(), 2);
        assert_eq!(store.shard_delta(0, p).unwrap().del_pairs().len(), 1);
        assert!(store.shard_delta(0, p).unwrap().ins_pairs().is_empty());
        assert!(store.__invariant_check());

        // Re-inserting the tombstoned pair cancels the tombstone and the
        // delta evaporates entirely.
        let report = store.stage_add_triples(vec![t("a", "p", "b")]);
        assert_eq!(report.added, 1);
        assert!(store.shard_delta(0, p).is_none());
        assert_eq!(store.shard_delta_len(0, q), 1);
        assert_eq!(store.staged_pairs(), 1, "only q's insert is left staged");
        assert_eq!(store.num_triples(), 3);
    }

    #[test]
    fn staged_noops_report_empty() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b")]);
        let report = store.stage_add_triples(vec![t("a", "p", "b")]);
        assert!(report.is_empty());
        let report = store.stage_remove_triples(vec![t("z", "p", "z"), t("a", "nosuch", "b")]);
        assert!(report.is_empty());
        assert!(!store.has_deltas());
    }

    #[test]
    fn compaction_preserves_logical_contents() {
        let mut store =
            TripleStore::from_triples(vec![t("a", "p", "b"), t("c", "p", "d"), t("e", "q", "f")]);
        let p = store.resolve_iri("p").unwrap();
        store.stage_add_triples(vec![t("x", "p", "y"), t("g", "q", "h")]);
        store.stage_remove_triples(vec![t("c", "p", "d")]);
        let logical: Vec<_> = store.encoded_triples().collect();
        let compacted = store.compact_all();
        assert_eq!(compacted.len(), 2);
        assert!(compacted.contains(&p));
        assert!(!store.has_deltas());
        let after: Vec<_> = store.encoded_triples().collect();
        assert_eq!(logical, after);
        // Compacted tries are fully coherent (os order included).
        assert_eq!(rel(&store, "p").len(), 2);
        let y = store.resolve_iri("y").unwrap();
        assert_eq!(store.pred_card("p").unwrap().matches_for_object(y), 1);
        assert!(store.__invariant_check());
    }

    #[test]
    fn compaction_replaces_only_the_folded_relation() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b"), t("e", "q", "f")]);
        let (p_before, q_before) = (rel(&store, "p").clone(), rel(&store, "q").clone());
        store.stage_add_triples(vec![t("x", "p", "y")]);
        store.compact_all();
        assert!(!Arc::ptr_eq(&rel(&store, "p").so, &p_before.so));
        assert!(!Arc::ptr_eq(&rel(&store, "p").os, &p_before.os));
        assert!(Arc::ptr_eq(&rel(&store, "q").so, &q_before.so));
        assert!(Arc::ptr_eq(&rel(&store, "q").os, &q_before.os));
    }

    #[test]
    fn staged_store_clones_share_tries_and_carry_their_deltas() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b")]);
        store.stage_add_triples(vec![t("x", "p", "y")]);
        let clone = store.clone();
        assert_eq!(clone.staged_pairs(), 1);
        assert!(Arc::ptr_eq(&rel(&clone, "p").so, &rel(&store, "p").so));
        assert_eq!(
            clone.encoded_triples().collect::<Vec<_>>(),
            store.encoded_triples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn add_then_remove_roundtrips_to_original_contents() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b")]);
        let before: Vec<_> = store.encoded_triples().collect();
        store.stage_add_triples(vec![t("x", "p", "y"), t("x", "r", "y")]);
        store.compact_all();
        store.stage_remove_triples(vec![t("x", "p", "y"), t("x", "r", "y")]);
        store.compact_all();
        let after: Vec<_> = store.encoded_triples().collect();
        assert_eq!(before, after);
        // The emptied relation stays registered: predicate keys are stable.
        assert!(rel(&store, "r").is_empty());
        assert_eq!(store.stats().predicates, 2);
        assert!(store.__invariant_check());
    }

    // ------------------------------------------------------ partitioning

    fn sample_triples() -> Vec<Triple> {
        let mut v = Vec::new();
        for i in 0..40u32 {
            v.push(t(&format!("s{i}"), "p", &format!("o{}", i % 7)));
            if i % 3 == 0 {
                v.push(t(&format!("s{i}"), "q", "shared"));
            }
        }
        v
    }

    #[test]
    fn partitioned_build_matches_logical_view() {
        let reference = TripleStore::from_triples(sample_triples());
        let logical: Vec<_> = reference.encoded_triples().collect();
        for partitions in [1, 2, 4] {
            let store = TripleStore::from_triples_partitioned(sample_triples(), partitions);
            assert_eq!(store.partitions(), partitions);
            assert_eq!(store.num_triples(), reference.num_triples(), "P={partitions}");
            assert_eq!(store.encoded_triples().collect::<Vec<_>>(), logical, "P={partitions}");
            assert!(store.__invariant_check(), "P={partitions}");
        }
    }

    #[test]
    fn pred_card_is_partition_invariant() {
        let reference = TripleStore::from_triples(sample_triples());
        let rc = reference.pred_card("p").unwrap();
        let (len, ds, dobj) = (rc.len(), rc.distinct_subjects(), rc.distinct_objects());
        assert_eq!((len, ds, dobj), (40, 40, 7));
        let s3 = reference.resolve_iri("s3").unwrap();
        let o1 = reference.resolve_iri("o1").unwrap();
        let (ms, mo) = (rc.matches_for_subject(s3), rc.matches_for_object(o1));
        assert_eq!((ms, mo), (1, 6));
        for partitions in [2, 4] {
            let store = TripleStore::from_triples_partitioned(sample_triples(), partitions);
            let c = store.pred_card("p").unwrap();
            assert_eq!(c.len(), len, "P={partitions}");
            assert_eq!(c.distinct_subjects(), ds, "P={partitions}");
            assert_eq!(c.distinct_objects(), dobj, "P={partitions}");
            assert_eq!(c.matches_for_subject(s3), ms, "P={partitions}");
            assert_eq!(c.matches_for_object(o1), mo, "P={partitions}");
        }
    }

    #[test]
    fn partitioned_staging_routes_by_subject_and_compacts_shard_locally() {
        let mut store = TripleStore::from_triples_partitioned(sample_triples(), 4);
        let p = store.resolve_iri("p").unwrap();
        let before = store.num_triples();
        store.stage_add_triples(vec![t("new1", "p", "x"), t("new2", "p", "x")]);
        store.stage_remove_triples(vec![t("s0", "p", "o0")]);
        assert_eq!(store.num_triples(), before + 1);
        assert!(store.__invariant_check());
        // Each staged pair sits in exactly the shard its subject hashes to.
        let staged =
            |store: &TripleStore| (0..4).map(|s| store.shard_delta_len(s, p)).sum::<usize>();
        assert_eq!(staged(&store), 3);
        // Shard-local compaction folds only that shard's delta.
        let loaded: Vec<usize> = (0..4).filter(|&s| store.shard_delta_len(s, p) > 0).collect();
        let first = loaded[0];
        let folded = store.shard_delta_len(first, p);
        assert!(store.compact_pred_in(first, p));
        assert_eq!(store.shard_delta_len(first, p), 0);
        assert_eq!(staged(&store), 3 - folded, "other shards' deltas untouched");
        assert_eq!(store.num_triples(), before + 1, "logical view unchanged");
        store.compact_all();
        assert!(!store.has_deltas());
        assert_eq!(store.num_triples(), before + 1);
        assert!(store.__invariant_check());
    }

    #[test]
    fn repartition_preserves_logical_contents() {
        let mut store = TripleStore::from_triples(sample_triples());
        store.stage_add_triples(vec![t("extra", "p", "x")]);
        let logical: Vec<_> = store.encoded_triples().collect();
        store.repartition(4);
        assert_eq!(store.partitions(), 4);
        assert!(!store.has_deltas(), "repartition folds deltas");
        assert_eq!(store.encoded_triples().collect::<Vec<_>>(), logical);
        assert!(store.__invariant_check());
        store.repartition(1);
        assert_eq!(store.partitions(), 1);
        assert_eq!(store.encoded_triples().collect::<Vec<_>>(), logical);
        assert!(store.__invariant_check());
    }

    #[test]
    fn shard_stats_cover_all_triples_and_arenas() {
        let mut store = TripleStore::from_triples_partitioned(sample_triples(), 4);
        store.stage_add_triples(vec![t("fresh", "p", "x")]);
        let stats = store.shard_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.triples).sum::<usize>(), store.num_triples());
        assert_eq!(stats.iter().map(|s| s.staged_pairs).sum::<usize>(), 1);
        for (shard, s) in stats.iter().enumerate() {
            let expect: usize = store
                .shard_rels(shard)
                .iter()
                .map(|r| r.so.arena_bytes() + r.os.arena_bytes())
                .sum();
            assert!(s.arena_bytes > 0 && s.arena_bytes == expect, "shard {shard}");
        }
    }

    #[test]
    fn invariant_check_catches_a_relation_whose_orders_disagree() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b"), t("c", "p", "d")]);
        let other = TriePair::from_so(vec![(0, 2)]);
        store.shards[0].rels[0].os = other.os;
        assert!(!store.__invariant_check());
    }
}
