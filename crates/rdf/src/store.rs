//! The in-memory triple store: dictionary + vertically partitioned tables,
//! hash-partitioned into subject shards.

use std::collections::HashMap;

use crate::dict::Dictionary;
use crate::partition::Partitioner;
use crate::term::Term;
use crate::triple::{EncodedTriple, Triple};
use crate::vp::PairTable;

/// An in-memory RDF store in the paper's storage model: every term is
/// dictionary-encoded to a `u32` and triples are vertically partitioned
/// into one [`PairTable`] per predicate (§II-A1, §IV-A2).
///
/// On top of the vertical partitioning, the store is **hash-partitioned
/// by subject** into `P` shards (see [`Partitioner`]): each shard owns its
/// own slice of every predicate's pairs plus its own staged
/// [`PredDelta`]s, while the dictionary is shared store-wide. `P = 1`
/// (the default everywhere) is layout-identical to the unpartitioned
/// store — one shard holding every table.
///
/// The store's lifecycle has one mechanism per step:
///
/// * **Build** — [`insert`](TripleStore::insert) buffers raw pairs and
///   [`commit`](TripleStore::commit) (or the bulk
///   [`from_triples`](TripleStore::from_triples)) sorts and deduplicates
///   them into the base tables, once, on an empty store. Read accessors
///   panic on an uncommitted store to make misuse loud rather than subtly
///   stale.
/// * **Mutate** — [`stage_add_triples`](TripleStore::stage_add_triples)
///   and [`stage_remove_triples`](TripleStore::stage_remove_triples)
///   record a batch as a sorted per-(shard, predicate) [`PredDelta`]
///   (inserts + tombstones) in O(delta) without touching the base tables.
///   This is the only way a built store changes.
/// * **Fold** — [`compact_pred`](TripleStore::compact_pred) /
///   [`compact_all`](TripleStore::compact_all) merge deltas into fresh
///   base tables off the hot path — or, shard-locally,
///   [`compact_pred_in`](TripleStore::compact_pred_in) folds a single
///   shard.
///
/// Logical accessors ([`num_triples`], [`encoded_triples`], [`stats`])
/// always report the merged view across all shards;
/// [`shard_table`](TripleStore::shard_table) exposes one shard's frozen
/// **base** only, with [`shard_delta`](TripleStore::shard_delta) carrying
/// the rest.
///
/// Staging reports which predicates actually changed, so an index layer
/// can invalidate only the tries those predicates back. Removal never
/// shrinks the dictionary and leaves emptied tables in place — term keys
/// stay stable for the lifetime of the store.
///
/// The single-table accessors ([`table`](TripleStore::table),
/// [`tables`](TripleStore::tables), [`delta`](TripleStore::delta)) are the
/// `P = 1` view and panic on a partitioned store; partitioned callers use
/// the shard accessors or the aggregate [`PredCard`] statistics view.
///
/// [`num_triples`]: TripleStore::num_triples
/// [`encoded_triples`]: TripleStore::encoded_triples
/// [`stats`]: TripleStore::stats
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    dict: Dictionary,
    partitioner: Partitioner,
    /// Predicate key → table index; the index is valid in **every**
    /// shard (all shards register every predicate, in the same order).
    by_pred: HashMap<u32, usize>,
    shards: Vec<StoreShard>,
    /// `P > 1` only: per-predicate distinct-object counts across shards
    /// (objects, unlike subjects, are not disjoint across shards).
    /// Recomputed whenever a base table changes — the same events that
    /// already pay an O(predicate) rebuild.
    agg_distinct_objects: HashMap<u32, usize>,
    pending: HashMap<u32, Vec<(u32, u32)>>,
    n_pending: usize,
}

/// One subject-hash shard: its slice of every predicate's base pairs plus
/// its staged deltas. Table indices align across shards.
#[derive(Debug, Default, Clone)]
struct StoreShard {
    tables: Vec<PairTable>,
    deltas: HashMap<u32, PredDelta>,
}

/// Staged, uncompacted mutations for one predicate within one shard:
/// sorted insert pairs disjoint from the shard's base table and sorted
/// tombstone pairs resident in it. Both slices are subject-major
/// `(s, o)`; consumers needing the object-major orientation permute and
/// re-sort (deltas are small).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PredDelta {
    ins: Vec<(u32, u32)>,
    del: Vec<(u32, u32)>,
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
}

/// Three-way linear merge `(base − del) ∪ ins` over sorted-unique pair
/// slices — the compaction kernel, O(base + delta).
fn merge_pairs(base: &[(u32, u32)], del: &[(u32, u32)], ins: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(base.len() + ins.len() - del.len().min(base.len()));
    let mut di = del.iter().peekable();
    let mut ii = ins.iter().peekable();
    for &pair in base {
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
    /// Number of predicates (= vertically partitioned tables).
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
    /// Keys of predicates whose tables changed, sorted ascending.
    pub changed_preds: Vec<u32>,
}

impl UpdateReport {
    /// True when the mutation was a no-op on the table contents.
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
/// not depend on `P`. Subjects are disjoint across shards (sums are
/// exact); distinct objects come from the store's cross-shard count.
#[derive(Debug, Clone, Copy)]
pub struct PredCard<'a> {
    store: &'a TripleStore,
    idx: usize,
    pred: u32,
}

impl PredCard<'_> {
    /// Base pairs across all shards (deltas excluded, like the `P = 1`
    /// table view the planner always used).
    pub fn len(&self) -> usize {
        self.store.shards.iter().map(|sh| sh.tables[self.idx].len()).sum()
    }

    /// True when every shard's base table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distinct subjects across all shards (disjoint by construction).
    pub fn distinct_subjects(&self) -> usize {
        self.store.shards.iter().map(|sh| sh.tables[self.idx].distinct_subjects()).sum()
    }

    /// Distinct objects across all shards (deduplicated cross-shard).
    pub fn distinct_objects(&self) -> usize {
        if self.store.partitions() == 1 {
            self.store.shards[0].tables[self.idx].distinct_objects()
        } else {
            self.store.agg_distinct_objects.get(&self.pred).copied().unwrap_or(0)
        }
    }

    /// Base pairs with the given subject — served by exactly the shard
    /// that owns it.
    pub fn matches_for_subject(&self, s: u32) -> usize {
        let shard = self.store.partitioner.shard_of(s);
        self.store.shards[shard].tables[self.idx].pairs_for_subject(s).len()
    }

    /// Base pairs with the given object, summed across shards.
    pub fn matches_for_object(&self, o: u32) -> usize {
        self.store.shards.iter().map(|sh| sh.tables[self.idx].pairs_for_object(o).len()).sum()
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
            by_pred: HashMap::new(),
            shards: vec![StoreShard::default(); partitioner.partitions()],
            agg_distinct_objects: HashMap::new(),
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
    /// counts. Every shard must register the same predicates in the same
    /// order — checked here. Two invariants are the *caller's* contract,
    /// verified by the snapshot decoder (the only untrusted input path)
    /// where they are cheap: subject→shard affinity inside the parallel
    /// per-shard decode pass (fused with the sorted/bounded scan), and
    /// the distinct-object claims bounds-checked against the decoded
    /// shards — so reassembly replays neither a store-wide pair sweep nor
    /// a k-way merge per predicate.
    pub(crate) fn from_partitioned_parts(
        terms: Vec<Term>,
        partitions: usize,
        shard_tables: Vec<Vec<PairTable>>,
        agg_distinct_objects: HashMap<u32, usize>,
    ) -> Result<TripleStore, &'static str> {
        let partitioner = Partitioner::new(partitions);
        if shard_tables.len() != partitioner.partitions() {
            return Err("shard count does not match partition count");
        }
        let first = &shard_tables[0];
        for tables in &shard_tables {
            if tables.len() != first.len() {
                return Err("shards register different predicate counts");
            }
            for (a, b) in tables.iter().zip(first) {
                if a.pred() != b.pred() || a.name() != b.name() {
                    return Err("shards register different predicates");
                }
            }
        }
        debug_assert!(shard_tables.iter().enumerate().all(|(shard, tables)| {
            tables
                .iter()
                .all(|t| t.so_pairs().iter().all(|&(s, _)| partitioner.shard_of(s) == shard))
        }));
        let by_pred: HashMap<u32, usize> =
            first.iter().enumerate().map(|(i, t)| (t.pred(), i)).collect();
        let agg_distinct_objects =
            if partitioner.partitions() > 1 { agg_distinct_objects } else { HashMap::new() };
        Ok(TripleStore {
            dict: Dictionary::from_terms(terms),
            partitioner,
            by_pred,
            shards: shard_tables
                .into_iter()
                .map(|tables| StoreShard { tables, deltas: HashMap::new() })
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
    /// Panics on a store that already has tables: a built store changes
    /// only through `stage_*` + `compact_*`.
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

    /// The bulk build: sort and deduplicate all buffered pairs into one
    /// base table per predicate, split across the shards.
    pub fn commit(&mut self) {
        // Drain in predicate-key order, not HashMap order: table
        // registration order must be deterministic so two stores built
        // from the same triples are identical regardless of hasher seeds
        // (the partition-determinism matrix compares across instances).
        let mut pending: Vec<(u32, Vec<(u32, u32)>)> =
            std::mem::take(&mut self.pending).into_iter().collect();
        pending.sort_unstable_by_key(|&(p, _)| p);
        self.n_pending = 0;
        for (p, mut pairs) in pending {
            pairs.sort_unstable();
            pairs.dedup();
            let name = self.dict.decode(p).as_str().to_string();
            let idx = self.register_pred(p, &name);
            for shard in 0..self.shards.len() {
                let mine: Vec<(u32, u32)> = pairs
                    .iter()
                    .copied()
                    .filter(|&(s, _)| self.partitioner.shard_of(s) == shard)
                    .collect();
                self.shards[shard].tables[idx] = PairTable::build(name.clone(), p, mine);
            }
            self.recompute_agg(p);
        }
    }

    /// Register a predicate: every shard gets an (initially empty) table
    /// at the same index. Returns the shared table index.
    fn register_pred(&mut self, p: u32, name: &str) -> usize {
        let idx = self.num_tables();
        for sh in &mut self.shards {
            sh.tables.push(PairTable::build(name.to_string(), p, Vec::new()));
        }
        self.by_pred.insert(p, idx);
        idx
    }

    /// Recompute the cross-shard distinct-object count for one predicate
    /// (only maintained when partitioned; `P = 1` reads the table's own
    /// count). O(predicate pairs) — called only from paths that already
    /// rebuilt a base table at that cost.
    fn recompute_agg(&mut self, pred: u32) {
        if self.partitions() == 1 {
            return;
        }
        let Some(&idx) = self.by_pred.get(&pred) else { return };
        let slices: Vec<&[(u32, u32)]> =
            self.shards.iter().map(|sh| sh.tables[idx].os_pairs()).collect();
        let distinct = distinct_first_across(&slices);
        self.agg_distinct_objects.insert(pred, distinct);
    }

    /// Stage an insert batch as per-(shard, predicate) deltas without
    /// rebuilding any base table: O(delta) in the batch, not the
    /// predicate. New terms grow the dictionary; a new predicate gets an
    /// empty base table in every shard (so its key is stable) with the
    /// pairs staged as inserts. Each pair routes to the single shard its
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
                None => self.register_pred(p, t.p.as_str()),
            };
            let pair = (s, o);
            let sh = &mut self.shards[self.partitioner.shard_of(s)];
            let d = sh.deltas.entry(p).or_default();
            if let Ok(at) = d.del.binary_search(&pair) {
                d.del.remove(at); // insert cancels the tombstone
            } else if sh.tables[idx].contains(s, o) || d.ins.binary_search(&pair).is_ok() {
                continue;
            } else if let Err(at) = d.ins.binary_search(&pair) {
                d.ins.insert(at, pair);
            }
            report.added += 1;
            report.changed_preds.push(p);
        }
        self.finish_staging(&mut report);
        report
    }

    /// Stage a delete batch as per-(shard, predicate) tombstones without
    /// rebuilding any base table: O(delta) in the batch. Deleting a
    /// staged insert cancels it; deleting an absent pair (or a triple
    /// naming unknown terms or predicates) is a no-op — such a triple
    /// cannot be resident. The report counts real logical change only.
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
            } else if sh.tables[idx].contains(s, o) {
                match d.del.binary_search(&pair) {
                    Ok(_) => continue, // already tombstoned
                    Err(at) => d.del.insert(at, pair),
                }
            } else {
                continue;
            }
            report.removed += 1;
            report.changed_preds.push(p);
        }
        self.finish_staging(&mut report);
        report
    }

    /// Drop delta entries that cancelled out to nothing and canonicalise
    /// the report.
    fn finish_staging(&mut self, report: &mut UpdateReport) {
        for sh in &mut self.shards {
            sh.deltas.retain(|_, d| !d.is_empty());
        }
        report.changed_preds.sort_unstable();
        report.changed_preds.dedup();
    }

    /// The staged delta for a predicate — the `P = 1` view.
    ///
    /// # Panics
    /// Panics on a partitioned store; use
    /// [`shard_delta`](TripleStore::shard_delta) there.
    pub fn delta(&self, pred: u32) -> Option<&PredDelta> {
        assert_eq!(self.partitions(), 1, "partitioned store: use shard_delta");
        self.shards[0].deltas.get(&pred)
    }

    /// The staged delta for a predicate within one shard, if any.
    pub fn shard_delta(&self, shard: usize, pred: u32) -> Option<&PredDelta> {
        self.shards[shard].deltas.get(&pred)
    }

    /// Staged pairs (inserts + tombstones) for one predicate, across all
    /// shards.
    pub fn delta_len(&self, pred: u32) -> usize {
        self.shards.iter().map(|sh| sh.deltas.get(&pred).map_or(0, PredDelta::len)).sum()
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

    /// Staged pairs within one shard.
    pub fn shard_staged_pairs(&self, shard: usize) -> usize {
        self.shards[shard].staged_pairs()
    }

    /// Predicates with staged deltas in any shard, sorted ascending.
    pub fn delta_preds(&self) -> Vec<u32> {
        let mut preds: Vec<u32> =
            self.shards.iter().flat_map(|sh| sh.deltas.keys().copied()).collect();
        preds.sort_unstable();
        preds.dedup();
        preds
    }

    /// Fold one predicate's staged delta into a fresh base table in
    /// **every** shard that has one (one linear three-way merge per sort
    /// order per shard). Returns whether any delta was present. Logical
    /// contents are unchanged — compaction only moves pairs across the
    /// base/delta split.
    pub fn compact_pred(&mut self, pred: u32) -> bool {
        let mut any = false;
        for shard in 0..self.shards.len() {
            any |= self.compact_pred_in(shard, pred);
        }
        any
    }

    /// Fold one predicate's staged delta within **one** shard — the
    /// shard-local compaction primitive: other shards' overlays (and
    /// their cached tries) are untouched.
    pub fn compact_pred_in(&mut self, shard: usize, pred: u32) -> bool {
        let Some(d) = self.shards[shard].deltas.remove(&pred) else {
            return false;
        };
        let idx = self.by_pred[&pred];
        let old = &self.shards[shard].tables[idx];
        let so = merge_pairs(old.so_pairs(), &d.del, &d.ins);
        let permute_sort = |pairs: &[(u32, u32)]| {
            let mut v: Vec<(u32, u32)> = pairs.iter().map(|&(s, o)| (o, s)).collect();
            v.sort_unstable();
            v
        };
        let os = merge_pairs(old.os_pairs(), &permute_sort(&d.del), &permute_sort(&d.ins));
        self.shards[shard].tables[idx] =
            PairTable::from_sorted_parts(old.name().to_string(), pred, so, os);
        self.recompute_agg(pred);
        true
    }

    /// Fold every staged delta in every shard into its base table,
    /// returning the compacted predicate keys sorted ascending.
    pub fn compact_all(&mut self) -> Vec<u32> {
        let preds = self.delta_preds();
        for &p in &preds {
            self.compact_pred(p);
        }
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

    /// Number of registered predicates (= tables per shard).
    fn num_tables(&self) -> usize {
        self.shards[0].tables.len()
    }

    /// Table for a predicate key — the `P = 1` view.
    ///
    /// # Panics
    /// Panics on a partitioned store; use
    /// [`shard_table`](TripleStore::shard_table) or [`PredCard`] there.
    pub fn table(&self, pred: u32) -> Option<&PairTable> {
        self.assert_committed();
        assert_eq!(self.partitions(), 1, "partitioned store: use shard_table / pred_card");
        self.by_pred.get(&pred).map(|&i| &self.shards[0].tables[i])
    }

    /// Table for a predicate IRI — the `P = 1` view (see
    /// [`table`](TripleStore::table)).
    pub fn table_by_name(&self, iri: &str) -> Option<&PairTable> {
        self.resolve_iri(iri).and_then(|p| self.table(p))
    }

    /// All predicate tables — the `P = 1` view.
    ///
    /// # Panics
    /// Panics on a partitioned store; use
    /// [`shard_tables`](TripleStore::shard_tables) there.
    pub fn tables(&self) -> &[PairTable] {
        self.assert_committed();
        assert_eq!(self.partitions(), 1, "partitioned store: use shard_tables");
        &self.shards[0].tables
    }

    /// One shard's table for a predicate key (its slice of the pairs).
    pub fn shard_table(&self, shard: usize, pred: u32) -> Option<&PairTable> {
        self.assert_committed();
        self.by_pred.get(&pred).map(|&i| &self.shards[shard].tables[i])
    }

    /// One shard's predicate tables, in registration order (the order is
    /// identical across shards).
    pub fn shard_tables(&self, shard: usize) -> &[PairTable] {
        self.assert_committed();
        &self.shards[shard].tables
    }

    /// Partition-invariant cardinality statistics for a predicate IRI
    /// (the planner's view — identical numbers at every `P`).
    pub fn pred_card(&self, iri: &str) -> Option<PredCard<'_>> {
        self.assert_committed();
        let pred = self.resolve_iri(iri)?;
        let idx = *self.by_pred.get(&pred)?;
        Some(PredCard { store: self, idx, pred })
    }

    /// Total base pairs for a predicate across all shards (deltas
    /// excluded).
    pub fn pred_len(&self, pred: u32) -> usize {
        self.assert_committed();
        self.by_pred
            .get(&pred)
            .map_or(0, |&i| self.shards.iter().map(|sh| sh.tables[i].len()).sum())
    }

    /// Logical (delta-merged) pairs for a predicate across all shards.
    pub fn pred_logical_len(&self, pred: u32) -> usize {
        self.assert_committed();
        self.by_pred.get(&pred).map_or(0, |&i| {
            self.shards
                .iter()
                .map(|sh| {
                    let (ins, del) = sh
                        .deltas
                        .get(&sh.tables[i].pred())
                        .map_or((0, 0), |d| (d.ins.len(), d.del.len()));
                    sh.tables[i].len() + ins - del
                })
                .sum()
        })
    }

    /// Total distinct triples in the **logical** (delta-merged) view,
    /// across all shards.
    pub fn num_triples(&self) -> usize {
        self.assert_committed();
        self.shards.iter().map(StoreShard::logical_triples).sum()
    }

    /// Per-shard logical sizes, for skew observability.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.assert_committed();
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, sh)| ShardStats {
                shard,
                triples: sh.logical_triples(),
                staged_pairs: sh.staged_pairs(),
            })
            .collect()
    }

    /// Iterate every triple of the **logical** (delta-merged) view in
    /// encoded form, predicate-major order; within a predicate, pairs are
    /// sorted `(s, o)` across shards. Tables with staged deltas (or more
    /// than one shard) pay a merge allocation; untouched single-shard
    /// tables stream their base pairs.
    pub fn encoded_triples(&self) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.assert_committed();
        (0..self.num_tables()).flat_map(move |idx| {
            let p = self.shards[0].tables[idx].pred();
            let pairs: Box<dyn Iterator<Item = (u32, u32)> + '_> = if self.partitions() == 1 {
                let t = &self.shards[0].tables[idx];
                match self.shards[0].deltas.get(&p) {
                    None => Box::new(t.so_pairs().iter().copied()),
                    Some(d) => Box::new(merge_pairs(t.so_pairs(), &d.del, &d.ins).into_iter()),
                }
            } else {
                let mut v: Vec<(u32, u32)> = Vec::new();
                for sh in &self.shards {
                    let t = &sh.tables[idx];
                    match sh.deltas.get(&p) {
                        None => v.extend_from_slice(t.so_pairs()),
                        Some(d) => v.extend(merge_pairs(t.so_pairs(), &d.del, &d.ins)),
                    }
                }
                v.sort_unstable();
                Box::new(v.into_iter())
            };
            pairs.map(move |(s, o)| EncodedTriple { s, p, o })
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
            predicates: self.num_tables(),
            terms: self.dict.len(),
        }
    }

    /// Redistribute the store across `max(1, partitions)` subject shards.
    /// Staged deltas are folded first (their routing would change), then
    /// every predicate's logical pairs are re-split by the new hash. The
    /// logical contents are unchanged; only placement moves. O(store).
    pub fn repartition(&mut self, partitions: usize) {
        self.assert_committed();
        self.compact_all();
        let partitioner = Partitioner::new(partitions);
        if partitioner == self.partitioner {
            return;
        }
        let n = self.num_tables();
        let mut new_shards = vec![StoreShard::default(); partitioner.partitions()];
        for idx in 0..n {
            let pred = self.shards[0].tables[idx].pred();
            let name = self.shards[0].tables[idx].name().to_string();
            // Merge each order across the old shards (concatenate + sort:
            // the per-shard slices are sorted, the union is not).
            let mut so: Vec<(u32, u32)> = Vec::new();
            let mut os: Vec<(u32, u32)> = Vec::new();
            for sh in &self.shards {
                so.extend_from_slice(sh.tables[idx].so_pairs());
                os.extend_from_slice(sh.tables[idx].os_pairs());
            }
            so.sort_unstable();
            os.sort_unstable();
            for (shard, new_sh) in new_shards.iter_mut().enumerate() {
                let so_mine: Vec<(u32, u32)> =
                    so.iter().copied().filter(|&(s, _)| partitioner.shard_of(s) == shard).collect();
                let os_mine: Vec<(u32, u32)> =
                    os.iter().copied().filter(|&(_, s)| partitioner.shard_of(s) == shard).collect();
                new_sh.tables.push(PairTable::from_sorted_parts(
                    name.clone(),
                    pred,
                    so_mine,
                    os_mine,
                ));
            }
        }
        self.partitioner = partitioner;
        self.shards = new_shards;
        self.agg_distinct_objects.clear();
        let preds: Vec<u32> = self.by_pred.keys().copied().collect();
        for p in preds {
            self.recompute_agg(p);
        }
    }
}

impl StoreShard {
    fn logical_triples(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                let (ins, del) =
                    self.deltas.get(&t.pred()).map_or((0, 0), |d| (d.ins.len(), d.del.len()));
                t.len() + ins - del
            })
            .sum()
    }

    fn staged_pairs(&self) -> usize {
        self.deltas.values().map(PredDelta::len).sum()
    }
}

/// Count distinct first components across sorted slices by k-way merge —
/// the cross-shard distinct-object count for one predicate (each slice
/// one shard's `os` order).
fn distinct_first_across(slices: &[&[(u32, u32)]]) -> usize {
    let mut pos = vec![0usize; slices.len()];
    let mut distinct = 0usize;
    loop {
        let mut cur: Option<u32> = None;
        for (k, sl) in slices.iter().enumerate() {
            if pos[k] < sl.len() {
                let o = sl[pos[k]].0;
                cur = Some(cur.map_or(o, |c| c.min(o)));
            }
        }
        let Some(o) = cur else { break };
        distinct += 1;
        for (k, sl) in slices.iter().enumerate() {
            while pos[k] < sl.len() && sl[pos[k]].0 == o {
                pos[k] += 1;
            }
        }
    }
    distinct
}

impl TripleStore {
    #[doc(hidden)]
    pub fn __invariant_check(&self) -> bool {
        // Registration alignment: every shard holds a table for every
        // registered predicate, at the same index.
        if self.shards.is_empty()
            || self.shards.iter().any(|sh| sh.tables.len() != self.by_pred.len())
        {
            return false;
        }
        for (&p, &idx) in &self.by_pred {
            if self.shards.iter().any(|sh| sh.tables[idx].pred() != p) {
                return false;
            }
        }
        for (shard, sh) in self.shards.iter().enumerate() {
            // Subject affinity: every base pair lives in the shard its
            // subject hashes to.
            if sh
                .tables
                .iter()
                .any(|t| t.so_pairs().iter().any(|&(s, _)| self.partitioner.shard_of(s) != shard))
            {
                return false;
            }
            // Staged deltas: sorted-unique, anchored to a real table,
            // routed to this shard, with del ⊆ base and ins ∩ base = ∅
            // (and therefore non-empty).
            let ok = sh.deltas.iter().all(|(&p, d)| {
                let Some(&idx) = self.by_pred.get(&p) else {
                    return false;
                };
                let t = &sh.tables[idx];
                !d.is_empty()
                    && d.ins.windows(2).all(|w| w[0] < w[1])
                    && d.del.windows(2).all(|w| w[0] < w[1])
                    && d.del.iter().all(|&(s, o)| t.contains(s, o))
                    && d.ins.iter().all(|&(s, o)| !t.contains(s, o))
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
        assert_eq!(store.table_by_name("p1").unwrap().len(), 2);
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
    fn resolve_and_table_lookup() {
        let store = TripleStore::from_triples(vec![t("s", "p", "o")]);
        let pid = store.resolve_iri("p").unwrap();
        assert_eq!(store.table(pid).unwrap().name(), "p");
        assert!(store.resolve_iri("absent").is_none());
        assert!(store.table(9999).is_none());
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
    fn staging_reports_real_change_and_leaves_base_tables_alone() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b"), t("c", "p", "d")]);
        let p = store.resolve_iri("p").unwrap();
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
        // Base tables untouched; logical view merged.
        assert_eq!(store.table(p).unwrap().len(), 2);
        assert!(store.table(q).unwrap().is_empty());
        assert_eq!(store.num_triples(), 4);
        assert_eq!(store.delta_len(p), 1);
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
        assert_eq!(store.delta(p).unwrap().del_pairs().len(), 1);
        assert!(store.delta(p).unwrap().ins_pairs().is_empty());
        assert!(store.__invariant_check());

        // Re-inserting the tombstoned pair cancels the tombstone and the
        // delta evaporates entirely.
        let report = store.stage_add_triples(vec![t("a", "p", "b")]);
        assert_eq!(report.added, 1);
        assert!(store.delta(p).is_none());
        assert_eq!(store.delta_preds(), vec![q]);
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
        // Compacted tables are fully coherent (os order included).
        let table = store.table(p).unwrap();
        assert_eq!(table.len(), 2);
        let y = store.resolve_iri("y").unwrap();
        assert_eq!(table.pairs_for_object(y).len(), 1);
        assert!(store.__invariant_check());
    }

    #[test]
    fn staged_store_clones_carry_their_deltas() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b")]);
        store.stage_add_triples(vec![t("x", "p", "y")]);
        let clone = store.clone();
        assert_eq!(clone.staged_pairs(), 1);
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
        // The emptied table stays registered: predicate keys are stable.
        assert!(store.table_by_name("r").unwrap().is_empty());
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
        let s3 = reference.resolve_iri("s3").unwrap();
        let o1 = reference.resolve_iri("o1").unwrap();
        let (ms, mo) = (rc.matches_for_subject(s3), rc.matches_for_object(o1));
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
        let total: usize = (0..4).map(|s| store.shard_delta_len(s, p)).sum();
        assert_eq!(total, 3);
        assert_eq!(store.delta_len(p), 3);
        // Shard-local compaction folds only that shard's delta.
        let loaded: Vec<usize> = (0..4).filter(|&s| store.shard_delta_len(s, p) > 0).collect();
        let first = loaded[0];
        let folded = store.shard_delta_len(first, p);
        assert!(store.compact_pred_in(first, p));
        assert_eq!(store.shard_delta_len(first, p), 0);
        assert_eq!(store.delta_len(p), 3 - folded, "other shards' deltas untouched");
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
    fn shard_stats_cover_all_triples() {
        let mut store = TripleStore::from_triples_partitioned(sample_triples(), 4);
        store.stage_add_triples(vec![t("fresh", "p", "x")]);
        let stats = store.shard_stats();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.iter().map(|s| s.triples).sum::<usize>(), store.num_triples());
        assert_eq!(stats.iter().map(|s| s.staged_pairs).sum::<usize>(), 1);
    }

    #[test]
    #[should_panic(expected = "use shard_table")]
    fn single_table_view_panics_when_partitioned() {
        let store = TripleStore::from_triples_partitioned(sample_triples(), 2);
        let p = store.resolve_iri("p").unwrap();
        let _ = store.table(p);
    }
}
