//! The in-memory triple store: dictionary + one pair of frozen tries per
//! predicate.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use eh_trie::{DeltaOverlay, FrozenTrie, LayoutPolicy};

use crate::dict::Dictionary;
use crate::term::Term;
use crate::triple::{EncodedTriple, Triple};

/// One predicate's base relation: a frozen trie per attribute order. A
/// trie over one order *is* that order's index (paper §III-A), so the
/// pair is the relation — the store keeps no other copy of it.
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
/// two frozen tries of a [`TriePair`] and nothing else, plus at most one
/// staged [`PredDelta`].
///
/// The store's lifecycle has one mechanism per step, and every step ends
/// in frozen tries:
///
/// * **Build** — [`insert`](TripleStore::insert) buffers raw pairs and
///   [`commit`](TripleStore::commit) (or the bulk
///   [`from_triples`](TripleStore::from_triples)) sorts and deduplicates
///   them and freezes both orders of every predicate, once, on an empty
///   store. Read accessors panic on an uncommitted store to make
///   misuse loud rather than subtly stale.
/// * **Mutate** — [`stage_add_triples`](TripleStore::stage_add_triples)
///   and [`stage_remove_triples`](TripleStore::stage_remove_triples)
///   record a batch as a sorted per-predicate [`PredDelta`]
///   (inserts + tombstones) in O(delta) without touching the base tries.
///   This is the only way a built store changes.
/// * **Fold** — [`compact_pred`](TripleStore::compact_pred) merges one
///   predicate's base trie tuples with its delta and freezes fresh tries
///   off the hot path; [`compact_all`](TripleStore::compact_all) folds
///   every delta. Every other relation keeps its `Arc`s.
///
/// Logical accessors ([`num_triples`], [`encoded_triples`], [`stats`])
/// always report the merged view; [`trie_pair`](TripleStore::trie_pair)
/// exposes a predicate's frozen **base** only, with
/// [`delta`](TripleStore::delta) carrying the rest. Cloning a store bumps
/// the tries' `Arc`s and the dictionary's frozen part, and copies only the
/// deltas and the terms minted since the last commit or compaction (the
/// dictionary's tail, which both fold).
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
    /// Registered predicate keys in registration order: a key's position
    /// here is its relation's index in `rels`.
    preds: Vec<u32>,
    by_pred: HashMap<u32, usize>,
    rels: Vec<TriePair>,
    deltas: HashMap<u32, PredDelta>,
    pending: HashMap<u32, Vec<(u32, u32)>>,
    n_pending: usize,
}

/// Staged, uncompacted mutations for one predicate: sorted insert pairs
/// disjoint from its base relation and sorted tombstone pairs resident in
/// it. Both slices are subject-major
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

/// Per-predicate statistics for the planner's cardinality heuristics,
/// read off the base relation's trie set lengths (deltas excluded).
#[derive(Debug, Clone, Copy)]
pub struct PredCard<'a> {
    rel: &'a TriePair,
}

impl PredCard<'_> {
    /// Base pairs.
    pub fn len(&self) -> usize {
        self.rel.len()
    }

    /// True when the base relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
    }

    /// Distinct subjects: the `so` root length.
    pub fn distinct_subjects(&self) -> usize {
        self.rel.so.root_set().len()
    }

    /// Distinct objects: the `os` root length.
    pub fn distinct_objects(&self) -> usize {
        self.rel.os.root_set().len()
    }

    /// Base pairs with the given subject.
    pub fn matches_for_subject(&self, s: u32) -> usize {
        self.rel.so.fanout(s)
    }

    /// Base pairs with the given object.
    pub fn matches_for_object(&self, o: u32) -> usize {
        self.rel.os.fanout(o)
    }
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> TripleStore {
        TripleStore::default()
    }

    /// Bulk-build a committed store.
    pub fn from_triples(triples: impl IntoIterator<Item = Triple>) -> TripleStore {
        let mut store = TripleStore::new();
        for t in triples {
            store.insert(t);
        }
        store.commit();
        store
    }

    /// Reassemble a committed store from snapshot parts: the dictionary's
    /// terms in key order, the registered predicates and one relation per
    /// predicate — the count is checked here. Relation contents (ids in
    /// the dictionary, `os` the transpose of `so`) are the *caller's*
    /// contract, verified by the snapshot decoder (the only untrusted
    /// input path), so reassembly replays no store-wide sweep.
    pub(crate) fn from_parts(
        terms: Vec<Term>,
        preds: Vec<u32>,
        rels: Vec<TriePair>,
    ) -> Result<TripleStore, &'static str> {
        if rels.len() != preds.len() {
            return Err("relation count does not match predicate count");
        }
        let by_pred: HashMap<u32, usize> = preds.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        Ok(TripleStore {
            dict: Dictionary::from_terms(terms),
            preds,
            by_pred,
            rels,
            deltas: HashMap::new(),
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
    /// both orders of every predicate.
    pub fn commit(&mut self) {
        // Drain in predicate-key order, not HashMap order: registration
        // order must be deterministic so two stores built from the same
        // triples are identical regardless of hasher seeds (snapshots are
        // compared byte for byte across instances).
        let mut pending: Vec<(u32, Vec<(u32, u32)>)> =
            std::mem::take(&mut self.pending).into_iter().collect();
        pending.sort_unstable_by_key(|&(p, _)| p);
        self.n_pending = 0;
        for (p, mut pairs) in pending {
            pairs.sort_unstable();
            pairs.dedup();
            let idx = self.register_pred(p);
            self.rels[idx] = TriePair::from_so(pairs);
        }
        self.dict.fold();
    }

    /// Register a predicate with an (initially empty) relation. Returns
    /// its index.
    fn register_pred(&mut self, p: u32) -> usize {
        let idx = self.preds.len();
        self.rels.push(TriePair::from_so(Vec::new()));
        self.preds.push(p);
        self.by_pred.insert(p, idx);
        idx
    }

    /// Stage an insert batch as per-predicate deltas without freezing any
    /// base trie: O(delta) in the batch, not the predicate. New terms
    /// grow the dictionary; a new predicate gets an empty base relation
    /// (so its key is stable) with the pairs staged as inserts. Inserting
    /// a tombstoned pair cancels the tombstone; inserting a resident or
    /// already-staged pair is a no-op. The report counts real logical
    /// change only.
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
            let d = self.deltas.entry(p).or_default();
            if let Ok(at) = d.del.binary_search(&pair) {
                d.del.remove(at); // insert cancels the tombstone
            } else if self.rels[idx].contains(s, o) || d.ins.binary_search(&pair).is_ok() {
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

    /// Stage a delete batch as per-predicate tombstones without freezing
    /// any base trie: O(delta) in the batch. Deleting a staged insert
    /// cancels it; deleting an absent pair (or a triple naming unknown
    /// terms or predicates) is a no-op — such a triple cannot be
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
            let d = self.deltas.entry(p).or_default();
            if let Ok(at) = d.ins.binary_search(&pair) {
                d.ins.remove(at); // delete cancels the staged insert
            } else if self.rels[idx].contains(s, o) {
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

    /// Drop delta entries that cancelled out to nothing and canonicalise
    /// the report.
    fn finish_staging(&mut self, report: &mut UpdateReport) {
        self.deltas.retain(|_, d| !d.is_empty());
        report.changed_preds.sort_unstable();
        report.changed_preds.dedup();
    }

    /// The staged delta for a predicate, if any.
    pub fn delta(&self, pred: u32) -> Option<&PredDelta> {
        self.deltas.get(&pred)
    }

    /// True when any predicate has a staged delta.
    pub fn has_deltas(&self) -> bool {
        !self.deltas.is_empty()
    }

    /// Total staged pairs across all predicates (the overlay's memory
    /// bound, up to constant factors).
    pub fn staged_pairs(&self) -> usize {
        self.deltas.values().map(PredDelta::len).sum()
    }

    /// Fold one predicate's staged delta: per order, one linear merge of
    /// the base trie's tuples with the delta, then one freeze. Other
    /// relations and overlays are untouched. The dictionary's tail folds
    /// too, so it holds at most the terms minted since the last
    /// compaction.
    pub fn compact_pred(&mut self, pred: u32) -> bool {
        let Some(d) = self.deltas.remove(&pred) else {
            return false;
        };
        let idx = self.by_pred[&pred];
        let old = &self.rels[idx];
        let so = merge_pairs(&old.so, &d.del, &d.ins);
        let (mut del, mut ins) = (d.del, d.ins);
        transpose_in_place(&mut del);
        transpose_in_place(&mut ins);
        let os = merge_pairs(&old.os, &del, &ins);
        self.rels[idx] = TriePair::from_sorted(&so, &os);
        self.dict.fold();
        true
    }

    /// Fold every staged delta into its base relation, returning the
    /// compacted predicate keys sorted ascending.
    pub fn compact_all(&mut self) -> Vec<u32> {
        let mut preds: Vec<u32> = self.deltas.keys().copied().collect();
        preds.sort_unstable();
        for &p in &preds {
            self.compact_pred(p);
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

    /// The term dictionary.
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

    /// Registered predicate keys, in registration order (the order of
    /// [`rels`](TripleStore::rels)).
    pub(crate) fn preds(&self) -> &[u32] {
        &self.preds
    }

    /// A predicate's base relation: its two frozen tries (deltas excluded
    /// — see [`delta`](TripleStore::delta)). `None` for an unknown
    /// predicate.
    pub fn trie_pair(&self, pred: u32) -> Option<&TriePair> {
        self.assert_committed();
        Some(&self.rels[*self.by_pred.get(&pred)?])
    }

    /// The base relations, in registration order.
    pub(crate) fn rels(&self) -> &[TriePair] {
        &self.rels
    }

    /// Cardinality statistics for a predicate IRI (the planner's view).
    pub fn pred_card(&self, iri: &str) -> Option<PredCard<'_>> {
        Some(PredCard { rel: self.trie_pair(self.resolve_iri(iri)?)? })
    }

    /// Logical (delta-merged) pairs for a predicate.
    pub fn pred_logical_len(&self, pred: u32) -> usize {
        self.assert_committed();
        self.by_pred.get(&pred).map_or(0, |&i| self.logical_len(i, pred))
    }

    /// Logical pairs of the relation at `idx` (predicate `pred`).
    fn logical_len(&self, idx: usize, pred: u32) -> usize {
        let (ins, del) = self.deltas.get(&pred).map_or((0, 0), |d| (d.ins.len(), d.del.len()));
        self.rels[idx].len() + ins - del
    }

    /// Total distinct triples in the **logical** (delta-merged) view.
    pub fn num_triples(&self) -> usize {
        self.assert_committed();
        self.preds.iter().enumerate().map(|(idx, &p)| self.logical_len(idx, p)).sum()
    }

    /// Arena bytes of the resident base tries, both orders of every
    /// predicate.
    pub fn arena_bytes(&self) -> usize {
        self.assert_committed();
        self.rels.iter().map(|r| r.so.arena_bytes() + r.os.arena_bytes()).sum()
    }

    /// Iterate every triple of the **logical** (delta-merged) view in
    /// encoded form, predicate-major order; within a predicate, pairs are
    /// sorted `(s, o)`, read off its `so` trie (merged with any staged
    /// delta).
    pub fn encoded_triples(&self) -> impl Iterator<Item = EncodedTriple> + '_ {
        self.assert_committed();
        self.preds.iter().zip(&self.rels).flat_map(move |(&p, rel)| {
            let pairs: Vec<(u32, u32)> = match self.deltas.get(&p) {
                None => rel.so.pairs().collect(),
                Some(d) => merge_pairs(&rel.so, &d.del, &d.ins),
            };
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

    #[doc(hidden)]
    pub fn __invariant_check(&self) -> bool {
        // Registration alignment: one relation per registered predicate,
        // at its index.
        if self.by_pred.len() != self.preds.len()
            || self.preds.iter().enumerate().any(|(i, p)| self.by_pred.get(p) != Some(&i))
            || self.rels.len() != self.preds.len()
        {
            return false;
        }
        // One relation behind both orders.
        if !self.rels.iter().all(|r| is_transpose(&r.so, &r.os)) {
            return false;
        }
        // Staged deltas: sorted-unique, anchored to a real relation, with
        // del ⊆ base and ins ∩ base = ∅ (and therefore non-empty).
        self.deltas.iter().all(|(&p, d)| {
            let Some(&idx) = self.by_pred.get(&p) else {
                return false;
            };
            let r = &self.rels[idx];
            !d.is_empty()
                && d.ins.windows(2).all(|w| w[0] < w[1])
                && d.del.windows(2).all(|w| w[0] < w[1])
                && d.del.iter().all(|&(s, o)| r.contains(s, o))
                && d.ins.iter().all(|&(s, o)| !r.contains(s, o))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    /// The base relation of a predicate IRI.
    fn rel<'a>(store: &'a TripleStore, iri: &str) -> &'a TriePair {
        store.trie_pair(store.resolve_iri(iri).unwrap()).unwrap()
    }

    /// Staged pairs for one predicate.
    fn delta_len(store: &TripleStore, pred: u32) -> usize {
        store.delta(pred).map_or(0, PredDelta::len)
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
        let pair = store.trie_pair(pid).unwrap();
        assert!(pair.contains(s, o) && !pair.contains(o, s));
        assert!(store.resolve_iri("absent").is_none());
        assert!(store.trie_pair(9999).is_none());
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
        assert_eq!(delta_len(&store, p), 1);
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
        assert_eq!(delta_len(&store, q), 1);
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
    fn pred_card_reads_the_base_tries() {
        let store = TripleStore::from_triples(sample_triples());
        let c = store.pred_card("p").unwrap();
        assert_eq!((c.len(), c.distinct_subjects(), c.distinct_objects()), (40, 40, 7));
        let s3 = store.resolve_iri("s3").unwrap();
        let o1 = store.resolve_iri("o1").unwrap();
        assert_eq!((c.matches_for_subject(s3), c.matches_for_object(o1)), (1, 6));
        assert!(store.pred_card("absent").is_none());
    }

    #[test]
    fn arena_bytes_cover_both_orders_of_every_base_relation() {
        let mut store = TripleStore::from_triples(sample_triples());
        let expect: usize = ["p", "q"]
            .map(|iri| rel(&store, iri))
            .iter()
            .map(|r| r.so.arena_bytes() + r.os.arena_bytes())
            .sum();
        assert!(expect > 0);
        assert_eq!(store.arena_bytes(), expect);
        // Staging leaves the base arenas alone.
        store.stage_add_triples(vec![t("fresh", "p", "x")]);
        assert_eq!(store.arena_bytes(), expect);
    }

    #[test]
    fn invariant_check_catches_a_relation_whose_orders_disagree() {
        let mut store = TripleStore::from_triples(vec![t("a", "p", "b"), t("c", "p", "d")]);
        let other = TriePair::from_so(vec![(0, 2)]);
        store.rels[0].os = other.os;
        assert!(!store.__invariant_check());
    }
}
