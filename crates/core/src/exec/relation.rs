//! Operand assembly: hands the join each relation as the tries the
//! plan's attribute orders need.
//!
//! A trie over one attribute order is "analogous to a single index in a
//! standard database" (paper §III-A), and the store already *is* those
//! indexes: every (shard, predicate) lives as its two frozen auto-layout
//! tries, subject-major (`[s, o]`) and object-major (`[o, s]`) — the only
//! two orders a binary RDF atom needs. What an operand needs beyond them
//! is memoised by the store value it is derived from: a staged delta
//! holds its overlays, a [`TriePair`](eh_rdf::TriePair) its `UintOnly`
//! re-freezes for the Table I +Layout ablation, and a partitioned store
//! each predicate's merged root domain. Nothing here caches anything, so
//! a derived value lives exactly as long as the store value it came from.

use std::sync::{Arc, OnceLock};

use eh_query::Atom;
use eh_trie::{DeltaOverlay, FrozenTrie, LayoutPolicy, TupleBuffer};

use crate::shared::SharedStore;

/// One shard's contribution to a relation: its frozen base trie plus its
/// staged-delta overlay (when that shard has uncompacted novelty).
pub(crate) struct Layer {
    pub base: Arc<FrozenTrie>,
    pub overlay: Option<Arc<DeltaOverlay>>,
}

/// What [`relation`] hands the executor for one access path: `k ≥ 1`
/// layers. One layer is the `P = 1` case, a predicate resident in a
/// single shard, one shard's slice for a shard-local plan, or an absent
/// predicate (empty trie). Several are the non-empty shards of a
/// partitioned predicate, and then carry the merged effective root domain
/// — the generic join iterates/probes it at the relation's first level
/// and routes descents to the layers that contain each value.
pub(crate) struct Layered {
    pub layers: Vec<Layer>,
    /// `Some` iff `layers.len() > 1` (the store's memo).
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

/// The trie layout for an `auto_layout` flag: per-set bitset/uint
/// selection, or the uint-only ablation.
pub(crate) fn layout_policy(auto: bool) -> LayoutPolicy {
    if auto {
        LayoutPolicy::Auto
    } else {
        LayoutPolicy::UintOnly
    }
}

/// The operand for one access path of `atom` — what the executor
/// consumes. Overlays ride into the join as extra
/// [`SetRef`](eh_setops::SetRef) operands, never folded into an arena.
/// `only` restricts the view to one shard's slice of the predicate (the
/// shard-local execution path, whose eligibility check makes the
/// restriction lossless; a shard past a concurrent repartition reads as
/// empty); otherwise every shard that holds base pairs or staged novelty
/// contributes a layer. Predicates absent from the store resolve to one
/// shared empty trie.
///
/// Every layer, overlay and union root of the operand is taken under
/// **one** store read guard, so each operand is one store state; memos
/// fill through `OnceLock`, so concurrent readers build each value once
/// (and a writer waits for the builds in flight). Operands of one join
/// may still come from different states — the epoch bracket in
/// [`Engine::run_plan`](crate::Engine::run_plan) is what rules that out.
pub(crate) fn relation(
    store: &SharedStore,
    atom: &Atom,
    subject_first: bool,
    auto_layout: bool,
    only: Option<usize>,
) -> Layered {
    static EMPTY: OnceLock<Arc<FrozenTrie>> = OnceLock::new();
    let store = store.read();
    let pred = store.resolve_iri(&atom.relation);
    let mut layers: Vec<Layer> = pred
        .map(|pred| {
            only.map_or(0..store.partitions(), |shard| shard..shard + 1)
                .filter_map(|shard| {
                    let pair = store.trie_pair(shard, pred)?;
                    let delta = store.shard_delta(shard, pred);
                    Some(Layer {
                        base: Arc::clone(pair.trie(subject_first, auto_layout)),
                        overlay: delta.map(|d| Arc::clone(d.overlay(subject_first))),
                    })
                })
                // Skip shards that contribute nothing to any set view:
                // dropping them here is what collapses a
                // one-shard-resident predicate back onto the exact
                // single-layer code path.
                .filter(|l| l.base.num_tuples() > 0 || l.overlay.is_some())
                .collect()
        })
        .unwrap_or_default();
    if layers.is_empty() {
        let empty = EMPTY
            .get_or_init(|| Arc::new(FrozenTrie::build(TupleBuffer::new(2), LayoutPolicy::Auto)));
        layers.push(Layer { base: Arc::clone(empty), overlay: None });
    }
    let union_root = pred
        .filter(|_| layers.len() > 1)
        .and_then(|pred| store.union_root(pred, subject_first).cloned());
    Layered { layers, union_root }
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

    /// Unwrap a one-layer operand of [`relation`] — the whole relation
    /// (`only = None`) or one shard's slice of it.
    fn single_rel(
        s: &SharedStore,
        a: &Atom,
        subject_first: bool,
        auto_layout: bool,
        only: Option<usize>,
    ) -> (Arc<FrozenTrie>, Option<Arc<DeltaOverlay>>) {
        let Layered { mut layers, union_root } = relation(s, a, subject_first, auto_layout, only);
        assert!(layers.len() == 1 && union_root.is_none(), "expected a single layer");
        let Layer { base, overlay } = layers.pop().expect("checked length");
        (base, overlay)
    }

    /// The base trie of a one-layer operand, whatever is staged on it.
    fn base(s: &SharedStore, a: &Atom, subject_first: bool, auto_layout: bool) -> Arc<FrozenTrie> {
        single_rel(s, a, subject_first, auto_layout, None).0
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

    /// The logical cardinality the planner and `EXPLAIN ANALYZE` read.
    fn cardinality(s: &SharedStore, a: &Atom) -> usize {
        let store = s.read();
        store.resolve_iri(&a.relation).map_or(0, |pred| store.pred_logical_len(pred))
    }

    /// Whether two optional `Arc`s are both absent or the same value.
    fn same<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    #[test]
    fn loads_both_orders() {
        let s = store();
        let a = atom_for(&s.read(), "p");
        let so = base(&s, &a, true, true);
        let os = base(&s, &a, false, true);
        assert_eq!(so.num_tuples(), 3);
        assert_eq!(os.num_tuples(), 3);
        // Subject-major roots on subjects (2 of them), object-major on
        // objects (2 of them).
        assert_eq!(so.root_set().len(), 2);
        assert_eq!(os.root_set().len(), 2);
    }

    #[test]
    fn auto_operands_are_the_store_tries_and_ablation_tries_are_memoised() {
        let s = store();
        let a = atom_for(&s.read(), "p");
        for subject_first in [true, false] {
            // Auto layout: the store's own Arc.
            let t = base(&s, &a, subject_first, true);
            assert!(Arc::ptr_eq(&t, &store_trie(&s, "p", 0, subject_first)));
            // UintOnly: re-frozen once from the store trie's tuples and
            // kept by its pair — a second read gets the same Arc.
            let t1 = base(&s, &a, subject_first, false);
            let t2 = base(&s, &a, subject_first, false);
            assert!(Arc::ptr_eq(&t1, &t2));
            assert_eq!(t1.to_tuples(), t.to_tuples());
            assert_eq!(t1.bitset_blocks(), 0);
        }
    }

    #[test]
    fn missing_predicate_is_empty() {
        let s = store();
        let a = atom_for(&s.read(), "absent");
        assert!(base(&s, &a, true, true).is_empty());
        assert!(base(&s, &a, true, false).is_empty());
        assert_eq!(cardinality(&s, &a), 0);
    }

    #[test]
    fn cardinality_is_the_logical_relation_size() {
        let s = store();
        let a = atom_for(&s.read(), "p");
        assert_eq!(cardinality(&s, &a), 3);
        s.write().stage_add_triples(vec![triple("s3", "p", "o1")]);
        assert_eq!(cardinality(&s, &a), 4);
    }

    /// The warm-path contract: many workers requesting overlapping
    /// ablation tries build one `Arc` per (pair, order).
    #[test]
    fn concurrent_warmers_get_one_ablation_trie_per_pair_and_order() {
        let s = store();
        let a = atom_for(&s.read(), "p");
        let tries = eh_par::run_tasks(4, 16, None, |i| base(&s, &a, i % 2 == 0, false));
        assert!(!Arc::ptr_eq(&tries[0], &tries[1]), "the orders are two tries");
        for (i, t) in tries.iter().enumerate() {
            assert!(Arc::ptr_eq(t, &tries[i % 2]));
        }
    }

    /// Compacting one predicate replaces its pair, and with it the
    /// ablation tries that pair kept; every other predicate keeps its
    /// `Arc`s.
    #[test]
    fn compaction_keeps_untouched_predicates() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b"), triple("a", "q", "b")]);
        let (ap, aq) = { (atom_for(&s.read(), "p"), atom_for(&s.read(), "q")) };
        let p_before = base(&s, &ap, true, false);
        let q_before = base(&s, &aq, true, false);

        add_to_base(&s, triple("c", "p", "d"));
        let p_after = base(&s, &ap, true, false);
        assert!(!Arc::ptr_eq(&p_before, &p_after));
        assert_eq!(p_after.num_tuples(), 2);
        assert!(Arc::ptr_eq(&p_after, &base(&s, &ap, true, false)), "re-frozen once");
        assert!(Arc::ptr_eq(&q_before, &base(&s, &aq, true, false)));
    }

    #[test]
    fn emptied_relation_resolves_to_empty_trie() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b")]);
        let a = atom_for(&s.read(), "p");
        assert_eq!(base(&s, &a, true, true).num_tuples(), 1);
        {
            let mut store = s.write();
            store.stage_remove_triples(vec![triple("a", "p", "b")]);
            store.compact_all();
        }
        assert!(base(&s, &a, true, true).is_empty());
        assert!(base(&s, &a, true, false).is_empty());
        assert_eq!(cardinality(&s, &a), 0);
    }

    /// The LSM contract: a staged batch on `p` gives `p` a new overlay
    /// while its base trie and `q`'s overlay keep their `Arc`s;
    /// compaction then replaces the store's base tries and the overlays
    /// go with the deltas they were built from.
    #[test]
    fn staged_deltas_serve_overlays_and_keep_base_tries() {
        let s = SharedStore::from_triples(vec![triple("a", "p", "b"), triple("a", "q", "b")]);
        let (a, aq) = (atom_for(&s.read(), "p"), atom_for(&s.read(), "q"));
        let before = base(&s, &a, true, true);

        s.write().stage_add_triples(vec![triple("c", "p", "d"), triple("c", "q", "d")]);
        let (trie, ov) = single_rel(&s, &a, true, true, None);
        assert!(Arc::ptr_eq(&before, &trie), "base trie retired by a staged update");
        let ov = ov.expect("delta resident");
        assert_eq!((ov.inserted(), ov.deleted()), (1, 0));
        assert!(same(&Some(Arc::clone(&ov)), &single_rel(&s, &a, true, true, None).1));
        assert_eq!(cardinality(&s, &a), 2);
        // Object-major overlay is served independently.
        let (_, ov_os) = single_rel(&s, &a, false, true, None);
        assert_eq!(ov_os.expect("os overlay").inserted(), 1);
        let q_ov = single_rel(&s, &aq, true, true, None).1;

        // A second batch on p alone: p's overlay is rebuilt, q's is not.
        s.write().stage_remove_triples(vec![triple("a", "p", "b")]);
        let (trie, ov2) = single_rel(&s, &a, true, true, None);
        assert!(Arc::ptr_eq(&before, &trie));
        let ov2 = ov2.expect("delta resident");
        assert!(!Arc::ptr_eq(&ov, &ov2));
        assert_eq!((ov2.inserted(), ov2.deleted()), (1, 1));
        assert!(same(&q_ov, &single_rel(&s, &aq, true, true, None).1));

        // Compaction folds the deltas into fresh store tries; overlays drop.
        s.write().compact_all();
        let (trie, ov) = single_rel(&s, &a, true, true, None);
        assert!(!Arc::ptr_eq(&before, &trie));
        assert!(Arc::ptr_eq(&trie, &store_trie(&s, "p", 0, true)));
        assert_eq!(trie.num_tuples(), 1);
        assert!(ov.is_none());
        assert_eq!(cardinality(&s, &a), 1);
    }

    /// Enough distinct subjects to populate every shard at P = 4, under
    /// two predicates.
    fn wide_store(partitions: usize) -> SharedStore {
        let triples: Vec<Triple> = (0..32)
            .flat_map(|i| {
                let s = format!("s{i}");
                [triple(&s, "p", &format!("o{}", i % 3)), triple(&s, "q", "o0")]
            })
            .collect();
        SharedStore::from(TripleStore::from_triples_partitioned(triples, partitions))
    }

    /// The shard a (resident) subject IRI hashes to.
    fn shard_of(s: &SharedStore, subject: &str) -> usize {
        let store = s.read();
        store.partitioner().shard_of(store.resolve_iri(subject).unwrap())
    }

    /// A partitioned store serves per-shard operands whose union root
    /// reproduces the P = 1 root set exactly, in both trie orders. The
    /// union root is one `Arc` across reads until a batch stages on the
    /// predicate.
    #[test]
    fn partitioned_relation_serves_sharded_operands() {
        let s1 = wide_store(1);
        let s4 = wide_store(4);
        let a = atom_for(&s4.read(), "p");
        assert_eq!(s4.read().partitions(), 4);
        let union_root = |subject_first| {
            relation(&s4, &a, subject_first, true, None).union_root.expect("several layers")
        };
        for subject_first in [true, false] {
            let reference = base(&s1, &a, subject_first, true);
            let rel = relation(&s4, &a, subject_first, true, None);
            assert!(rel.layers.len() >= 2, "32 spread subjects must occupy several shards");
            let total: usize = rel.layers.iter().map(|l| l.base.num_tuples()).sum();
            assert_eq!(total, reference.num_tuples(), "shards partition the pairs");
            let expect: Vec<u32> = reference.root_set().iter().collect();
            assert_eq!(rel.root(), expect, "union root reproduces the P=1 root set");
            assert!(Arc::ptr_eq(rel.union_root.as_ref().unwrap(), &union_root(subject_first)));
        }
        let before = [true, false].map(union_root);
        s4.write().stage_add_triples(vec![triple("s1", "p", "o9")]);
        for (subject_first, old) in [true, false].into_iter().zip(&before) {
            let now = union_root(subject_first);
            assert!(!Arc::ptr_eq(old, &now), "a staged batch resets the merged root");
            assert!(Arc::ptr_eq(&now, &union_root(subject_first)));
        }
        let os_root = union_root(false);
        assert!(os_root.contains(&s4.read().resolve_iri("o9").unwrap()));
        // Compaction moves pairs from delta to base without changing the
        // relation, so the merged root it would rebuild is the one kept.
        s4.write().compact_all();
        assert!(Arc::ptr_eq(&os_root, &union_root(false)));
        let mut flat = s4.read().clone();
        flat.repartition(1);
        let flat = base(&SharedStore::from(flat), &a, false, true);
        assert_eq!(*os_root, flat.root_set().iter().collect::<Vec<u32>>());
    }

    /// Shard-local compaction precision: folding one shard's delta of
    /// `p` replaces that shard's tries, overlay and ablation tries — every
    /// other shard of `p`, and every shard of `q`, keeps its `Arc`s.
    #[test]
    fn shard_local_compaction_drops_only_that_shards_memos() {
        let s = wide_store(4);
        let (a, aq) = (atom_for(&s.read(), "p"), atom_for(&s.read(), "q"));
        let pred = s.read().resolve_iri("p").unwrap();
        let target = shard_of(&s, "s0");
        let other = (0..32).map(|i| format!("s{i}")).find(|x| shard_of(&s, x) != target).unwrap();
        s.write().stage_add_triples(
            [("s0", "p"), (other.as_str(), "p"), ("s0", "q"), (other.as_str(), "q")]
                .map(|(subject, rel)| triple(subject, rel, "o9")),
        );
        type Memos = (Arc<FrozenTrie>, Arc<FrozenTrie>, Option<Arc<DeltaOverlay>>);
        let memos = |atom: &Atom| -> Vec<Memos> {
            (0..4)
                .map(|shard| {
                    let (auto, ov) = single_rel(&s, atom, true, true, Some(shard));
                    (auto, single_rel(&s, atom, true, false, Some(shard)).0, ov)
                })
                .collect()
        };
        let (p_before, q_before) = (memos(&a), memos(&aq));
        assert!(p_before[target].2.is_some() && q_before[target].2.is_some());

        assert!(s.write().compact_pred_in(target, pred));
        for (shard, (old, now)) in p_before.iter().zip(memos(&a)).enumerate() {
            let kept =
                Arc::ptr_eq(&old.0, &now.0) && Arc::ptr_eq(&old.1, &now.1) && same(&old.2, &now.2);
            if shard == target {
                assert!(!Arc::ptr_eq(&old.0, &now.0) && !Arc::ptr_eq(&old.1, &now.1));
                assert!(now.2.is_none(), "delta folded");
                assert_eq!(now.0.num_tuples(), old.0.num_tuples() + 1);
            } else {
                assert!(kept, "untouched shard {shard} of p lost a memo");
            }
        }
        for (shard, (old, now)) in q_before.iter().zip(memos(&aq)).enumerate() {
            assert!(Arc::ptr_eq(&old.0, &now.0), "q shard {shard}");
            assert!(Arc::ptr_eq(&old.1, &now.1) && same(&old.2, &now.2), "q shard {shard}");
        }
    }

    /// Staged novelty at P > 1 rides per-shard overlays: a batch gives
    /// the predicate a new overlay in exactly the shard owning the staged
    /// subject, and a predicate resident in a single shard collapses back
    /// to a single layer.
    #[test]
    fn partitioned_overlays_route_by_subject_shard() {
        let s = wide_store(4);
        let a = atom_for(&s.read(), "p");
        let overlays = || -> Vec<_> {
            (0..4).map(|shard| single_rel(&s, &a, true, true, Some(shard)).1).collect()
        };
        s.write().stage_add_triples((0..32).map(|i| triple(&format!("s{i}"), "p", "o77")));
        let before = overlays();
        assert!(before.iter().all(Option::is_some), "every shard staged a pair");

        let target = shard_of(&s, "s1");
        s.write().stage_add_triples(vec![triple("s1", "p", "o78")]);
        for (shard, (old, now)) in before.iter().zip(overlays()).enumerate() {
            assert_eq!(!same(old, &now), shard == target, "overlay misrouted for shard {shard}");
        }

        // A predicate whose pairs all live in one shard serves a single
        // operand even on a partitioned store.
        add_to_base(&s, triple("lonely", "r", "z"));
        let ar = atom_for(&s.read(), "r");
        assert_eq!(single_rel(&s, &ar, true, true, None).0.num_tuples(), 1);
    }
}
