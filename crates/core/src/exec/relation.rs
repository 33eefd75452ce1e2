//! Operand assembly: hands the join each relation as the tries the
//! plan's attribute orders need.
//!
//! A trie over one attribute order is "analogous to a single index in a
//! standard database" (paper §III-A), and the store already *is* those
//! indexes: every predicate lives as its two frozen auto-layout tries,
//! subject-major (`[s, o]`) and object-major (`[o, s]`) — the only two
//! orders a binary RDF atom needs. What an operand needs beyond them is
//! memoised by the store value it is derived from: a staged delta holds
//! its overlays, and a [`TriePair`](eh_rdf::TriePair) its `UintOnly`
//! re-freezes for the Table I +Layout ablation. Nothing here caches
//! anything, so a derived value lives exactly as long as the store value
//! it came from.

use std::sync::{Arc, OnceLock};

use eh_query::Atom;
use eh_rdf::TripleStore;
use eh_trie::{DeltaOverlay, FrozenTrie, LayoutPolicy, TupleBuffer};

/// What [`relation`] hands the executor for one access path: the
/// predicate's frozen base trie plus its staged-delta overlay, when it
/// has uncompacted novelty. An absent predicate is one empty trie.
pub(crate) struct Layered {
    pub base: Arc<FrozenTrie>,
    pub overlay: Option<Arc<DeltaOverlay>>,
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
/// Predicates absent from the store resolve to one shared empty trie.
/// Memos fill through `OnceLock` on the pinned version with no lock held,
/// so concurrent readers build each value once and no writer waits for
/// them.
pub(crate) fn relation(
    store: &TripleStore,
    atom: &Atom,
    subject_first: bool,
    auto_layout: bool,
) -> Layered {
    static EMPTY: OnceLock<Arc<FrozenTrie>> = OnceLock::new();
    let pred = store.resolve_iri(&atom.relation);
    let Some((pred, pair)) = pred.and_then(|pred| Some((pred, store.trie_pair(pred)?))) else {
        let empty = EMPTY
            .get_or_init(|| Arc::new(FrozenTrie::build(TupleBuffer::new(2), LayoutPolicy::Auto)));
        return Layered { base: Arc::clone(empty), overlay: None };
    };
    Layered {
        base: Arc::clone(pair.trie(subject_first, auto_layout)),
        overlay: store.delta(pred).map(|d| Arc::clone(d.overlay(subject_first))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedStore;
    use eh_query::QueryBuilder;
    use eh_rdf::{Term, Triple};

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
        let mut version = s.write();
        let store = Arc::make_mut(&mut version.store);
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

    /// The operand [`relation`] hands the executor, as its parts.
    fn single_rel(
        s: &SharedStore,
        a: &Atom,
        subject_first: bool,
        auto_layout: bool,
    ) -> (Arc<FrozenTrie>, Option<Arc<DeltaOverlay>>) {
        let Layered { base, overlay } = relation(&s.read(), a, subject_first, auto_layout);
        (base, overlay)
    }

    /// The base trie of an operand, whatever is staged on it.
    fn base(s: &SharedStore, a: &Atom, subject_first: bool, auto_layout: bool) -> Arc<FrozenTrie> {
        single_rel(s, a, subject_first, auto_layout).0
    }

    /// The store's own base trie for a predicate IRI in one order.
    fn store_trie(s: &SharedStore, rel: &str, subject_first: bool) -> Arc<FrozenTrie> {
        let store = s.read();
        let pred = store.resolve_iri(rel).unwrap();
        Arc::clone(store.trie_pair(pred).unwrap().order(subject_first))
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
            assert!(Arc::ptr_eq(&t, &store_trie(&s, "p", subject_first)));
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
        Arc::make_mut(&mut s.write().store).stage_add_triples(vec![triple("s3", "p", "o1")]);
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
            let mut version = s.write();
            let store = Arc::make_mut(&mut version.store);
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

        Arc::make_mut(&mut s.write().store)
            .stage_add_triples(vec![triple("c", "p", "d"), triple("c", "q", "d")]);
        let (trie, ov) = single_rel(&s, &a, true, true);
        assert!(Arc::ptr_eq(&before, &trie), "base trie retired by a staged update");
        let ov = ov.expect("delta resident");
        assert_eq!((ov.inserted(), ov.deleted()), (1, 0));
        assert!(same(&Some(Arc::clone(&ov)), &single_rel(&s, &a, true, true).1));
        assert_eq!(cardinality(&s, &a), 2);
        // Object-major overlay is served independently.
        let (_, ov_os) = single_rel(&s, &a, false, true);
        assert_eq!(ov_os.expect("os overlay").inserted(), 1);
        let q_ov = single_rel(&s, &aq, true, true).1;

        // A second batch on p alone: p's overlay is rebuilt, q's is not.
        Arc::make_mut(&mut s.write().store).stage_remove_triples(vec![triple("a", "p", "b")]);
        let (trie, ov2) = single_rel(&s, &a, true, true);
        assert!(Arc::ptr_eq(&before, &trie));
        let ov2 = ov2.expect("delta resident");
        assert!(!Arc::ptr_eq(&ov, &ov2));
        assert_eq!((ov2.inserted(), ov2.deleted()), (1, 1));
        assert!(same(&q_ov, &single_rel(&s, &aq, true, true).1));

        // Compaction folds the deltas into fresh store tries; overlays drop.
        Arc::make_mut(&mut s.write().store).compact_all();
        let (trie, ov) = single_rel(&s, &a, true, true);
        assert!(!Arc::ptr_eq(&before, &trie));
        assert!(Arc::ptr_eq(&trie, &store_trie(&s, "p", true)));
        assert_eq!(trie.num_tuples(), 1);
        assert!(ov.is_none());
        assert_eq!(cardinality(&s, &a), 1);
    }
}
