//! The TripleBit-style baseline: per-predicate two-order compact pair
//! stores with aggregate indexes and semi-join pruning.
//!
//! Substitution fidelity (DESIGN.md): TripleBit (Yuan et al.) stores
//! triples in a predicate-partitioned compact matrix with two orderings
//! and "two auxiliary index structures and two binary aggregate indexes to
//! use the selectivity estimation of query patterns to select the most
//! effective indexes, minimize the number of indexes needed, and determine
//! the query plan" (paper §IV-A2). This analogue keeps exactly one SO and
//! one OS clustered order per predicate (a vertically partitioned copy of
//! the store's logical contents as the matrix), per-predicate aggregate
//! subject/object lists, and prunes candidate bindings by intersecting the
//! aggregate lists of every pattern a variable occurs in — TripleBit's
//! semi-join-style reduction — before the same greedy pairwise pipeline as
//! the RDF-3X analogue.

use std::cell::RefCell;
use std::collections::HashMap;

use eh_query::{Atom, ConjunctiveQuery, Var};
use eh_rdf::TripleStore;
use eh_trie::TupleBuffer;

use crate::pairwise::{greedy_inl_execute, InlBackend};
use crate::traits::QueryEngine;
use crate::vp::PairTable;

/// Aggregate index for one predicate: sorted distinct subjects/objects.
#[derive(Debug, Default)]
struct Aggregates {
    subjects: Vec<u32>,
    objects: Vec<u32>,
}

/// TripleBit analogue (see module docs).
pub struct TripleBitStyle<'s> {
    store: &'s TripleStore,
    tables: HashMap<u32, PairTable>,
    aggregates: HashMap<u32, Aggregates>,
    /// Per-query candidate sets computed by the semi-join pruning pass;
    /// keyed by variable. Interior-mutable because [`QueryEngine`] takes
    /// `&self`.
    candidates: RefCell<HashMap<Var, Vec<u32>>>,
}

impl<'s> TripleBitStyle<'s> {
    /// Copy `store`'s logical contents (staged deltas included) into the
    /// two-order matrix and build the aggregate indexes (load time,
    /// excluded from timing).
    pub fn new(store: &'s TripleStore) -> TripleBitStyle<'s> {
        let tables = PairTable::tables_of(store);
        let mut aggregates = HashMap::new();
        for (&pred, table) in &tables {
            let mut subjects: Vec<u32> = table.so_pairs().iter().map(|&(s, _)| s).collect();
            subjects.dedup(); // so_pairs is subject-sorted
            let mut objects: Vec<u32> = table.os_pairs().iter().map(|&(o, _)| o).collect();
            objects.dedup();
            aggregates.insert(pred, Aggregates { subjects, objects });
        }
        TripleBitStyle { store, tables, aggregates, candidates: RefCell::new(HashMap::new()) }
    }

    fn table(&self, atom: &Atom) -> Option<&PairTable> {
        self.store.resolve_iri(&atom.relation).and_then(|p| self.tables.get(&p))
    }

    /// TripleBit's pruning pass: for every variable occurring in more
    /// than one pattern, intersect the aggregate value lists of all its
    /// occurrences. A later binding outside the intersection can never
    /// join. Pruning is cost-gated like TripleBit's index selection: when
    /// every occurrence list is large the intersection cannot pay for
    /// itself and is skipped.
    fn prune(&self, q: &ConjunctiveQuery) {
        /// Smallest-list size beyond which pruning is skipped.
        const PRUNE_LIMIT: usize = 4096;
        let mut cands: HashMap<Var, Vec<u32>> = HashMap::new();
        for v in 0..q.num_vars() {
            if q.is_selected(v) {
                continue;
            }
            let mut lists: Vec<&[u32]> = Vec::new();
            for a in q.atoms() {
                let Some(p) = self.store.resolve_iri(&a.relation) else {
                    lists.push(&[]);
                    continue;
                };
                let Some(agg) = self.aggregates.get(&p) else {
                    lists.push(&[]);
                    continue;
                };
                if a.vars[0] == v {
                    lists.push(&agg.subjects);
                } else if a.vars[1] == v {
                    lists.push(&agg.objects);
                }
            }
            if lists.len() < 2 {
                continue; // single occurrence: nothing to intersect
            }
            if lists.iter().map(|l| l.len()).min().unwrap_or(0) > PRUNE_LIMIT {
                continue; // too coarse to pay for itself
            }
            lists.sort_by_key(|l| l.len());
            // Filter the smallest list through the others by binary
            // search: O(|smallest| · log) regardless of the large lists.
            let mut acc: Vec<u32> = lists[0].to_vec();
            for l in &lists[1..] {
                acc.retain(|v| l.binary_search(v).is_ok());
                if acc.is_empty() {
                    break;
                }
            }
            cands.insert(v, acc);
        }
        *self.candidates.borrow_mut() = cands;
    }
}

impl InlBackend for TripleBitStyle<'_> {
    fn pattern_count(&self, atom: &Atom, s: Option<u32>, o: Option<u32>) -> usize {
        let Some(t) = self.table(atom) else { return 0 };
        match (s, o) {
            (None, None) => t.len(),
            (Some(s), None) => t.pairs_for_subject(s).len(),
            (None, Some(o)) => t.pairs_for_object(o).len(),
            (Some(s), Some(o)) => usize::from(t.contains(s, o)),
        }
    }

    fn for_each_object(&self, atom: &Atom, s: u32, f: &mut dyn FnMut(u32)) {
        if let Some(t) = self.table(atom) {
            for &(_, o) in t.pairs_for_subject(s) {
                f(o);
            }
        }
    }

    fn for_each_subject(&self, atom: &Atom, o: u32, f: &mut dyn FnMut(u32)) {
        if let Some(t) = self.table(atom) {
            for &(_, s) in t.pairs_for_object(o) {
                f(s);
            }
        }
    }

    fn contains_pair(&self, atom: &Atom, s: u32, o: u32) -> bool {
        self.table(atom).is_some_and(|t| t.contains(s, o))
    }

    fn avg_fanout_subject(&self, atom: &Atom) -> usize {
        self.table(atom).map_or(1, |t| (t.len() / t.distinct_subjects().max(1)).max(1))
    }

    fn avg_fanout_object(&self, atom: &Atom) -> usize {
        self.table(atom).map_or(1, |t| (t.len() / t.distinct_objects().max(1)).max(1))
    }

    fn scan_pairs(&self, atom: &Atom, s: Option<u32>, o: Option<u32>) -> Vec<(u32, u32)> {
        let Some(t) = self.table(atom) else { return Vec::new() };
        match (s, o) {
            (None, None) => t.so_pairs().to_vec(),
            (Some(s), None) => t.pairs_for_subject(s).to_vec(),
            (None, Some(o)) => t.pairs_for_object(o).iter().map(|&(o, s)| (s, o)).collect(),
            (Some(s), Some(o)) => {
                if t.contains(s, o) {
                    vec![(s, o)]
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn candidate_ok(&self, _q: &ConjunctiveQuery, var: Var, value: u32) -> bool {
        match self.candidates.borrow().get(&var) {
            Some(list) => list.binary_search(&value).is_ok(),
            None => true,
        }
    }
}

impl QueryEngine for TripleBitStyle<'_> {
    fn name(&self) -> &'static str {
        "TripleBit-style"
    }

    fn execute(&self, q: &ConjunctiveQuery) -> TupleBuffer {
        self.prune(q);
        let out = greedy_inl_execute(self, q);
        self.candidates.borrow_mut().clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::QueryBuilder;
    use eh_rdf::{Term, Triple};

    fn store() -> TripleStore {
        TripleStore::from_triples(vec![
            Triple::new(Term::iri("a"), Term::iri("p"), Term::iri("b")),
            Triple::new(Term::iri("b"), Term::iri("p"), Term::iri("c")),
            Triple::new(Term::iri("x"), Term::iri("p"), Term::iri("y")),
            Triple::new(Term::iri("b"), Term::iri("q"), Term::iri("d")),
        ])
    }

    #[test]
    fn pruning_intersects_aggregate_lists() {
        let s = store();
        let e = TripleBitStyle::new(&s);
        let p = s.resolve_iri("p").unwrap();
        let qp = s.resolve_iri("q").unwrap();
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.atom("p", p, x, y).atom("q", qp, y, z);
        let q = qb.select(vec![x, z]).build().unwrap();
        e.prune(&q);
        // y occurs as object of p and subject of q: candidates = {b}.
        let b = s.resolve_iri("b").unwrap();
        assert_eq!(e.candidates.borrow()[&y], vec![b]);
        // x and z occur once: unconstrained.
        assert!(!e.candidates.borrow().contains_key(&x));
    }

    #[test]
    fn join_matches_expected() {
        let s = store();
        let e = TripleBitStyle::new(&s);
        let p = s.resolve_iri("p").unwrap();
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.atom("p", p, x, y).atom("p", p, y, z);
        let q = qb.select(vec![x, z]).build().unwrap();
        let out = e.execute(&q);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn aggregates_are_sorted_distinct() {
        let s = store();
        let e = TripleBitStyle::new(&s);
        let p = s.resolve_iri("p").unwrap();
        let agg = &e.aggregates[&p];
        assert!(agg.subjects.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(agg.subjects.len(), 3);
        assert_eq!(agg.objects.len(), 3);
    }
}
