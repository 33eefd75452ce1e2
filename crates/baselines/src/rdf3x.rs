//! The RDF-3X-style baseline: a full triple table with all six
//! SPO-permutation clustered indexes and aggregate statistics.
//!
//! Substitution fidelity (DESIGN.md): RDF-3X (Neumann & Weikum) "builds a
//! full set of permutations on all triples and uses selectivity estimates
//! to choose the best join order" (paper §IV-A2 and Appendix A). This
//! analogue materialises the six sorted permutations plus per-predicate
//! aggregate statistics, picks a greedy selectivity-minimal pairwise
//! order, and executes joins by clustered-index range lookups — strong on
//! selective acyclic patterns, pairwise-suboptimal on cycles, which is
//! precisely the profile Table II measures.

use std::collections::HashMap;

use eh_query::{Atom, ConjunctiveQuery};
use eh_rdf::TripleStore;
use eh_trie::TupleBuffer;

use crate::pairwise::{greedy_inl_execute, InlBackend};
use crate::traits::QueryEngine;

/// One sorted triple permutation with binary-search range access.
#[derive(Debug)]
struct Permutation {
    rows: Vec<[u32; 3]>,
}

impl Permutation {
    fn build(triples: impl Iterator<Item = [u32; 3]>) -> Permutation {
        let mut rows: Vec<[u32; 3]> = triples.collect();
        rows.sort_unstable();
        rows.dedup();
        Permutation { rows }
    }

    fn range1(&self, a: u32) -> &[[u32; 3]] {
        let lo = self.rows.partition_point(|r| r[0] < a);
        let hi = self.rows.partition_point(|r| r[0] <= a);
        &self.rows[lo..hi]
    }

    fn range2(&self, a: u32, b: u32) -> &[[u32; 3]] {
        let lo = self.rows.partition_point(|r| (r[0], r[1]) < (a, b));
        let hi = self.rows.partition_point(|r| (r[0], r[1]) <= (a, b));
        &self.rows[lo..hi]
    }

    fn contains(&self, t: [u32; 3]) -> bool {
        self.rows.binary_search(&t).is_ok()
    }
}

/// Per-predicate aggregate statistics (RDF-3X's aggregated indexes,
/// reduced to what the join-order heuristic consumes).
#[derive(Debug, Clone, Copy, Default)]
struct PredStats {
    triples: usize,
    distinct_s: usize,
    distinct_o: usize,
}

/// RDF-3X analogue (see module docs).
pub struct Rdf3xStyle<'s> {
    store: &'s TripleStore,
    /// (p, s, o) — the PSO clustered index.
    pso: Permutation,
    /// (p, o, s) — the POS clustered index.
    pos: Permutation,
    /// (s, p, o), (o, p, s) — for fully-bound membership and the
    /// remaining access paths of the full permutation set.
    spo: Permutation,
    ops: Permutation,
    /// (s, o, p) and (o, s, p) complete the six permutations; unused by
    /// the fixed-predicate LUBM workload but kept for design fidelity.
    sop: Permutation,
    osp: Permutation,
    stats: HashMap<u32, PredStats>,
}

impl<'s> Rdf3xStyle<'s> {
    /// Build the six permutation indexes and aggregate statistics over
    /// `store`'s logical contents (staged deltas included;
    /// construction is "load time" — excluded from query timing, like
    /// the paper's methodology).
    pub fn new(store: &'s TripleStore) -> Rdf3xStyle<'s> {
        let t = || store.encoded_triples();
        let pso = Permutation::build(t().map(|t| [t.p, t.s, t.o]));
        let pos = Permutation::build(t().map(|t| [t.p, t.o, t.s]));
        let spo = Permutation::build(t().map(|t| [t.s, t.p, t.o]));
        let ops = Permutation::build(t().map(|t| [t.o, t.p, t.s]));
        let sop = Permutation::build(t().map(|t| [t.s, t.o, t.p]));
        let osp = Permutation::build(t().map(|t| [t.o, t.s, t.p]));
        // Aggregate statistics off the PSO/POS permutations: a predicate's
        // distinct subjects (objects) are its distinct (p, s) ((p, o))
        // prefixes.
        let mut stats: HashMap<u32, PredStats> = HashMap::new();
        for (i, r) in pso.rows.iter().enumerate() {
            let st = stats.entry(r[0]).or_default();
            st.triples += 1;
            st.distinct_s += usize::from(i == 0 || pso.rows[i - 1][..2] != r[..2]);
        }
        for (i, r) in pos.rows.iter().enumerate() {
            if i == 0 || pos.rows[i - 1][..2] != r[..2] {
                stats.entry(r[0]).or_default().distinct_o += 1;
            }
        }
        Rdf3xStyle { store, pso, pos, spo, ops, sop, osp, stats }
    }

    fn pred(&self, atom: &Atom) -> Option<u32> {
        self.store.resolve_iri(&atom.relation)
    }

    /// Aggregate-index statistics for one predicate.
    fn stat(&self, atom: &Atom) -> PredStats {
        self.pred(atom).and_then(|p| self.stats.get(&p).copied()).unwrap_or_default()
    }

    /// Total triples in the ingested table (diagnostics).
    pub fn num_triples(&self) -> usize {
        self.pso.rows.len()
    }

    /// Access the rarely-used permutations so the full index set stays
    /// exercised by tests.
    #[doc(hidden)]
    pub fn permutation_sizes(&self) -> [usize; 6] {
        [
            self.spo.rows.len(),
            self.sop.rows.len(),
            self.pso.rows.len(),
            self.pos.rows.len(),
            self.osp.rows.len(),
            self.ops.rows.len(),
        ]
    }
}

impl InlBackend for Rdf3xStyle<'_> {
    fn pattern_count(&self, atom: &Atom, s: Option<u32>, o: Option<u32>) -> usize {
        let Some(p) = self.pred(atom) else { return 0 };
        match (s, o) {
            (None, None) => self.stat(atom).triples,
            (Some(s), None) => self.pso.range2(p, s).len(),
            (None, Some(o)) => self.pos.range2(p, o).len(),
            (Some(s), Some(o)) => usize::from(self.spo.contains([s, p, o])),
        }
    }

    fn for_each_object(&self, atom: &Atom, s: u32, f: &mut dyn FnMut(u32)) {
        if let Some(p) = self.pred(atom) {
            for r in self.pso.range2(p, s) {
                f(r[2]);
            }
        }
    }

    fn for_each_subject(&self, atom: &Atom, o: u32, f: &mut dyn FnMut(u32)) {
        if let Some(p) = self.pred(atom) {
            for r in self.pos.range2(p, o) {
                f(r[2]);
            }
        }
    }

    fn contains_pair(&self, atom: &Atom, s: u32, o: u32) -> bool {
        self.pred(atom).is_some_and(|p| self.spo.contains([s, p, o]))
    }

    fn avg_fanout_subject(&self, atom: &Atom) -> usize {
        let st = self.stat(atom);
        (st.triples / st.distinct_s.max(1)).max(1)
    }

    fn avg_fanout_object(&self, atom: &Atom) -> usize {
        let st = self.stat(atom);
        (st.triples / st.distinct_o.max(1)).max(1)
    }

    fn scan_pairs(&self, atom: &Atom, s: Option<u32>, o: Option<u32>) -> Vec<(u32, u32)> {
        let Some(p) = self.pred(atom) else { return Vec::new() };
        match (s, o) {
            (None, None) => self.pso.range1(p).iter().map(|r| (r[1], r[2])).collect(),
            (Some(s), None) => self.pso.range2(p, s).iter().map(|r| (s, r[2])).collect(),
            (None, Some(o)) => self.pos.range2(p, o).iter().map(|r| (r[2], o)).collect(),
            (Some(s), Some(o)) => {
                if self.spo.contains([s, p, o]) {
                    vec![(s, o)]
                } else {
                    Vec::new()
                }
            }
        }
    }
}

impl QueryEngine for Rdf3xStyle<'_> {
    fn name(&self) -> &'static str {
        "RDF-3X-style"
    }

    fn execute(&self, q: &ConjunctiveQuery) -> TupleBuffer {
        greedy_inl_execute(self, q)
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
            Triple::new(Term::iri("b"), Term::iri("q"), Term::iri("d")),
        ])
    }

    #[test]
    fn permutations_cover_all_triples() {
        let s = store();
        let e = Rdf3xStyle::new(&s);
        assert_eq!(e.num_triples(), 3);
        assert_eq!(e.permutation_sizes(), [3; 6]);
    }

    #[test]
    fn pattern_counts_are_exact() {
        let s = store();
        let e = Rdf3xStyle::new(&s);
        let p = s.resolve_iri("p").unwrap();
        let b = s.resolve_iri("b").unwrap();
        let mut qb = QueryBuilder::new();
        let (x, y) = (qb.var("x"), qb.var("y"));
        qb.atom("p", p, x, y);
        let q = qb.select(vec![x]).build().unwrap();
        let atom = &q.atoms()[0];
        assert_eq!(e.pattern_count(atom, None, None), 2);
        assert_eq!(e.pattern_count(atom, Some(b), None), 1);
        assert_eq!(e.pattern_count(atom, None, Some(b)), 1);
        assert_eq!(e.pattern_count(atom, Some(b), Some(b)), 0);
    }

    #[test]
    fn join_two_predicates() {
        let s = store();
        let e = Rdf3xStyle::new(&s);
        let p = s.resolve_iri("p").unwrap();
        let qp = s.resolve_iri("q").unwrap();
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.atom("p", p, x, y).atom("q", qp, y, z);
        let q = qb.select(vec![x, z]).build().unwrap();
        let out = e.execute(&q);
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0), &[s.resolve_iri("a").unwrap(), s.resolve_iri("d").unwrap()]);
    }

    #[test]
    fn missing_predicate_is_empty() {
        let s = store();
        let e = Rdf3xStyle::new(&s);
        let mut qb = QueryBuilder::new();
        let (x, y) = (qb.var("x"), qb.var("y"));
        qb.atom("absent", u32::MAX, x, y);
        let q = qb.select(vec![x]).build().unwrap();
        assert!(e.execute(&q).is_empty());
    }
}
