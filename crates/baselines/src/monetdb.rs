//! The MonetDB-style baseline: a vertically partitioned column store with
//! pairwise hash joins.
//!
//! Substitution fidelity (DESIGN.md): the paper ran MonetDB Jul2015 over
//! vertically partitioned tables (§IV-A2). Its Table II costs come from
//! (a) selections executed as column scans, (b) pairwise hash joins with
//! fully materialised intermediates, and (c) a join order driven by base
//! table sizes rather than bound-constant selectivities. This analogue
//! implements exactly those mechanics over its own vertically partitioned
//! copy of the store's logical contents.

use std::collections::HashMap;

use eh_query::{ConjunctiveQuery, Var};
use eh_rdf::TripleStore;
use eh_trie::TupleBuffer;

use crate::pairwise::{distinct_project, hash_join, Bindings};
use crate::traits::QueryEngine;
use crate::vp::PairTable;

/// Pairwise column-store engine (see module docs).
pub struct MonetDbStyle<'s> {
    store: &'s TripleStore,
    tables: HashMap<u32, PairTable>,
}

impl<'s> MonetDbStyle<'s> {
    /// An engine over `store`'s logical contents (staged deltas
    /// included), copied into column pairs at construction.
    pub fn new(store: &'s TripleStore) -> MonetDbStyle<'s> {
        MonetDbStyle { store, tables: PairTable::tables_of(store) }
    }

    fn table(&self, relation: &str) -> Option<&PairTable> {
        self.store.resolve_iri(relation).and_then(|p| self.tables.get(&p))
    }

    /// Scan one atom's predicate column pair, applying equality selections
    /// by filtering during the scan (no point indexes).
    fn scan(&self, q: &ConjunctiveQuery, i: usize) -> Bindings {
        let a = &q.atoms()[i];
        let s_sel = q.selection(a.vars[0]).map(|c| c.unwrap());
        let o_sel = q.selection(a.vars[1]).map(|c| c.unwrap());
        let mut vars: Vec<Var> = Vec::new();
        if s_sel.is_none() {
            vars.push(a.vars[0]);
        }
        if o_sel.is_none() {
            vars.push(a.vars[1]);
        }
        let mut rows = TupleBuffer::new(vars.len());
        if let Some(table) = self.table(&a.relation) {
            for &(s, o) in table.so_pairs() {
                if s_sel.is_some_and(|c| c != s) || o_sel.is_some_and(|c| c != o) {
                    continue;
                }
                match (s_sel.is_none(), o_sel.is_none()) {
                    (true, true) => rows.push(&[s, o]),
                    (true, false) => rows.push(&[s]),
                    (false, true) => rows.push(&[o]),
                    (false, false) => rows.push(&[]),
                }
            }
        }
        Bindings { vars, rows }
    }

    fn table_len(&self, q: &ConjunctiveQuery, i: usize) -> usize {
        self.table(&q.atoms()[i].relation).map_or(0, PairTable::len)
    }
}

impl QueryEngine for MonetDbStyle<'_> {
    fn name(&self) -> &'static str {
        "MonetDB-style"
    }

    fn execute(&self, q: &ConjunctiveQuery) -> TupleBuffer {
        let empty = || TupleBuffer::new(q.projection().len());
        if q.has_missing_constant() {
            return empty();
        }
        // Fully-constant atoms: scan-based existence checks (no point
        // index — MonetDB reads the column pair).
        let mut remaining: Vec<usize> = Vec::new();
        for i in 0..q.atoms().len() {
            let a = &q.atoms()[i];
            let s_sel = q.selection(a.vars[0]).map(|c| c.unwrap());
            let o_sel = q.selection(a.vars[1]).map(|c| c.unwrap());
            if let (Some(s), Some(o)) = (s_sel, o_sel) {
                let hit = self.table(&a.relation).is_some_and(|t| t.so_pairs().contains(&(s, o)));
                if !hit {
                    return empty();
                }
            } else {
                remaining.push(i);
            }
        }
        if remaining.is_empty() {
            return empty();
        }
        // Left-deep order by raw table size — deliberately blind to
        // selection selectivity (the design gap the paper measures).
        remaining.sort_by_key(|&i| self.table_len(q, i));
        let first = remaining.remove(0);
        let mut cur = self.scan(q, first);
        while !remaining.is_empty() {
            let shares = |i: usize| {
                q.atoms()[i].vars.iter().any(|&v| !q.is_selected(v) && cur.col(v).is_some())
            };
            let pick = remaining
                .iter()
                .copied()
                .filter(|&i| shares(i))
                .min_by_key(|&i| self.table_len(q, i))
                .or_else(|| remaining.first().copied())
                .unwrap();
            remaining.retain(|&i| i != pick);
            let scanned = self.scan(q, pick);
            cur = hash_join(&cur, &scanned);
            if cur.rows.is_empty() {
                return empty();
            }
        }
        distinct_project(&cur, q.projection())
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
            Triple::new(Term::iri("a"), Term::iri("q"), Term::iri("c")),
        ])
    }

    #[test]
    fn two_hop_path() {
        let s = store();
        let p = s.resolve_iri("p").unwrap();
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.atom("p", p, x, y).atom("p", p, y, z);
        let q = qb.select(vec![x, z]).build().unwrap();
        let out = MonetDbStyle::new(&s).execute(&q);
        assert_eq!(out.len(), 1);
        let a = s.resolve_iri("a").unwrap();
        let c = s.resolve_iri("c").unwrap();
        assert_eq!(out.row(0), &[a, c]);
    }

    #[test]
    fn selection_scan() {
        let s = store();
        let p = s.resolve_iri("p").unwrap();
        let b = s.resolve_iri("b");
        let mut qb = QueryBuilder::new();
        let x = qb.var("x");
        let o = qb.selection_var(b);
        qb.atom("p", p, x, o);
        let q = qb.select(vec![x]).build().unwrap();
        let out = MonetDbStyle::new(&s).execute(&q);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn missing_predicate_empty() {
        let s = store();
        let mut qb = QueryBuilder::new();
        let (x, y) = (qb.var("x"), qb.var("y"));
        qb.atom("absent", u32::MAX, x, y);
        let q = qb.select(vec![x]).build().unwrap();
        assert!(MonetDbStyle::new(&s).execute(&q).is_empty());
    }

    #[test]
    fn fully_constant_atom_filters() {
        let s = store();
        let p = s.resolve_iri("p").unwrap();
        let a = s.resolve_iri("a");
        let b = s.resolve_iri("b");
        let c = s.resolve_iri("c");
        // Satisfied constant atom: result unaffected.
        let mut qb = QueryBuilder::new();
        let x = qb.var("x");
        let y = qb.var("y");
        let s1 = qb.selection_var(a);
        let o1 = qb.selection_var(b);
        qb.atom("p", p, s1, o1).atom("p", p, x, y);
        let q = qb.select(vec![x]).build().unwrap();
        assert_eq!(MonetDbStyle::new(&s).execute(&q).len(), 2);
        // Violated constant atom: empty.
        let mut qb = QueryBuilder::new();
        let x = qb.var("x");
        let y = qb.var("y");
        let s1 = qb.selection_var(a);
        let o1 = qb.selection_var(c);
        qb.atom("p", p, s1, o1).atom("p", p, x, y);
        let q = qb.select(vec![x]).build().unwrap();
        assert!(MonetDbStyle::new(&s).execute(&q).is_empty());
    }
}
