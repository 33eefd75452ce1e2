//! Dictionary encoding of RDF terms to dense 32-bit keys (paper §II-A1).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::term::{hash_term_parts, Term, KIND_IRI, KIND_LITERAL};

/// A borrowed view of a term, so the map can be probed with a bare `&str`
/// without cloning it into an owned [`Term`] first. Both [`Term`] and the
/// probe hash through [`hash_term_parts`], which keeps the `HashMap`
/// contract (`k == q ⇒ hash(k) == hash(q)`) across the two
/// representations.
trait TermKey {
    fn kind(&self) -> u8;
    fn text(&self) -> &str;
}

impl TermKey for Term {
    fn kind(&self) -> u8 {
        Term::kind(self)
    }

    fn text(&self) -> &str {
        self.as_str()
    }
}

/// The allocation-free probe: a term "by parts".
struct Probe<'a> {
    kind: u8,
    text: &'a str,
}

impl TermKey for Probe<'_> {
    fn kind(&self) -> u8 {
        self.kind
    }

    fn text(&self) -> &str {
        self.text
    }
}

impl PartialEq for dyn TermKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.kind() == other.kind() && self.text() == other.text()
    }
}

impl Eq for dyn TermKey + '_ {}

impl Hash for dyn TermKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_term_parts(self.kind(), self.text(), state);
    }
}

impl<'a> Borrow<dyn TermKey + 'a> for Term {
    fn borrow(&self) -> &(dyn TermKey + 'a) {
        self
    }
}

/// A bidirectional mapping between [`Term`]s and dense `u32` keys.
///
/// Keys are assigned in first-encounter order, which makes encoding
/// deterministic for a fixed insertion order — the LUBM generator relies on
/// this for reproducible tests. The paper's engines (RDF-3X, TripleBit,
/// EmptyHeaded) all dictionary-encode before building indexes; so do we.
///
/// The terms live in two parts: a frozen part shared by every clone
/// through an `Arc`, and an owned tail of the terms minted since the
/// store last committed or compacted, which folds the tail into the
/// frozen part — the delta-beside-a-frozen-base layout the store uses
/// for relations. Keys run through the frozen part, then the tail, so
/// cloning a dictionary costs the tail, not the terms.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    frozen: Arc<Part>,
    /// Keys `frozen.terms.len()..`, in minting order.
    tail: Part,
}

/// Terms in key order plus the reverse map into them.
#[derive(Debug, Default, Clone)]
struct Part {
    map: HashMap<Term, u32>,
    terms: Vec<Term>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Rebuild a dictionary from its terms in key order (the snapshot
    /// load path), straight into the frozen part. The reverse map is
    /// re-hashed — the only per-term work a snapshot load performs — but
    /// no parsing, allocation-per-probe, or key reassignment happens:
    /// term `i` keeps key `i`.
    pub(crate) fn from_terms(terms: Vec<Term>) -> Dictionary {
        let map = terms.iter().enumerate().map(|(i, t)| (t.clone(), i as u32)).collect();
        Dictionary { frozen: Arc::new(Part { map, terms }), tail: Part::default() }
    }

    /// Move the tail into the frozen part; keys and [`iter`](Dictionary::iter)
    /// order are unchanged. In place while no clone shares the frozen
    /// part, otherwise through one copy of it.
    pub(crate) fn fold(&mut self) {
        let tail = std::mem::take(&mut self.tail);
        if self.frozen.terms.is_empty() {
            // A bulk build's first fold: the tail becomes the frozen part.
            self.frozen = Arc::new(tail);
        } else if !tail.terms.is_empty() {
            let frozen = Arc::make_mut(&mut self.frozen);
            frozen.map.extend(tail.map);
            frozen.terms.extend(tail.terms);
        }
    }

    /// Encode `term`, assigning the next key on first encounter.
    ///
    /// # Panics
    /// Panics if more than `u32::MAX` distinct terms are inserted.
    pub fn encode(&mut self, term: &Term) -> u32 {
        if let Some(id) = self.get(term) {
            return id;
        }
        let id = u32::try_from(self.len()).expect("dictionary overflow: more than 2^32 terms");
        self.tail.map.insert(term.clone(), id);
        self.tail.terms.push(term.clone());
        id
    }

    /// The key under `key` in either part.
    fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<u32>
    where
        Term: Borrow<Q>,
    {
        self.frozen.map.get(key).or_else(|| self.tail.map.get(key)).copied()
    }

    /// Key for `term` if it has been seen before.
    pub fn lookup(&self, term: &Term) -> Option<u32> {
        self.get(term)
    }

    /// Allocation-free lookup of an IRI by string: the map is probed with
    /// a borrowed view of the term, so no `String` (or `Term`) is built.
    /// This sits on the serving hot path — every constant in every query
    /// resolves through here.
    pub fn lookup_iri(&self, iri: &str) -> Option<u32> {
        self.get(&Probe { kind: KIND_IRI, text: iri } as &dyn TermKey)
    }

    /// Allocation-free lookup of a plain literal by its body.
    pub fn lookup_literal(&self, literal: &str) -> Option<u32> {
        self.get(&Probe { kind: KIND_LITERAL, text: literal } as &dyn TermKey)
    }

    /// Decode a key back to its term.
    ///
    /// # Panics
    /// Panics on a key that was never assigned.
    pub fn decode(&self, id: u32) -> &Term {
        self.try_decode(id).expect("decode of a key the dictionary never assigned")
    }

    /// Decode a key if it is valid.
    pub fn try_decode(&self, id: u32) -> Option<&Term> {
        let frozen = &self.frozen.terms;
        match (id as usize).checked_sub(frozen.len()) {
            None => Some(&frozen[id as usize]),
            Some(i) => self.tail.terms.get(i),
        }
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.frozen.terms.len() + self.tail.terms.len()
    }

    /// True when no term has been encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate `(key, term)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Term)> {
        self.frozen.terms.iter().chain(&self.tail.terms).enumerate().map(|(i, t)| (i as u32, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(&Term::iri("a"));
        let b = d.encode(&Term::iri("b"));
        assert_eq!(d.encode(&Term::iri("a")), a);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn keys_are_dense_and_ordered_by_first_encounter() {
        let mut d = Dictionary::new();
        assert_eq!(d.encode(&Term::iri("x")), 0);
        assert_eq!(d.encode(&Term::literal("x")), 1); // distinct from the IRI
        assert_eq!(d.encode(&Term::iri("y")), 2);
    }

    #[test]
    fn decode_roundtrip() {
        let mut d = Dictionary::new();
        let id = d.encode(&Term::literal("GraduateStudent"));
        assert_eq!(d.decode(id), &Term::literal("GraduateStudent"));
        assert_eq!(d.try_decode(id + 1), None);
    }

    #[test]
    fn lookup_without_insert() {
        let mut d = Dictionary::new();
        d.encode(&Term::iri("present"));
        assert_eq!(d.lookup_iri("present"), Some(0));
        assert_eq!(d.lookup_iri("absent"), None);
    }

    #[test]
    fn borrowed_lookup_agrees_with_owned_and_separates_kinds() {
        // The same text as IRI and literal must resolve to its own key
        // through the borrowed probes, exactly as the owned lookup does.
        let mut d = Dictionary::new();
        let iri = d.encode(&Term::iri("x"));
        let lit = d.encode(&Term::literal("x"));
        assert_ne!(iri, lit);
        assert_eq!(d.lookup_iri("x"), Some(iri));
        assert_eq!(d.lookup_literal("x"), Some(lit));
        assert_eq!(d.lookup_iri("x"), d.lookup(&Term::iri("x")));
        assert_eq!(d.lookup_literal("x"), d.lookup(&Term::literal("x")));
        assert_eq!(d.lookup_literal("y"), None);
    }

    #[test]
    fn iter_in_key_order() {
        let mut d = Dictionary::new();
        d.encode(&Term::iri("a"));
        d.encode(&Term::iri("b"));
        let pairs: Vec<_> = d.iter().map(|(k, t)| (k, t.as_str().to_string())).collect();
        assert_eq!(pairs, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }

    /// A clone shares the frozen part and owns its tail: encoding into
    /// the clone leaves the original as it was, and a fold moves terms
    /// without changing a key or the iteration order.
    #[test]
    fn clones_share_the_frozen_part_and_folds_keep_keys() {
        let mut d = Dictionary::from_terms(vec![Term::iri("a"), Term::literal("b")]);
        d.encode(&Term::iri("c"));
        let mut copy = d.clone();
        assert!(Arc::ptr_eq(&d.frozen, &copy.frozen));
        assert_eq!(copy.encode(&Term::iri("d")), 3);
        assert_eq!((d.len(), d.lookup_iri("d")), (3, None));
        assert_eq!((copy.len(), copy.lookup_iri("c")), (4, Some(2)));

        let listed = |d: &Dictionary| -> Vec<(u32, Term)> {
            d.iter().map(|(k, t)| (k, t.clone())).collect()
        };
        let before = listed(&copy);
        copy.fold();
        assert!(copy.tail.terms.is_empty());
        assert_eq!(listed(&copy), before);
        for (k, t) in &before {
            assert_eq!((copy.lookup(t), copy.decode(*k)), (Some(*k), t));
        }
        // The shared frozen part was copied for the fold, not changed.
        assert!(!Arc::ptr_eq(&d.frozen, &copy.frozen));
        assert_eq!((d.frozen.terms.len(), d.len()), (2, 3));
        assert_eq!(d.decode(2), &Term::iri("c"));

        // With no other owner, a fold extends the frozen part in place.
        let frozen = Arc::as_ptr(&copy.frozen);
        assert_eq!(copy.encode(&Term::iri("e")), 4);
        copy.fold();
        assert_eq!(Arc::as_ptr(&copy.frozen), frozen);
        assert_eq!(copy.lookup_iri("e"), Some(4));
    }
}
