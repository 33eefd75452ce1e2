//! A byte-budgeted LRU cache for materialised query results.
//!
//! Keys are `(canonical query, epoch)`: α-equivalent SPARQL
//! strings share an entry, and bumping the engine's epoch
//! (invalidation) strands every old entry — stale results are never
//! served, and the strays age out through normal LRU eviction.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use eh_query::CanonicalQuery;

use crate::service::CachedResult;

/// Cache key: canonical query plus the engine epoch it was computed at.
pub(crate) type ResultKey = (CanonicalQuery, u64);

struct Entry {
    result: Arc<CachedResult>,
    bytes: usize,
    tick: u64,
}

/// Least-recently-used result store with a byte budget. Results larger
/// than the whole budget are simply not cached (the query still answers —
/// it just always recomputes). Keys are shared (`Arc`) between the entry
/// map and the recency index, so a hit never deep-clones the canonical
/// query.
pub(crate) struct ResultLru {
    budget: usize,
    bytes: usize,
    next_tick: u64,
    entries: HashMap<Arc<ResultKey>, Entry>,
    /// Recency index: tick → key, smallest tick = least recently used.
    order: BTreeMap<u64, Arc<ResultKey>>,
}

impl ResultLru {
    pub fn new(budget: usize) -> ResultLru {
        ResultLru {
            budget,
            bytes: 0,
            next_tick: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Look up a result, refreshing its recency on a hit.
    pub fn get(&mut self, key: &ResultKey) -> Option<Arc<CachedResult>> {
        let (shared_key, entry) = self.entries.get_key_value(key)?;
        let (shared_key, old_tick, result) =
            (Arc::clone(shared_key), entry.tick, Arc::clone(&entry.result));
        let tick = self.next_tick;
        self.next_tick += 1;
        self.order.remove(&old_tick);
        self.order.insert(tick, shared_key);
        self.entries.get_mut(key).expect("entry vanished between lookups").tick = tick;
        Some(result)
    }

    /// Insert a result, evicting least-recently-used entries until the
    /// budget holds. Oversized results and duplicate keys are no-ops, and
    /// both checks come *before* any eviction: an entry that can never be
    /// admitted must not first flush every resident entry. A zero-budget
    /// cache is a total no-op — even zero-byte entries are refused, since
    /// nothing could ever evict them from a cache with no byte pressure.
    pub fn insert(&mut self, key: ResultKey, result: Arc<CachedResult>, bytes: usize) {
        if self.budget == 0 || bytes > self.budget || self.entries.contains_key(&key) {
            return;
        }
        while self.bytes + bytes > self.budget {
            let Some((&tick, _)) = self.order.iter().next() else { break };
            let victim = self.order.remove(&tick).expect("order index out of sync");
            let evicted = self.entries.remove(&*victim).expect("entry index out of sync");
            self.bytes -= evicted.bytes;
        }
        let key = Arc::new(key);
        let tick = self.next_tick;
        self.next_tick += 1;
        self.bytes += bytes;
        self.entries.insert(Arc::clone(&key), Entry { result, bytes, tick });
        self.order.insert(tick, key);
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.bytes = 0;
    }

    /// Bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_query::{canonicalize, QueryBuilder};

    fn key(rel: &str, epoch: u64) -> ResultKey {
        let mut qb = QueryBuilder::new();
        let (x, y) = (qb.var("x"), qb.var("y"));
        qb.atom(rel, 0, x, y);
        (canonicalize(&qb.select(vec![x]).build().unwrap()), epoch)
    }

    /// Any real result will do — byte accounting is passed explicitly.
    fn result() -> Arc<CachedResult> {
        use eh_rdf::{Term, Triple, TripleStore};
        use emptyheaded::{Engine, OptFlags};
        let store = TripleStore::from_triples(vec![Triple::new(
            Term::iri("s"),
            Term::iri("p"),
            Term::iri("o"),
        )]);
        let engine = Engine::new(store, OptFlags::all());
        Arc::new(CachedResult::new(engine.run_sparql("SELECT ?x WHERE { ?x <p> ?y }").unwrap()))
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut lru = ResultLru::new(100);
        let r = result();
        lru.insert(key("a", 0), Arc::clone(&r), 40);
        lru.insert(key("b", 0), Arc::clone(&r), 40);
        assert_eq!((lru.len(), lru.bytes()), (2, 80));
        // Touch "a" so "b" becomes the eviction victim.
        assert!(lru.get(&key("a", 0)).is_some());
        lru.insert(key("c", 0), Arc::clone(&r), 40);
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&key("a", 0)).is_some());
        assert!(lru.get(&key("b", 0)).is_none());
        assert!(lru.get(&key("c", 0)).is_some());
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let mut lru = ResultLru::new(10);
        lru.insert(key("a", 0), result(), 11);
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
    }

    #[test]
    fn oversized_insert_does_not_evict_residents() {
        // The failure mode under test: an entry larger than the whole
        // budget must be refused up front, not admitted after pointlessly
        // evicting every resident entry.
        let mut lru = ResultLru::new(100);
        let r = result();
        lru.insert(key("a", 0), Arc::clone(&r), 40);
        lru.insert(key("b", 0), Arc::clone(&r), 40);
        lru.insert(key("huge", 0), Arc::clone(&r), 101);
        assert_eq!((lru.len(), lru.bytes()), (2, 80));
        assert!(lru.get(&key("a", 0)).is_some());
        assert!(lru.get(&key("b", 0)).is_some());
        assert!(lru.get(&key("huge", 0)).is_none());
    }

    #[test]
    fn entry_exactly_filling_the_budget_is_admitted() {
        let mut lru = ResultLru::new(100);
        let r = result();
        lru.insert(key("a", 0), Arc::clone(&r), 40);
        // Exactly the budget: fits, at the cost of evicting residents.
        lru.insert(key("full", 0), Arc::clone(&r), 100);
        assert_eq!((lru.len(), lru.bytes()), (1, 100));
        assert!(lru.get(&key("full", 0)).is_some());
    }

    #[test]
    fn zero_budget_cache_is_a_noop_even_for_zero_byte_entries() {
        // A zero-byte entry "fits" any budget arithmetically; admitting
        // it into a zero-budget cache would grow the entry map without
        // bound (no byte pressure ever evicts it). The cache must refuse
        // outright — and must neither loop nor panic doing so.
        let mut lru = ResultLru::new(0);
        let r = result();
        for i in 0..16 {
            lru.insert(key(&format!("k{i}"), 0), Arc::clone(&r), 0);
            lru.insert(key(&format!("p{i}"), 0), Arc::clone(&r), 1);
        }
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
        assert!(lru.get(&key("k0", 0)).is_none());
    }

    #[test]
    fn epoch_partitions_the_key_space() {
        let mut lru = ResultLru::new(100);
        lru.insert(key("a", 0), result(), 10);
        assert!(lru.get(&key("a", 1)).is_none());
        assert!(lru.get(&key("a", 0)).is_some());
    }

    #[test]
    fn clear_resets_accounting() {
        let mut lru = ResultLru::new(100);
        lru.insert(key("a", 0), result(), 10);
        lru.clear();
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
        assert!(lru.get(&key("a", 0)).is_none());
    }
}
