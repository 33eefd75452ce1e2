//! Vertically partitioned predicate tables (paper §IV-A2, after Abadi et
//! al.): one two-column `(subject, object)` table per predicate — the
//! pairwise baselines' own copy of the store's logical contents.

use std::collections::HashMap;

use eh_rdf::TripleStore;

/// A dictionary-encoded two-column table holding every `(subject, object)`
/// pair of one predicate, in both sort orders: `so` (subject-major) and
/// `os` (object-major) — TripleBit's two clustered orders.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairTable {
    so: Vec<(u32, u32)>,
    os: Vec<(u32, u32)>,
    distinct_subjects: usize,
    distinct_objects: usize,
}

impl PairTable {
    /// Build from subject-major pairs, sorted and unique.
    fn from_so(so: Vec<(u32, u32)>) -> PairTable {
        debug_assert!(so.windows(2).all(|w| w[0] < w[1]), "so pairs must be sorted unique");
        let mut os: Vec<(u32, u32)> = so.iter().map(|&(s, o)| (o, s)).collect();
        os.sort_unstable();
        let distinct_subjects = count_distinct_firsts(&so);
        let distinct_objects = count_distinct_firsts(&os);
        PairTable { so, os, distinct_subjects, distinct_objects }
    }

    /// One table per predicate key over `store`'s **logical** view —
    /// staged deltas merged — so a baseline answers exactly what the
    /// store currently holds.
    pub(crate) fn tables_of(store: &TripleStore) -> HashMap<u32, PairTable> {
        let mut pairs: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
        for t in store.encoded_triples() {
            pairs.entry(t.p).or_default().push((t.s, t.o));
        }
        pairs.into_iter().map(|(p, so)| (p, PairTable::from_so(so))).collect()
    }

    /// Number of distinct `(subject, object)` pairs.
    pub(crate) fn len(&self) -> usize {
        self.so.len()
    }

    /// Pairs sorted subject-major: `(s, o)`.
    pub(crate) fn so_pairs(&self) -> &[(u32, u32)] {
        &self.so
    }

    /// Pairs sorted object-major: `(o, s)`.
    pub(crate) fn os_pairs(&self) -> &[(u32, u32)] {
        &self.os
    }

    /// Number of distinct subjects.
    pub(crate) fn distinct_subjects(&self) -> usize {
        self.distinct_subjects
    }

    /// Number of distinct objects.
    pub(crate) fn distinct_objects(&self) -> usize {
        self.distinct_objects
    }

    /// All `(s, o)` pairs for one subject, via binary search on the
    /// subject-major order.
    pub(crate) fn pairs_for_subject(&self, s: u32) -> &[(u32, u32)] {
        range_for(&self.so, s)
    }

    /// All `(o, s)` pairs for one object, via binary search on the
    /// object-major order.
    pub(crate) fn pairs_for_object(&self, o: u32) -> &[(u32, u32)] {
        range_for(&self.os, o)
    }

    /// True when the exact pair is present.
    pub(crate) fn contains(&self, s: u32, o: u32) -> bool {
        self.so.binary_search(&(s, o)).is_ok()
    }
}

fn count_distinct_firsts(sorted: &[(u32, u32)]) -> usize {
    let mut n = 0;
    let mut last = None;
    for &(a, _) in sorted {
        if last != Some(a) {
            n += 1;
            last = Some(a);
        }
    }
    n
}

fn range_for(sorted: &[(u32, u32)], key: u32) -> &[(u32, u32)] {
    let lo = sorted.partition_point(|&(a, _)| a < key);
    let hi = sorted.partition_point(|&(a, _)| a <= key);
    &sorted[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PairTable {
        PairTable::from_so(vec![(1, 3), (1, 5), (2, 1), (3, 5)])
    }

    #[test]
    fn both_orders_and_distinct_counts() {
        let t = table();
        assert_eq!(t.len(), 4);
        assert_eq!(t.os_pairs(), &[(1, 2), (3, 1), (5, 1), (5, 3)]);
        assert_eq!((t.distinct_subjects(), t.distinct_objects()), (3, 3));
    }

    #[test]
    fn subject_and_object_ranges() {
        let t = table();
        assert_eq!(t.pairs_for_subject(1), &[(1, 3), (1, 5)]);
        assert_eq!(t.pairs_for_subject(9), &[] as &[(u32, u32)]);
        assert_eq!(t.pairs_for_object(5), &[(5, 1), (5, 3)]);
        assert!(t.contains(2, 1));
        assert!(!t.contains(1, 1));
    }

    #[test]
    fn empty_table() {
        let t = PairTable::from_so(vec![]);
        assert_eq!(t.len(), 0);
        assert_eq!(t.distinct_subjects(), 0);
        assert_eq!(t.pairs_for_subject(0), &[] as &[(u32, u32)]);
    }
}
