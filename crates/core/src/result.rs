//! Materialised query results.

use eh_rdf::{Term, TripleStore};
use eh_trie::TupleBuffer;

/// A materialised, deduplicated query result: one row per distinct binding
/// of the `SELECT` variables, columns in `SELECT` order.
///
/// Rows hold dictionary-encoded ids; [`QueryResult::decode_row`] maps them
/// back to terms. (The paper's timing methodology also excludes id→string
/// output conversion, §IV-A4.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    columns: Vec<String>,
    tuples: TupleBuffer,
}

impl QueryResult {
    /// A result over `tuples`, one column name per tuple position.
    ///
    /// # Panics
    /// Panics when the number of names differs from the tuple arity.
    pub fn new(columns: Vec<String>, tuples: TupleBuffer) -> QueryResult {
        assert_eq!(columns.len(), tuples.arity(), "one column name per tuple position");
        QueryResult { columns, tuples }
    }

    /// An empty result with the given column names.
    pub(crate) fn empty(columns: Vec<String>) -> QueryResult {
        let arity = columns.len();
        QueryResult { columns, tuples: TupleBuffer::new(arity) }
    }

    /// Column (variable) names in `SELECT` order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of distinct result rows.
    pub fn cardinality(&self) -> usize {
        self.tuples.len()
    }

    /// True when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The raw dictionary-encoded rows.
    pub fn tuples(&self) -> &TupleBuffer {
        &self.tuples
    }

    /// Iterate raw rows.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.tuples.rows()
    }

    /// Row `i` as dictionary-encoded ids, borrowed from the tuple buffer:
    /// what a renderer reads, with nothing allocated per row.
    pub fn row(&self, i: usize) -> &[u32] {
        self.tuples.row(i)
    }

    /// Decode row `i` to terms using the store's dictionary.
    pub fn decode_row<'s>(&self, store: &'s TripleStore, i: usize) -> Vec<&'s Term> {
        self.row(i).iter().map(|&id| store.dict().decode(id)).collect()
    }

    /// Approximate heap footprint in bytes (tuple payload plus column
    /// names) — the accounting unit of a byte-budgeted result cache.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self.tuples.as_flat())
            + self.columns.iter().map(|c| c.len() + std::mem::size_of::<String>()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_rdf::Triple;

    #[test]
    fn accessors() {
        let mut t = TupleBuffer::new(2);
        t.push(&[0, 1]);
        let r = QueryResult::new(vec!["X".into(), "Y".into()], t);
        assert_eq!(r.cardinality(), 1);
        assert_eq!(r.columns(), &["X".to_string(), "Y".to_string()]);
        assert!(!r.is_empty());
        assert_eq!(r.iter().next().unwrap(), &[0, 1]);
        assert_eq!(r.row(0), &[0, 1]);
    }

    #[test]
    fn decode_roundtrip() {
        let store = TripleStore::from_triples(vec![Triple::new(
            Term::iri("s"),
            Term::iri("p"),
            Term::iri("o"),
        )]);
        let sid = store.resolve_iri("s").unwrap();
        let mut t = TupleBuffer::new(1);
        t.push(&[sid]);
        let r = QueryResult::new(vec!["X".into()], t);
        assert_eq!(r.decode_row(&store, 0), vec![&Term::iri("s")]);
    }

    #[test]
    fn empty_result() {
        let r = QueryResult::empty(vec!["X".into()]);
        assert!(r.is_empty());
        assert_eq!(r.cardinality(), 0);
    }
}
