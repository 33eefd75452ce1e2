//! # eh-rdf
//!
//! The RDF substrate for the WCOJ engine reproduction of Aberger et al.
//! (ICDE 2016): terms and triples, dictionary encoding to 32-bit ids
//! (§II-A1), an N-Triples subset reader/writer, and the vertically
//! partitioned storage model the paper uses for all relational engines
//! (§IV-A2: "grouping the triples by their predicate name, with all triples
//! sharing the same predicate name being stored under a table denoted by
//! the predicate name", after Abadi et al.).
//!
//! ```
//! use eh_rdf::{Term, Triple, TripleStore};
//!
//! let store = TripleStore::from_triples(vec![Triple::new(
//!     Term::iri("http://www.Department0.University0.edu"),
//!     Term::iri("http://ub/subOrganizationOf"),
//!     Term::iri("http://www.University0.edu"),
//! )]);
//! let pred = store.resolve_iri("http://ub/subOrganizationOf").unwrap();
//! let relation = store.trie_pair(pred).unwrap();
//! assert_eq!(relation.len(), 1);
//! assert_eq!(relation.os().root_set().len(), 1); // one distinct object
//! ```

mod batch;
mod dict;
mod mmap;
mod ntriples;
mod snapshot;
mod store;
mod term;
mod triple;

pub use batch::{decode_update, encode_update, encode_update_into, BatchCodecError};
pub use dict::Dictionary;
pub use mmap::MappedRegion;
pub use ntriples::{parse_ntriples, write_ntriples, NtError};
pub use snapshot::{
    xxh64, LoadInfo, LoadMode, SnapshotError, StoreSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use store::{PredCard, PredDelta, StoreStats, TriePair, TripleStore, UpdateReport};
pub use term::Term;
pub use triple::{EncodedTriple, Triple};
