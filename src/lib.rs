//! # wcoj-rdf
//!
//! A reproduction of *"Old Techniques for New Join Algorithms: A Case Study
//! in RDF Processing"* (Aberger, Tu, Olukotun, Ré — ICDE 2016) as a Rust
//! workspace. This facade crate re-exports the public API of every
//! sub-crate so downstream users can depend on a single crate.
//!
//! The headline pieces:
//!
//! * [`emptyheaded`] — the worst-case optimal join engine with GHD query
//!   plans and the paper's three classic optimizations (index layouts,
//!   selection pushdown, pipelining).
//! * [`trie`] and [`setops`] — the storage under it: a relation is a
//!   [`trie::FrozenTrie`] arena whose levels are encoded set blocks (uint
//!   array or bitset), and [`setops::SetRef`] — the borrowed view over a
//!   block — is the only form of a set the join kernels read.
//! * [`par`] — the deterministic multicore runtime: joins partition their
//!   outermost iterated attribute into morsels across worker threads and
//!   merge results in deterministic order (configure via
//!   [`emptyheaded::PlannerConfig::with_threads`]).
//! * [`lubm`] — a deterministic reimplementation of the LUBM benchmark
//!   data generator and its query workload.
//! * [`baselines`] — simulated comparison engines (MonetDB-, LogicBlox-,
//!   RDF-3X-, and TripleBit-style) used by the benchmark harness.
//! * [`srv`] — the serving tier: a concurrent [`srv::QueryService`] with
//!   canonical-plan and LRU result caches, plus a threaded TCP front end
//!   speaking a line protocol
//!   (`QUERY`/`INSERT`/`DELETE`/`APPLY`/`STATS`/`INVALIDATE`). The store
//!   behind the engine is live: updates flow through
//!   [`emptyheaded::Engine::update`] with per-predicate trie
//!   invalidation.
//!
//! ```
//! use wcoj_rdf::lubm::{GeneratorConfig, generate_store};
//! use wcoj_rdf::lubm::queries::lubm_query;
//! use wcoj_rdf::emptyheaded::{Engine, OptFlags, SharedStore};
//!
//! // Generate a small LUBM dataset (1 university, test-sized profile)
//! // and run query 2 (the triangle query) through the worst-case
//! // optimal engine.
//! let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
//! let engine = Engine::new(store.clone(), OptFlags::all());
//! let q2 = lubm_query(2, &store.read()).unwrap();
//! let result = engine.run(&q2).unwrap();
//! assert!(result.cardinality() > 0);
//! ```

pub use eh_baselines as baselines;
pub use eh_ghd as ghd;
pub use eh_lp as lp;
pub use eh_lubm as lubm;
pub use eh_obs as obs;
pub use eh_par as par;
pub use eh_query as query;
pub use eh_rdf as rdf;
pub use eh_setops as setops;
pub use eh_srv as srv;
pub use eh_trie as trie;
pub use eh_wal as wal;
pub use emptyheaded;
