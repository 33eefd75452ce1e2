//! # emptyheaded
//!
//! The paper's primary contribution: a worst-case optimal join engine for
//! RDF workloads in the style of EmptyHeaded (Aberger, Tu, Olukotun, Ré —
//! ICDE 2016), with the three classic query optimizations the paper maps
//! onto worst-case optimal processing:
//!
//! 1. **Optimized index layouts** (§III-A): trie sets choose between
//!    sorted uint arrays and bitsets per the 1/256-density optimizer.
//! 2. **Pushing down selections** (§III-B): *within* a GHD node by placing
//!    selection attributes first in the attribute order; *across* nodes by
//!    choosing GHDs that maximise selection depth.
//! 3. **Pipelining** (§III-C): the root node streams into the final result
//!    when Definition 2 holds, skipping intermediate materialisation.
//!
//! Each optimization has an independent toggle in [`OptFlags`] so the
//! benchmark harness can regenerate the paper's Table I ablation; the
//! LogicBlox-style baseline reuses this engine with
//! [`PlannerConfig::force_single_node`] and all optimizations off.
//!
//! Execution follows the paper §II-C: a GHD is chosen, a *global attribute
//! order* is derived by BFS over it, every relation is loaded as a trie
//! consistent with that order, the generic worst-case optimal join
//! (Algorithm 1) runs per node bottom-up with children's intermediates
//! participating as extra relations, and a final pass materialises the
//! projection.
//!
//! Like the original EmptyHeaded (whose reported numbers are multicore),
//! execution parallelizes across the outermost iterated attribute:
//! configure workers with [`PlannerConfig::with_threads`] /
//! [`RuntimeConfig`] and the engine partitions each join's first
//! unselected attribute into morsels, runs the remaining levels on worker
//! threads, builds indexes concurrently in [`Engine::warm`], and merges
//! per-morsel buffers in deterministic order — parallel results are
//! bit-identical to sequential ones.
//!
//! The store is shared and **live**: the engine holds a [`SharedStore`]
//! (`Arc<RwLock<TripleStore>>`) rather than a borrow, and
//! [`Engine::update`] applies insert/delete batches that invalidate only
//! the changed predicates' tries and advance the engine's epoch — the
//! contract serving tiers key their caches by.
//!
//! ```
//! use eh_lubm::{generate_store, GeneratorConfig};
//! use emptyheaded::{Engine, OptFlags, SharedStore};
//!
//! let store = SharedStore::new(generate_store(&GeneratorConfig::tiny(1)));
//! let engine = Engine::new(store.clone(), OptFlags::all());
//! // LUBM query 14: all undergraduate students.
//! let q = eh_lubm::queries::lubm_query(14, &store.read()).unwrap();
//! let result = engine.run(&q).unwrap();
//! assert!(result.cardinality() > 0);
//! ```

mod engine;
mod error;
mod exec;
mod flags;
mod plan;
mod planner;
mod profile;
mod result;
mod shared;
mod update;

pub use eh_par::RuntimeConfig;
pub use eh_rdf::{LoadInfo, LoadMode, SnapshotError, StoreSnapshot};
pub use eh_wal::{FsyncPolicy, WalError};
pub use engine::{Engine, WalRecovery, WalStatus};
pub use error::EngineError;
pub use flags::{OptFlags, PlannerConfig};
pub use plan::{AtomPlan, NodePlan, Plan};
pub use profile::{DepthProfile, JoinProfile, KernelTally, QueryProfile, WorkerLoad};
pub use result::QueryResult;
pub use shared::SharedStore;
pub use update::{UpdateBatch, UpdateSummary, WalAppend};

#[cfg(test)]
mod proptests;
