//! # eh-baselines
//!
//! Simulated comparison engines for the paper's Table II (Aberger et al.,
//! ICDE 2016, §IV-A2). The authors benchmarked four external systems we
//! cannot ship; each is replaced by an algorithmic analogue that exercises
//! the same *asymptotic* code path (substitutions documented per engine
//! and in DESIGN.md):
//!
//! * [`MonetDbStyle`] — a vertically partitioned column store executing
//!   pairwise hash joins with fully materialised intermediates, join
//!   order by base-table cardinality, selections by column scan (no point
//!   indexes). The traditional relational baseline.
//! * [`Rdf3xStyle`] — a full triple table with all six SPO-permutation
//!   clustered indexes and aggregate indexes, greedy selectivity-driven
//!   join ordering, index-nested-loop (merge-style) joins. The
//!   "specialised RDF engine" design of Neumann & Weikum.
//! * [`TripleBitStyle`] — per-predicate two-order (SO/OS) compact pair
//!   stores with binary aggregate indexes and a semi-join pruning pass
//!   before selectivity-ordered pairwise joins.
//! * [`LogicBloxStyle`] — a worst-case optimal join without EmptyHeaded's
//!   optimizations: single-node plan, sorted uint arrays only, naive
//!   attribute order (delegates to `emptyheaded` with
//!   [`PlannerConfig::logicblox_style`](emptyheaded::PlannerConfig)).
//!
//! All engines implement [`QueryEngine`] and return distinct rows in
//! `SELECT` order, so the harness can verify they agree before timing.

mod logicblox;
mod monetdb;
mod pairwise;
mod rdf3x;
mod traits;
mod triplebit;
mod vp;

pub use logicblox::LogicBloxStyle;
pub use monetdb::MonetDbStyle;
pub use rdf3x::Rdf3xStyle;
pub use traits::QueryEngine;
pub use triplebit::TripleBitStyle;

#[cfg(test)]
mod tests;
