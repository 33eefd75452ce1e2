//! # eh-srv
//!
//! The serving tier over the worst-case optimal join engine: the step
//! from "benchmark reproduction" to "system that answers traffic".
//!
//! The paper's engine (Aberger et al., ICDE 2016) executes one query over
//! a warmed, read-only trie catalog — exactly the shape of a read-mostly,
//! high-QPS service. What a single-shot engine lacks is *reuse*: every
//! [`Engine::run`](emptyheaded::Engine::run) re-parses, re-plans (GHD
//! enumeration plus the fractional-cover LP), and re-executes. This crate
//! adds the reuse layer:
//!
//! * [`QueryService`] — a shareable (`&self`) session front end holding
//!   one engine, a **plan cache** keyed by the
//!   [canonical query form](eh_query::canonicalize) (α-equivalent SPARQL
//!   strings plan once), and a byte-budgeted **LRU result cache** keyed
//!   by canonical query + catalog epoch.
//! * [`serve`] — a threaded TCP front end speaking a line-delimited
//!   protocol (`QUERY` / `PROFILE` / `METRICS` / `INSERT` / `DELETE` /
//!   `APPLY` / `STATS` / `INVALIDATE` / `QUIT`), its session pool sized
//!   by [`ServiceConfig::server_sessions`] while each query executes on
//!   the engine's [`eh_par::RuntimeConfig`].
//! * [`respond_to`] — the single producer of protocol bytes: one row
//!   renderer reading the result's tuple buffer, results too large to
//!   cache streamed to the socket in chunks (see the `server` module's
//!   "Emit path"); [`respond`] collects the same bytes in process.
//! * [`Client`] — a minimal blocking client for tests, examples, and the
//!   `ledger` benchmark's TCP workloads.
//!
//! The store behind the service is **live**: `INSERT`/`DELETE` lines
//! stage triples into a per-connection [`Session`] batch and `APPLY`
//! pushes them through [`QueryService::update`], which stages them beside
//! the untouched base tries and advances the epoch that keys the result
//! cache — queries after an update are answered exactly as a cold engine
//! over the new data would.
//!
//! Determinism is load-bearing: cached, fresh-sequential, and
//! fresh-parallel answers are all byte-identical, so a cache is never
//! observable except through latency and [`ServiceStats`].
//!
//! The service is **observable**: every request records into a private
//! [`eh_obs`] registry (latency histograms with p50/p99, per-verb
//! counters, cache hit/miss counters, occupancy gauges), dumped by the
//! `METRICS` verb in Prometheus text format; `PROFILE <sparql>` runs one
//! query with full executor instrumentation and returns `EXPLAIN
//! ANALYZE` output (per-depth kernel choices, candidate counts, wall
//! times); and queries slower than [`ServiceConfig::slow_query_ms`]
//! (`EH_SLOW_QUERY_MS`) land in a bounded slow-query log.
//!
//! ```
//! use eh_rdf::{Term, Triple, TripleStore};
//! use eh_srv::QueryService;
//!
//! let store = TripleStore::from_triples(vec![Triple::new(
//!     Term::iri("alice"),
//!     Term::iri("knows"),
//!     Term::iri("bob"),
//! )]);
//! let service = QueryService::with_defaults(store);
//! let cold = service.query_sparql("SELECT ?x WHERE { ?x <knows> ?y }").unwrap();
//! let warm = service.query_sparql("SELECT ?a WHERE { ?a <knows> ?b }").unwrap();
//! assert!(warm.result_cache_hit); // α-equivalent text, same cached rows
//! assert_eq!(cold.result.cardinality(), 1);
//! ```

mod cache;
mod metrics;
mod server;
mod service;
mod verb;

pub use emptyheaded::{SharedStore, UpdateBatch, UpdateSummary};
pub use server::{respond, respond_in_session, respond_to, serve, Client, Session};
pub use service::{Answer, QueryService, ServiceConfig, ServiceStats};
