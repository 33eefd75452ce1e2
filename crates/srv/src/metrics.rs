//! The service's metric surface: every series the `METRICS` verb exposes.
//!
//! Each [`QueryService`](crate::QueryService) owns a private
//! [`Registry`] (not the process-global one), so concurrently running
//! services — and tests — never share counters. Handles are resolved once
//! at construction; the hot recording paths touch only relaxed atomics.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use eh_obs::{Counter, Gauge, Histogram, Registry};

use crate::verb::Verb;

/// Slow-query log capacity: a bounded ring, oldest entries dropped.
pub(crate) const SLOW_LOG_CAPACITY: usize = 128;

/// Pre-resolved handles for every metric the service records.
pub(crate) struct ServiceMetrics {
    registry: Registry,
    /// Per-verb request counters indexed by [`Verb`] discriminant,
    /// pre-resolved so the per-request path is one relaxed increment (no
    /// registry lock, no label comparison).
    requests_by_verb: Vec<Arc<Counter>>,
    pub query_latency_us: Arc<Histogram>,
    pub update_apply_latency_us: Arc<Histogram>,
    pub compaction_pause_us: Arc<Histogram>,
    pub plan_cache_hits: Arc<Counter>,
    pub plan_cache_misses: Arc<Counter>,
    pub result_cache_hits: Arc<Counter>,
    pub result_cache_misses: Arc<Counter>,
    pub triples_inserted: Arc<Counter>,
    pub triples_deleted: Arc<Counter>,
    pub updates_applied: Arc<Counter>,
    pub updates_noop: Arc<Counter>,
    pub compactions: Arc<Counter>,
    pub slow_queries: Arc<Counter>,
    pub active_sessions: Arc<Gauge>,
    pub result_cache_bytes: Arc<Gauge>,
    pub result_cache_entries: Arc<Gauge>,
    pub plan_cache_entries: Arc<Gauge>,
    pub epoch: Arc<Gauge>,
    pub staged_pairs: Arc<Gauge>,
    pub mapped_bytes: Arc<Gauge>,
    pub wal_appends: Arc<Counter>,
    pub wal_bytes: Arc<Gauge>,
    pub wal_fsync_us: Arc<Histogram>,
    /// Ring of recent slow queries: `"<millis> ms: <sparql>"`.
    slow_log: Mutex<VecDeque<String>>,
}

impl ServiceMetrics {
    pub fn new() -> ServiceMetrics {
        let registry = Registry::new();
        let requests_by_verb = Verb::labels()
            .map(|label| {
                registry.counter_with(
                    "eh_requests_total",
                    "Protocol requests by verb",
                    &[("verb", label)],
                )
            })
            .collect();
        ServiceMetrics {
            requests_by_verb,
            query_latency_us: registry.histogram(
                "eh_query_latency_us",
                "End-to-end query latency (parse, caches, execution) in microseconds",
            ),
            update_apply_latency_us: registry.histogram(
                "eh_update_apply_latency_us",
                "APPLY batch latency (delta staging, overlay refresh, cache retirement) in microseconds",
            ),
            compaction_pause_us: registry.histogram(
                "eh_compaction_pause_us",
                "COMPACT pause (folding staged deltas into fresh base tables) in microseconds",
            ),
            plan_cache_hits: registry
                .counter("eh_plan_cache_hits_total", "Plan-cache hits"),
            plan_cache_misses: registry.counter(
                "eh_plan_cache_misses_total",
                "Plan-cache misses (each paid GHD enumeration + the LP solve)",
            ),
            result_cache_hits: registry
                .counter("eh_result_cache_hits_total", "Result-cache hits"),
            result_cache_misses: registry.counter(
                "eh_result_cache_misses_total",
                "Result-cache misses (each paid a join execution)",
            ),
            triples_inserted: registry.counter(
                "eh_triples_inserted_total",
                "Triples actually inserted across applied batches",
            ),
            triples_deleted: registry.counter(
                "eh_triples_deleted_total",
                "Triples actually deleted across applied batches",
            ),
            updates_applied: registry
                .counter("eh_updates_applied_total", "Update batches that actually changed data"),
            updates_noop: registry.counter(
                "eh_updates_noop_total",
                "Update batches that changed nothing (counted apart from applied batches)",
            ),
            compactions: registry.counter(
                "eh_compactions_total",
                "Predicates whose staged deltas were folded into fresh base tables",
            ),
            slow_queries: registry.counter(
                "eh_slow_queries_total",
                "Queries slower than the configured slow-query threshold",
            ),
            active_sessions: registry
                .gauge("eh_active_sessions", "TCP sessions currently connected"),
            result_cache_bytes: registry
                .gauge("eh_result_cache_bytes", "Bytes currently held by the result cache"),
            result_cache_entries: registry
                .gauge("eh_result_cache_entries", "Entries currently held by the result cache"),
            plan_cache_entries: registry
                .gauge("eh_plan_cache_entries", "Plans currently cached"),
            epoch: registry.gauge("eh_catalog_epoch", "Current catalog epoch"),
            staged_pairs: registry.gauge(
                "eh_staged_pairs",
                "Delta pairs (inserts + tombstones) resident in novelty overlays",
            ),
            mapped_bytes: registry.gauge(
                "eh_mapped_bytes",
                "Snapshot bytes held mapped for zero-copy trie serving (0 = copy load)",
            ),
            wal_appends: registry.counter(
                "eh_wal_appends_total",
                "Update batches appended to the write-ahead log",
            ),
            wal_bytes: registry
                .gauge("eh_wal_bytes", "Write-ahead log size in bytes (header + frames)"),
            wal_fsync_us: registry.histogram(
                "eh_wal_fsync_us",
                "Time spent in fdatasync per synced WAL append, in microseconds",
            ),
            slow_log: Mutex::new(VecDeque::new()),
            registry,
        }
    }

    /// Count one protocol request for `verb`.
    pub fn note_request(&self, verb: Verb) {
        self.requests_by_verb[verb as usize].inc();
    }

    /// Append to the bounded slow-query ring (oldest dropped) and bump
    /// the counter.
    pub fn note_slow_query(&self, millis: u64, text: &str) {
        self.slow_queries.inc();
        // Recover the ring from poisoning: a session that panicked while
        // appending leaves at worst one missing entry, and the log must
        // keep accepting entries after one bad query.
        let mut log = self.slow_log.lock().unwrap_or_else(PoisonError::into_inner);
        if log.len() >= SLOW_LOG_CAPACITY {
            log.pop_front();
        }
        log.push_back(format!("{millis} ms: {text}"));
    }

    /// Recent slow queries, oldest first.
    pub fn slow_log(&self) -> Vec<String> {
        self.slow_log.lock().unwrap_or_else(PoisonError::into_inner).iter().cloned().collect()
    }

    /// Render the full exposition (Prometheus text format).
    pub fn expose(&self) -> String {
        self.registry.expose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_query_ring_survives_a_poisoning_panic() {
        let m = ServiceMetrics::new();
        m.note_slow_query(5, "before the crash");
        let m_ref = &m;
        std::thread::scope(|scope| {
            let victim = scope.spawn(move || {
                let _guard = m_ref.slow_log.lock().unwrap();
                panic!("session dies holding the slow-query ring");
            });
            assert!(victim.join().is_err());
        });
        // The ring keeps recording and reading after the poisoning.
        m.note_slow_query(7, "after the crash");
        let log = m.slow_log();
        assert_eq!(log.len(), 2, "{log:?}");
        assert!(log[1].contains("after the crash"), "{log:?}");
        assert_eq!(m.slow_queries.get(), 2);
    }
}
