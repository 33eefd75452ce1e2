//! The names, units and directions of every metric the ledger reports.
//! `BENCHMARK.json` repeats them (a self-test keeps the two in step), and
//! every workload prints every one of them: a per-layer metric of a layer
//! the workload does not exercise reads 0.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is the better one.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true }
}

pub const WORKLOADS: [&str; 6] =
    ["cyclic_join", "selective_request", "emit_request", "serving_mix", "update_read", "cold_open"];

/// What a user of the system sees, from the untraced run.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("op_ms_p50", "ms"),
    lower("op_ms_tail", "ms"),
    higher("ops_per_s", "1/s"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers, from the traced run. Layer = crate or module name.
pub const PER_LAYER: [MetricDef; 58] = [
    // What the run was: sample count, which tail percentile it supports,
    // failures, rows delivered (for one seed a fixed multiple of
    // `ops_per_s`, so not an end-to-end metric of its own) and the write
    // latency a client saw.
    higher("op_samples", "count"),
    higher("rows_per_s", "1/s"),
    higher("op_tail_pct", "%"),
    lower("failed_share", "share"),
    lower("write_ms_p50", "ms"),
    lower("write_ms_p99", "ms"),
    lower("stored_bytes_per_triple", "B"),
    // Set-up.
    lower("lubm.generate_ms", "ms"),
    lower("rdf.load_ms", "ms"),
    lower("baselines.oracle_ms", "ms"),
    lower("trie.warm_ms", "ms"),
    lower("trie.rewarm_us", "us"),
    // Request front half: parse, canonicalise, plan.
    lower("query.parse_us", "us"),
    lower("query.canon_us", "us"),
    lower("core.plan_us", "us"),
    lower("ghd.choose_us", "us"),
    higher("srv.plan_hit_ratio", "ratio"),
    // Join execution.
    lower("core.exec_us", "us"),
    lower("setops.intersect_ns", "ns"),
    lower("setops.dispatches", "count"),
    lower("setops.candidates_per_row", "ratio"),
    higher("setops.bitset_share", "ratio"),
    higher("exec.rows", "count"),
    lower("exec.morsels", "count"),
    lower("par.worker_imbalance", "ratio"),
    higher("par.speedup_2t", "ratio"),
    higher("baselines.pairwise_ratio_q2", "ratio"),
    higher("baselines.pairwise_ratio_q9", "ratio"),
    higher("baselines.pairwise_ratio_triangle", "ratio"),
    // Request back half: decode, render, respond, wire.
    lower("rdf.decode_us", "us"),
    lower("srv.render_us", "us"),
    lower("srv.render_bytes", "B"),
    lower("srv.respond_us", "us"),
    lower("srv.wire_us", "us"),
    // Caches.
    lower("srv.cache_hit_us", "us"),
    higher("srv.result_hit_ratio", "ratio"),
    lower("srv.result_cache_bytes", "B"),
    lower("srv.invalidations", "count"),
    // Write path.
    lower("core.update_us", "us"),
    lower("rdf.stage_us", "us"),
    lower("rdf.batch_encode_us", "us"),
    lower("wal.append_us", "us"),
    lower("wal.bytes_per_batch", "B"),
    lower("wal.fsyncs", "count"),
    lower("wal.fsync_us", "us"),
    lower("core.compact_ms", "ms"),
    lower("core.compactions", "count"),
    lower("rdf.staged_pairs_max", "count"),
    // Cold open.
    lower("rdf.snapshot_write_ms", "ms"),
    lower("rdf.snapshot_open_mmap_ms", "ms"),
    lower("rdf.snapshot_read_copy_ms", "ms"),
    lower("rdf.snapshot_bytes", "B"),
    lower("wal.replay_ms", "ms"),
    lower("wal.replay_records", "count"),
    lower("core.first_pass_ms", "ms"),
    // The tracer itself, and whether the stages add up.
    lower("trace.overhead_pct", "%"),
    lower("trace.stage_sum_ratio", "ratio"),
    lower("trace.spans", "count"),
];

/// Per-layer metrics counted over a pinned number of operations: two runs
/// with the same seed must report them identically (`--compare` checks).
/// The executor's tallies are schedule-invariant, so they qualify even on
/// the workload that runs the join on two threads.
pub const EXACT_COUNTS: [&str; 13] = [
    "stored_bytes_per_triple",
    "setops.dispatches",
    "setops.candidates_per_row",
    "setops.bitset_share",
    "exec.rows",
    "srv.render_bytes",
    "srv.result_cache_bytes",
    "wal.bytes_per_batch",
    "wal.fsyncs",
    "core.compactions",
    "rdf.staged_pairs_max",
    "rdf.snapshot_bytes",
    "wal.replay_records",
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// At most `max` letters, digits and characters of `extra`.
    fn well_formed(text: &str, max: usize, extra: &str) -> bool {
        !text.is_empty()
            && text.len() <= max
            && text.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name);
        for name in WORKLOADS.into_iter().chain(names) {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.unit, 16, "_/%.-"), "{} unit {}", m.name, m.unit);
        }
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && !m.higher_is_better));
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly these
    /// workloads and metrics, with these units and directions.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let names = |key: &str| -> Vec<String> {
            let items = doc.get(key).unwrap().items();
            items.iter().map(|w| w.get("name").unwrap().as_str().unwrap().to_string()).collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for w in doc.get("workloads").unwrap().items() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit), "{}", def.name);
                let better = if def.higher_is_better { "higher" } else { "lower" };
                assert_eq!(entry.get("better").unwrap().as_str(), Some(better), "{}", def.name);
                let bound = entry.get("bound").and_then(Json::as_f64);
                if key == "end_to_end" {
                    assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", def.name);
                } else {
                    assert!(bound.is_none(), "{} is unbounded", def.name);
                }
            }
        }
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    }
}
