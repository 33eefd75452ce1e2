//! `ledger --compare <a.json> <b.json>`: the tool behind the two-run
//! agreement criterion and every later before/after row.
//!
//! Per workload × end-to-end metric it prints both values, both spreads
//! (quartile distance of the run's own repetitions over their median),
//! the ratio b ÷ a, and a verdict against the bound `BENCHMARK.json`
//! fixes: `unresolved` when either spread is wider than the bound,
//! `worse` when b is worse than a by more than the bound, `unchanged`
//! otherwise. Counts that a seed pins exactly must be identical.

use crate::json::Json;
use crate::metrics::{end_to_end, EXACT_COUNTS};

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the value `b` is worse (negative when better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn verdict(worsening: f64, spread_a: f64, spread_b: f64, bound: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |d, key| d.get(key))?.as_f64()
}

/// Print the comparison; `Ok(true)` when every pairing is `unchanged` and
/// every exact count identical.
pub fn compare(a_path: &str, b_path: &str, bounds_path: &str) -> Result<bool, String> {
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    let bounds = bench.get("end_to_end").ok_or("no end_to_end in the bounds file")?.items();
    println!("a = {a_path}\nb = {b_path}\nbounds = {bounds_path}; ratio is b/a (base a)\n");
    println!(
        "{:<18} {:<12} {:>12} {:>8} {:>12} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "a", "spread", "b", "spread", "b/a", "bound"
    );
    let mut clean = true;
    let workloads = a.get("workloads").ok_or("no workloads in a")?;
    let mut differing = Vec::new();
    for (workload, in_a) in workloads.fields() {
        let in_b = b
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("{workload} is missing from b"))?;
        for entry in bounds {
            let name = entry.get("name").and_then(Json::as_str).ok_or("a bound without a name")?;
            let bound = entry.get("bound").and_then(Json::as_f64).ok_or("a bound without one")?;
            let def = end_to_end(name).ok_or_else(|| format!("unknown metric {name}"))?;
            let value = |doc: &Json, field: &str| num(doc, &["end_to_end", name, field]);
            let (Some(va), Some(vb)) = (value(in_a, "value"), value(in_b, "value")) else {
                return Err(format!("{workload} × {name} is missing from a run"));
            };
            let (sa, sb) =
                (value(in_a, "spread").unwrap_or(0.0), value(in_b, "spread").unwrap_or(0.0));
            let v = verdict(worsening(va, vb, def.higher_is_better), sa, sb, bound);
            clean &= v == Verdict::Unchanged;
            println!(
                "{workload:<18} {name:<12} {va:>12.4} {:>7.1}% {vb:>12.4} {:>7.1}% {:>7.3} {:>5.0}%  {}",
                sa * 100.0,
                sb * 100.0,
                vb / va,
                bound * 100.0,
                v.label()
            );
        }
        for name in EXACT_COUNTS {
            let va = num(in_a, &["per_layer", name, "value"]);
            let vb = num(in_b, &["per_layer", name, "value"]);
            if va != vb {
                differing.push(format!("{workload} × {name}: {va:?} vs {vb:?}"));
            }
        }
    }
    println!();
    if differing.is_empty() {
        println!("exact counts: all identical");
    } else {
        clean = false;
        println!("exact counts that differ:\n  {}", differing.join("\n  "));
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Latency up 5 % under a 10 % bound: unchanged; up 20 %: worse.
        assert_eq!(verdict(worsening(10.0, 10.5, false), 0.01, 0.02, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(worsening(10.0, 12.0, false), 0.01, 0.02, 0.1), Verdict::Worse);
        // Throughput falls are the worsening when higher is better.
        assert_eq!(verdict(worsening(100.0, 80.0, true), 0.0, 0.0, 0.1), Verdict::Worse);
        assert_eq!(verdict(worsening(100.0, 130.0, true), 0.0, 0.0, 0.1), Verdict::Unchanged);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(verdict(worsening(10.0, 20.0, false), 0.3, 0.0, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(0.0, 0.0, 0.11, 0.1), Verdict::Unresolved);
        assert!((worsening(10.0, 12.0, false) - 0.2).abs() < 1e-12);
    }
}
