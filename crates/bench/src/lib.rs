//! # eh-bench
//!
//! The benchmark harness that regenerates every table and figure of
//! Aberger et al. (ICDE 2016):
//!
//! | Artefact | Binary | What it reproduces |
//! |---|---|---|
//! | Table I | `table1` | relative speedup of +Layout / +Attribute / +GHD / +Pipelining on LUBM queries 1, 2, 4, 7, 8, 14 |
//! | Table II | `table2` | runtimes of EmptyHeaded vs the four simulated engines on the 12-query LUBM workload |
//! | Figure 1 | `figure1` | vertically partitioned relation → dictionary encoding → trie |
//! | Figure 2 | `figure2` | the GHD chosen for LUBM query 2 (fhw 3/2) |
//! | Figure 3 | `figure3` | the across-node GHD transformation of LUBM query 4 |
//!
//! One more binary times what the repository's `ledger` benchmark does
//! not run yet: `scaling` (the LUBM cyclic queries at 1/2/4/8 worker
//! threads). Serving, update, cold-start and write-ahead-log costs are
//! `ledger` workloads, not binaries here.
//!
//! Criterion micro/ablation benches live under `benches/`.
//!
//! Timing follows the paper's methodology (§IV-A4): each query runs seven
//! times, the best and worst runs are discarded, and the remaining five
//! are averaged. Query compilation (planning) is excluded for the
//! worst-case optimal engines, as the paper excludes EmptyHeaded's
//! compilation time.

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, Copy)]
pub struct HarnessArgs {
    /// LUBM scale (number of universities).
    pub universities: u32,
    /// Total timed runs per measurement (best and worst are dropped).
    pub runs: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs { universities: 5, runs: 7, seed: 42 }
    }
}

impl HarnessArgs {
    /// Parse `--universities N`, `--runs K`, `--seed S` from argv;
    /// unknown arguments abort with a usage message.
    pub fn from_env() -> HarnessArgs {
        let mut args = HarnessArgs::default();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let value = |i: usize| {
                argv.get(i + 1)
                    .unwrap_or_else(|| panic!("missing value after {}", argv[i]))
                    .parse::<u64>()
                    .unwrap_or_else(|e| panic!("bad value after {}: {e}", argv[i]))
            };
            match argv[i].as_str() {
                "--universities" | "-u" => {
                    args.universities = value(i) as u32;
                    i += 2;
                }
                "--runs" | "-r" => {
                    args.runs = value(i) as usize;
                    i += 2;
                }
                "--seed" | "-s" => {
                    args.seed = value(i);
                    i += 2;
                }
                other => {
                    eprintln!(
                        "unknown argument {other}; expected --universities N, --runs K, --seed S"
                    );
                    std::process::exit(2);
                }
            }
        }
        assert!(args.runs >= 3, "need at least 3 runs to drop best and worst");
        args
    }
}

/// Deterministic pseudo-random sorted value set: `n` strictly increasing
/// `u32`s with average stride `(1 + max_stride) / 2` (larger stride =
/// sparser set). The setops criterion bench's workload generator.
pub fn synth_set(n: usize, max_stride: u32, seed: u64) -> Vec<u32> {
    let mut state = seed | 1;
    let mut v = 0u32;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        v = v.wrapping_add(1 + ((state >> 33) as u32 % max_stride));
        out.push(v);
    }
    out
}

/// Paper §IV-A4 timing: run `f` `runs` times, drop the best and worst
/// wall-clock times, and average the rest.
pub fn measure(runs: usize, mut f: impl FnMut()) -> Duration {
    assert!(runs >= 3);
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    let kept = &times[1..times.len() - 1];
    kept.iter().sum::<Duration>() / kept.len() as u32
}

/// Milliseconds with three decimals, for table cells.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// A relative-runtime cell: `1.00x` marks the best engine.
pub fn fmt_rel(d: Duration, best: Duration) -> String {
    format!("{:.2}x", d.as_secs_f64() / best.as_secs_f64())
}

/// Machine-readable benchmark emission: collects flat key → value
/// metrics and writes them as `BENCH_<name>.json` (into `$EH_BENCH_OUT`
/// if set, else the working directory), so CI runs accumulate a
/// perf-trajectory file set instead of scroll-back tables.
///
/// The JSON is hand-rendered (the build environment has no serde): one
/// object with `bench`, `meta` string fields, and a `metrics` object of
/// numbers.
pub struct BenchReport {
    name: String,
    meta: Vec<(String, String)>,
    metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// Start a report for the benchmark `name`.
    pub fn new(name: &str) -> BenchReport {
        BenchReport { name: name.to_string(), meta: Vec::new(), metrics: Vec::new() }
    }

    /// Attach a descriptive string field (machine, scale, mode, ...).
    pub fn meta(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }

    /// Record one numeric metric.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.push((key.to_string(), value));
        self
    }

    /// Record a duration in milliseconds under `key`.
    pub fn metric_ms(&mut self, key: &str, d: Duration) -> &mut Self {
        self.metric(key, d.as_secs_f64() * 1e3)
    }

    fn render(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", esc(&self.name)));
        out.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": \"{}\"", esc(k), esc(v)));
        }
        out.push_str(if self.meta.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // JSON has no NaN/Inf; emit null so a broken measurement
            // stays distinguishable from a genuine zero.
            if v.is_finite() {
                out.push_str(&format!("\n    \"{}\": {v}", esc(k)));
            } else {
                out.push_str(&format!("\n    \"{}\": null", esc(k)));
            }
        }
        out.push_str(if self.metrics.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Write `BENCH_<name>.json` and return its path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var_os("EH_BENCH_OUT").map(PathBuf::from).unwrap_or_default();
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(&dir)?;
        }
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.render().as_bytes())?;
        Ok(path)
    }
}

/// Fixed-width table printer for harness output.
pub struct TablePrinter {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Start a table with a header row.
    pub fn new(header: &[&str]) -> TablePrinter {
        let mut t = TablePrinter { widths: header.iter().map(|h| h.len()).collect(), rows: vec![] };
        t.row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        t
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "row arity mismatch");
        for (w, c) in self.widths.iter_mut().zip(cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells.to_vec());
    }

    /// Render with two-space column gaps; header separated by dashes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, row) in self.rows.iter().enumerate() {
            let line: Vec<String> =
                row.iter().zip(&self.widths).map(|(c, w)| format!("{c:<w$}")).collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
            if i == 0 {
                let total: usize = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_drops_extremes() {
        let mut calls = 0;
        let d = measure(5, || calls += 1);
        assert_eq!(calls, 5);
        assert!(d.as_nanos() < 10_000_000);
    }

    #[test]
    fn table_printer_aligns() {
        let mut t = TablePrinter::new(&["Query", "Best"]);
        t.row(&["Q1".to_string(), "4.00".to_string()]);
        let s = t.render();
        assert!(s.contains("Query  Best"), "{s}");
        assert!(s.contains("Q1     4.00"), "{s}");
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(Duration::from_micros(1500)), "1.500");
        assert_eq!(fmt_rel(Duration::from_millis(3), Duration::from_millis(2)), "1.50x");
    }

    #[test]
    fn default_args() {
        let a = HarnessArgs::default();
        assert_eq!(a.universities, 5);
        assert_eq!(a.runs, 7);
    }

    #[test]
    fn bench_report_renders_valid_flat_json() {
        let mut r = BenchReport::new("unit");
        r.meta("mode", "quick").meta("quoted", "a\"b\\c");
        r.metric("qps", 1234.5).metric_ms("lat", Duration::from_micros(1500));
        let s = r.render();
        assert!(s.contains("\"bench\": \"unit\""), "{s}");
        assert!(s.contains("\"mode\": \"quick\""), "{s}");
        assert!(s.contains("\"quoted\": \"a\\\"b\\\\c\""), "{s}");
        assert!(s.contains("\"qps\": 1234.5"), "{s}");
        assert!(s.contains("\"lat\": 1.5"), "{s}");
        // Non-finite measurements surface as null, not a fake zero.
        r.metric("broken", f64::INFINITY);
        assert!(r.render().contains("\"broken\": null"), "{}", r.render());
        // Balanced braces = parseable by any JSON reader.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        // Empty sections stay valid.
        let empty = BenchReport::new("e").render();
        assert!(empty.contains("\"meta\": {}"), "{empty}");
        assert!(empty.contains("\"metrics\": {}"), "{empty}");
    }
}
