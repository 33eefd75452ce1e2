//! `ledger` — the repository's benchmark: one seeded binary, six named
//! workloads, end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run. See `README.md` beside this crate.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last stdout line is the result
//! ledger [--seed <n>] [--seconds <s>] [--out <dir>] [--smoke]       every workload, both runs; writes ledger.json
//! ledger --compare <a.json> <b.json> [--bounds <BENCHMARK.json>]    verdict per workload × end-to-end metric
//! ```
//!
//! It drives the system only through public functions of the
//! repository's crates and shares no code with the older `eh-bench`
//! harnesses, so engine and harness code can change without touching it.

mod compare;
mod data;
mod env;
mod harness;
mod json;
mod metrics;
mod stats;
mod svc;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use env::Env;
use harness::Outcome;
use json::Json;
use metrics::WORKLOADS;

/// Marks the stdout line that carries spreads, sizes and span totals for
/// `ledger.json`; the result line proper is always the last line.
const DETAIL: &str = "#detail ";
const DEFAULT_SECONDS: f64 = 16.0;
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    bounds: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: ledger [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--out <dir>] [--smoke]\n       ledger --compare <a.json> <b.json> [--bounds <file>]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        smoke: false,
        out: None,
        compare: None,
        bounds: "BENCHMARK.json".to_string(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(s > 0.0 && s <= 60.0) {
                    usage();
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--bounds" => args.bounds = value(),
            "--compare" => args.compare = Some((value(), value())),
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    args
}

/// The detail line; an untraced run's carries each metric's spread over
/// the run's repetitions (a traced run measures its layers once).
fn detail_line(outcome: &Outcome, traced: bool) -> String {
    let mut detail = outcome.detail.clone();
    if !traced {
        let mut spread = Json::obj();
        for &(name, _, _, s) in &outcome.metrics {
            spread.set(name, s.into());
        }
        detail.set("spread", spread);
    }
    format!("{DETAIL}{detail}")
}

/// One workload, one run: the driver's mode.
fn run_one(name: &str, env: &Env, traced: bool) -> ExitCode {
    let Some(outcome) = workloads::run(name, env, traced) else { usage() };
    for &(metric, value, unit, _) in &outcome.metrics {
        eprintln!("{name} {metric} = {value} {unit}");
    }
    println!("{}", detail_line(&outcome, traced));
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{name}: {} of {} operations failed", outcome.failed, outcome.attempted);
        ExitCode::FAILURE
    }
}

/// Run `workload` in a fresh child process (so set-up time and peak
/// memory are its own) and return its result and detail lines.
fn child(workload: &str, env: &Env, traced: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &env.seed.to_string()])
        .args(["--seconds", &env.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&env.out_dir)
        .stderr(Stdio::null());
    if env.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().ok_or_else(|| format!("{workload}: no result line"))?;
    let detail = stdout.lines().rev().find_map(|l| l.strip_prefix(DETAIL)).unwrap_or("{}");
    let parse = |text: &str| Json::parse(text).map_err(|e| format!("{workload}: {e}: {text}"));
    Ok((parse(result)?, parse(detail)?))
}

/// Merge a run's metrics with their spreads: name → {value, unit, spread}.
fn with_spreads(result: &Json, detail: &Json) -> Json {
    let mut out = Json::obj();
    for (name, metric) in result.get("metrics").map_or(&[][..], Json::fields) {
        let mut m = metric.clone();
        if let Some(s) = detail.get("spread").and_then(|s| s.get(name)) {
            m.set("spread", s.clone());
        }
        out.set(name, m);
    }
    out
}

/// Every workload, untraced then traced, each in its own process; prints
/// every metric by name with its unit and writes `ledger.json`.
fn run_all(env: &Env) -> ExitCode {
    let mut all = Json::obj();
    let mut clean = true;
    for workload in WORKLOADS {
        let mut sections = Vec::new();
        let mut totals = [0.0f64; 2];
        let mut correct = true;
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (result, detail) = match child(workload, env, traced) {
                Ok(lines) => lines,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            for (i, count) in ["attempted", "failed"].iter().enumerate() {
                totals[i] += result.get(count).and_then(Json::as_f64).unwrap_or(0.0);
            }
            let metrics = with_spreads(&result, &detail);
            for (name, m) in metrics.fields() {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
                if traced {
                    println!("{workload:<18} {name:<34} {value:>16.4} {unit}");
                } else {
                    let pct = spread * 100.0;
                    println!("{workload:<18} {name:<34} {value:>16.4} {unit}  (spread {pct:.1}%)");
                }
            }
            sections.push((key, metrics));
            sections.push((if traced { "traced" } else { "untraced" }, detail));
        }
        let failed_share = totals[1] / totals[0].max(1.0);
        println!("{workload:<18} {:<34} {failed_share:>16.4} share\n", "failed_share");
        let mut head = Json::obj();
        head.set("correct", correct.into())
            .set("attempted", totals[0].into())
            .set("failed", totals[1].into())
            .set("failed_share", failed_share.into());
        for (key, section) in sections {
            head.set(key, section);
        }
        clean &= correct;
        all.set(workload, head);
    }
    let mut doc = Json::obj();
    doc.set("seed", env.seed.into())
        .set("seconds", env.seconds.into())
        .set("smoke", env.smoke.into())
        .set("nproc", (env.nproc as u64).into())
        .set("workloads", all);
    let path = env.out_dir.join("ledger.json");
    let written =
        std::fs::create_dir_all(&env.out_dir).and_then(|()| std::fs::write(&path, doc.pretty()));
    if let Err(e) = written {
        eprintln!("{}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if clean {
        ExitCode::SUCCESS
    } else {
        eprintln!("some operations failed or answered wrongly: see failed_share above");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b, &args.bounds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let env = Env {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS }),
        smoke: args.smoke,
        nproc: env::nproc(),
        out_dir: args.out.unwrap_or_else(env::default_out_dir),
    };
    match &args.workload {
        Some(name) => run_one(name, &env, args.traced),
        None => run_all(&env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke`: LUBM `tiny(1)`, one repetition, all six workloads and
    /// the tracer, in a few seconds; every metric named in `metrics.rs`
    /// comes out, nothing fails, and the trace file is well-formed.
    #[test]
    fn smoke_runs_every_workload_untraced_and_traced() {
        let out = env::ScratchDir::new("smoke-test");
        let env = Env {
            seed: 7,
            seconds: SMOKE_SECONDS,
            smoke: true,
            nproc: env::nproc(),
            out_dir: out.path().to_path_buf(),
        };
        for workload in WORKLOADS {
            for traced in [false, true] {
                let outcome = workloads::run(workload, &env, traced).expect("a known workload");
                assert!(outcome.correct, "{workload} traced={traced}: {} failed", outcome.failed);
                assert!(outcome.attempted >= 1);
                let expected: Vec<&str> = if traced {
                    metrics::PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    metrics::END_TO_END.iter().map(|m| m.name).collect()
                };
                let got: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
                assert_eq!(got, expected, "{workload}");
                assert!(outcome.metrics.iter().all(|m| m.1.is_finite()), "{workload}");
                if !traced {
                    assert!(outcome.metrics.iter().all(|m| m.1 > 0.0), "{workload}: a zero");
                }
                let line = Json::parse(&outcome.result_line()).expect("the result line parses");
                assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
                let detail = detail_line(&outcome, traced);
                assert!(Json::parse(detail.strip_prefix(DETAIL).unwrap()).is_ok());
            }
            let trace =
                std::fs::read_to_string(env.out_dir.join(format!("trace_{workload}.jsonl")))
                    .expect("the traced run wrote its spans");
            assert!(trace.lines().count() > 3, "{workload}");
            assert!(trace.lines().all(|l| Json::parse(l).is_ok()), "{workload}");
        }
        assert!(workloads::run("no_such_workload", &env, false).is_none());
    }
}
