//! The measuring loop every workload shares.
//!
//! An untraced run sets the workload up [`SETUP_REPS`] times or more
//! (reporting the median as `setup_s`), checks every reference answer against the
//! oracle once, then measures for `--seconds` in [`REPS`] equal
//! repetitions of whole passes over the workload's pinned operation list.
//! All loops are closed: a client sends its next request only when the
//! previous reply has arrived and been checked, because every caller of
//! this system waits for its answer.
//!
//! A traced run sets up once under spans, alternates untraced and traced
//! passes of the same loop (the rate difference is the tracer's overhead)
//! and then lets the workload probe its layers one public call at a time.
//! End-to-end numbers only ever come from the untraced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::env::{peak_rss_mb, Env};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{mean, median, percentile, sorted, spread, tail_supported};
use crate::trace::Tracer;

/// Repetitions of the timed section; the spread reported beside each
/// metric is the quartile distance of the per-repetition values.
pub const REPS: usize = 10;
/// A workload's model checkpoint runs after every this many repetitions.
const CHECKPOINT_EVERY: usize = 2;
/// Set-ups per untraced run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.5;

/// What one closed-loop client did in one repetition.
#[derive(Debug, Default)]
pub struct Lane {
    /// Latency of every operation, reads and writes alike.
    pub lat_ns: Vec<u64>,
    /// Latency of the writes among them.
    pub write_ns: Vec<u64>,
    /// Result rows delivered to the client.
    pub rows: u64,
    /// Operations that failed, were refused or answered wrongly.
    pub failed: u64,
}

impl Lane {
    pub fn read(&mut self, ns: u64, rows: u64, ok: bool) {
        self.lat_ns.push(ns);
        self.rows += rows;
        self.failed += u64::from(!ok);
    }

    pub fn write(&mut self, ns: u64, ok: bool) {
        self.lat_ns.push(ns);
        self.write_ns.push(ns);
        self.failed += u64::from(!ok);
    }

    fn append(&mut self, other: Lane) {
        self.lat_ns.extend(other.lat_ns);
        self.write_ns.extend(other.write_ns);
        self.rows += other.rows;
        self.failed += other.failed;
    }

    fn busy_s(&self) -> f64 {
        self.lat_ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// Operations and rows per second of one repetition: each client's count
/// over the time it spent waiting for replies, summed over clients
/// (checking an answer is the client's think time, not the system's).
fn rates(lanes: &[Lane]) -> (f64, f64) {
    lanes.iter().filter(|l| !l.lat_ns.is_empty()).fold((0.0, 0.0), |(ops, rows), l| {
        (ops + l.lat_ns.len() as f64 / l.busy_s(), rows + l.rows as f64 / l.busy_s())
    })
}

/// Checks made outside the timed loop (oracle, model): how many, how
/// many failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Check {
    pub checked: u64,
    pub failed: u64,
}

impl Check {
    pub fn note(&mut self, ok: bool) {
        self.checked += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Check) {
        self.checked += other.checked;
        self.failed += other.failed;
    }
}

/// Per-layer values a workload's probe fills in; layers it leaves out
/// report 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The tail percentile `op_ms_tail` reports: the highest one that a
    /// run of this workload leaves ten samples beyond.
    const TAIL_PCT: f64;

    /// Generate, load and warm: everything before the first request.
    fn setup(env: &Env, tr: &mut Tracer) -> Self;
    /// Check the reference answers against the independent oracle.
    fn verify(&mut self, tr: &mut Tracer) -> Check;
    /// Whole passes over the pinned operation list until `deadline`.
    fn run_rep(&mut self, deadline: Instant, tr: &mut Tracer) -> Vec<Lane>;
    /// Traced run only: measure this workload's layers one call at a time.
    fn probe(&mut self, env: &Env, budget: Duration, tr: &mut Tracer, layers: &mut Layers);
    /// Sizes for the ledger: triples, operations per pass, clients, ...
    fn sizes(&self) -> Json;
    /// Checks after every second repetition and the last, outside every
    /// timed operation.
    fn checkpoint(&mut self) -> Check {
        Check::default()
    }
}

/// Run whole passes until the deadline; always at least one.
pub fn passes_until(deadline: Instant, mut pass: impl FnMut()) {
    loop {
        pass();
        if Instant::now() >= deadline {
            return;
        }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name, value, unit, relative spread across repetitions.
    pub metrics: Vec<(&'static str, f64, &'static str, f64)>,
    /// Sizes, span totals and the like, for `ledger.json`.
    pub detail: Json,
}

impl Outcome {
    /// The result line of the driver contract.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::obj();
        for &(name, value, unit, _) in &self.metrics {
            let mut m = Json::obj();
            m.set("value", value.into()).set("unit", unit.into());
            metrics.set(name, m);
        }
        let mut line = Json::obj();
        line.set("correct", self.correct.into())
            .set("attempted", self.attempted.into())
            .set("failed", self.failed.into())
            .set("metrics", metrics);
        line.to_string()
    }
}

struct Samples {
    /// Per repetition: (median ms, tail ms, ops/s, rows/s).
    per_rep: Vec<[f64; 4]>,
    pooled_ms: Vec<f64>,
    write_ms: Vec<f64>,
    failed: u64,
}

fn collect(reps: Vec<Vec<Lane>>, tail_pct: f64) -> Samples {
    let mut out =
        Samples { per_rep: Vec::new(), pooled_ms: Vec::new(), write_ms: Vec::new(), failed: 0 };
    for lanes in reps {
        let ms = |ns: &u64| *ns as f64 / 1e6;
        let rep_ms = sorted(lanes.iter().flat_map(|l| l.lat_ns.iter().map(ms)).collect());
        let (ops, rows) = rates(&lanes);
        out.per_rep.push([percentile(&rep_ms, 50.0), percentile(&rep_ms, tail_pct), ops, rows]);
        out.pooled_ms.extend(rep_ms);
        out.write_ms.extend(lanes.iter().flat_map(|l| l.write_ns.iter().map(ms)));
        out.failed += lanes.iter().map(|l| l.failed).sum::<u64>();
    }
    out.pooled_ms = sorted(std::mem::take(&mut out.pooled_ms));
    out.write_ms = sorted(std::mem::take(&mut out.write_ms));
    out
}

pub fn run_untraced<W: Workload>(env: &Env) -> Outcome {
    let mut tr = Tracer::new(false);
    // Set up at least SETUP_REPS times, and keep going (to MAX_SETUP_REPS)
    // until SETUP_BUDGET_S is spent: a quarter-second set-up needs more
    // repeats than a two-second one for its median to hold still.
    let mut setups = Vec::new();
    let mut workload = None;
    let mut peak_mb = 0.0;
    while !setup_done(env, &setups) {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(W::setup(env, &mut tr));
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() == 1 {
            // The high-water mark through the first set-up: what loading
            // and warming needed, before repeats and the benchmark's own
            // bookkeeping (reference answers, model stores) blur it.
            peak_mb = peak_rss_mb();
        }
    }
    let mut w = workload.expect("at least one set-up");
    let mut check = w.verify(&mut tr);

    let reps = if env.smoke { 1 } else { REPS };
    let slice = Duration::from_secs_f64(env.seconds / reps as f64);
    let mut lanes = Vec::new();
    for rep in 1..=reps {
        lanes.push(w.run_rep(Instant::now() + slice, &mut tr));
        if rep % CHECKPOINT_EVERY == 0 || rep == reps {
            check.add(w.checkpoint());
        }
    }
    let s = collect(lanes, W::TAIL_PCT);
    let column = |i: usize| -> Vec<f64> { s.per_rep.iter().map(|r| r[i]).collect() };

    let values: [(f64, f64); 5] = [
        (median(&setups), spread(&setups)),
        (percentile(&s.pooled_ms, 50.0), spread(&column(0))),
        (percentile(&s.pooled_ms, W::TAIL_PCT), spread(&column(1))),
        (median(&column(2)), spread(&column(2))),
        (peak_mb, 0.0),
    ];
    let metrics =
        END_TO_END.iter().zip(values).map(|(m, (v, sp))| (m.name, v, m.unit, sp)).collect();

    let mut detail = Json::obj();
    detail
        .set("op_samples", (s.pooled_ms.len() as u64).into())
        .set("op_tail_pct", W::TAIL_PCT.into())
        .set("tail_supported", tail_supported(s.pooled_ms.len(), W::TAIL_PCT).into())
        .set("setups", (setups.len() as u64).into())
        .set("checks", check.checked.into())
        .set("per_rep_ops", Json::Arr(column(2).into_iter().map(Json::Num).collect()))
        .set("per_rep_p50", Json::Arr(column(0).into_iter().map(Json::Num).collect()))
        .set("per_rep_tail", Json::Arr(column(1).into_iter().map(Json::Num).collect()))
        .set("setup_times", Json::Arr(setups.iter().copied().map(Json::Num).collect()))
        .set("sizes", w.sizes());
    let failed = s.failed + check.failed;
    Outcome {
        correct: failed == 0,
        attempted: s.pooled_ms.len() as u64 + check.checked,
        failed,
        metrics,
        detail,
    }
}

fn setup_done(env: &Env, setups: &[f64]) -> bool {
    if env.smoke {
        return !setups.is_empty();
    }
    let spent: f64 = setups.iter().sum();
    setups.len() >= MAX_SETUP_REPS || (setups.len() >= SETUP_REPS && spent >= SETUP_BUDGET_S)
}

pub fn run_traced<W: Workload>(env: &Env) -> Outcome {
    let mut tr = Tracer::new(true);
    let mut layers = Layers::default();
    let mut w = W::setup(env, &mut tr);
    let oracle = tr.enter("baselines.oracle", 0);
    let mut check = w.verify(&mut tr);
    tr.exit(oracle);

    // Alternate untraced and traced passes of the measuring loop — the
    // same process, data and cache state on both sides, and drift in the
    // machine's speed spread evenly over both — for two fifths of the
    // run. A deadline already past makes `run_rep` do exactly one pass.
    let until = Instant::now() + Duration::from_secs_f64(env.seconds * 0.4);
    let mut sides: [Vec<Lane>; 2] = [Vec::new(), Vec::new()];
    let mut k = 0;
    while k < 2 || Instant::now() < until {
        tr.set_on(k % 2 == 1);
        let side = &mut sides[k % 2];
        for (i, lane) in w.run_rep(Instant::now(), &mut tr).into_iter().enumerate() {
            match side.get_mut(i) {
                Some(client) => client.append(lane),
                None => side.push(lane),
            }
        }
        k += 1;
    }
    tr.set_on(true);
    check.add(w.checkpoint());
    let [untraced, traced] = sides;
    layers.set("trace.overhead_pct", (1.0 - rates(&traced).0 / rates(&untraced).0) * 100.0);
    let lanes = vec![untraced, traced];

    w.probe(env, Duration::from_secs_f64(env.seconds * 0.6), &mut tr, &mut layers);

    let s = collect(lanes, W::TAIL_PCT);
    let failed = s.failed + check.failed;
    let attempted = s.pooled_ms.len() as u64 + check.checked;
    layers.set("op_samples", s.pooled_ms.len() as f64);
    layers.set("rows_per_s", median(&s.per_rep.iter().map(|r| r[3]).collect::<Vec<_>>()));
    layers.set("op_tail_pct", W::TAIL_PCT);
    layers.set("failed_share", failed as f64 / attempted as f64);
    if !s.write_ms.is_empty() {
        layers.set("write_ms_p50", percentile(&s.write_ms, 50.0));
        layers.set("write_ms_p99", percentile(&s.write_ms, 99.0));
    }
    // Set-up layers are spans recorded inside `setup` and around `verify`.
    let totals = tr.totals();
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e6);
    layers.set("lubm.generate_ms", total_ms("lubm.generate"));
    // `rdf.load` spans stream generation into the store; generation alone
    // was timed separately (see `data::load_lubm`).
    layers.set("rdf.load_ms", (total_ms("rdf.load") - total_ms("lubm.generate")).max(0.0));
    layers.set("baselines.oracle_ms", total_ms("baselines.oracle"));
    layers.set("trie.warm_ms", total_ms("trie.warm"));
    layers.set("trace.spans", tr.spans().len() as f64);

    let mut spans = Json::obj();
    for (name, (count, total, self_ns)) in &totals {
        let mut row = Json::obj();
        row.set("count", (*count).into())
            .set("total_ms", (*total as f64 / 1e6).into())
            .set("self_ms", (*self_ns as f64 / 1e6).into());
        spans.set(name, row);
    }
    let mut detail = Json::obj();
    detail.set("sizes", w.sizes()).set("spans", spans);
    drop(w);

    std::fs::create_dir_all(&env.out_dir).expect("create the output directory");
    let path = env.out_dir.join(format!("trace_{}.jsonl", W::NAME));
    tr.write_jsonl(&path).expect("write the trace");
    detail.set("trace_file", Json::Str(path.display().to_string()));

    let metrics = PER_LAYER.iter().map(|m| (m.name, layers.get(m.name), m.unit, 0.0)).collect();
    Outcome { correct: failed == 0, attempted, failed, metrics, detail }
}

/// Mean of `f` over `n` calls, in microseconds.
pub fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    mean(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_sum_over_clients_and_ignore_idle_ones() {
        let mut a = Lane::default();
        a.read(500_000_000, 10, true);
        a.read(500_000_000, 10, true);
        let mut b = Lane::default();
        b.write(250_000_000, false);
        let idle = Lane::default();
        let (ops, rows) = rates(&[a, b, idle]);
        assert_eq!(ops, 2.0 + 4.0);
        assert_eq!(rows, 20.0);
    }

    #[test]
    fn collect_pools_samples_and_counts_failures() {
        let rep = |ms: &[u64], bad: bool| {
            let mut l = Lane::default();
            for &m in ms {
                l.read(m * 1_000_000, 1, true);
            }
            l.write(9_000_000, !bad);
            vec![l]
        };
        let s = collect(vec![rep(&[1, 2, 3], false), rep(&[4, 5, 6], true)], 90.0);
        assert_eq!(s.pooled_ms, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 9.0]);
        assert_eq!(s.write_ms, vec![9.0, 9.0]);
        assert_eq!(s.failed, 1);
        assert_eq!(s.per_rep[0][0], 2.0);
        assert_eq!(s.per_rep[1][1], 9.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s", 0.01)],
            detail: Json::obj(),
        };
        let line = Json::parse(&out.result_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.fields().len(), 2);
    }
}
