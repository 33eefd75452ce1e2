//! Query profiling: measured execution statistics behind
//! [`Engine::run_plan_profiled`](crate::Engine::run_plan_profiled) and
//! [`Engine::explain_analyze`](crate::Engine::explain_analyze), the
//! `EXPLAIN ANALYZE` a serving tier's `PROFILE` verb returns.
//!
//! Recording is split in two layers:
//!
//! * **Collectors** (`ExecStats`, `JoinStats`, `DepthStats`) — relaxed
//!   atomics shared across worker threads, threaded through the executor
//!   only when a profiled run asks for them (the unprofiled path carries
//!   `None` and pays nothing, not even a clock read).
//! * **Snapshots** ([`QueryProfile`], [`JoinProfile`], [`DepthProfile`],
//!   [`KernelTally`], [`WorkerLoad`]) — plain owned values taken after
//!   the run completes, safe to hold, compare, and render.
//!
//! The counted quantities are **schedule-invariant**: kernel tallies,
//! candidate counts, probe counts, and row counts are identical for 1,
//! 2, or N worker threads (the parallel split materialises the split
//! depth's candidates exactly the way the sequential step would, and all
//! deeper work is per-candidate). Wall times, morsel counts, worker
//! loads, and epoch retries are inherently volatile; the renderer
//! prefixes those lines with `~` so consumers (and the byte-stability
//! tests) can separate the two.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eh_par::TaskObserver;
use eh_setops::MultiwayKernel;

/// Per-depth recording slots. All counters are relaxed atomics because
/// morsels on different workers record into the same depth concurrently;
/// every increment is exact (nothing is sampled).
#[derive(Debug, Default)]
pub(crate) struct DepthStats {
    word_and: AtomicU64,
    probe_smallest: AtomicU64,
    fold_merge: AtomicU64,
    single_iter: AtomicU64,
    selected_probes: AtomicU64,
    exists_checks: AtomicU64,
    candidates: AtomicU64,
    intersect_ns: AtomicU64,
}

/// Collector for one executed join (a GHD node's Generic Join or the
/// final materialisation join).
#[derive(Debug)]
pub(crate) struct JoinStats {
    pub label: String,
    /// Attribute name per depth, in processing order.
    pub vars: Vec<String>,
    /// Whether each depth is an equality selection.
    pub sel: Vec<bool>,
    pub emit_depth: usize,
    /// How many of the join's relations carried an LSM novelty overlay
    /// (staged, uncompacted deltas) when the spec was assembled. Fixed at
    /// registration — schedule-invariant by construction.
    pub overlay_rels: usize,
    depths: Vec<DepthStats>,
    rows: AtomicU64,
    wall_ns: AtomicU64,
    morsels: AtomicU64,
}

impl JoinStats {
    pub fn new(
        label: String,
        vars: Vec<String>,
        sel: Vec<bool>,
        emit_depth: usize,
        overlay_rels: usize,
    ) -> JoinStats {
        let n = vars.len();
        JoinStats {
            label,
            vars,
            sel,
            emit_depth,
            overlay_rels,
            depths: (0..n).map(|_| DepthStats::default()).collect(),
            rows: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            morsels: AtomicU64::new(0),
        }
    }

    /// Record one multiway-driver dispatch at `depth`: the kernel that
    /// ran (`None` when the driver short-circuited on an empty operand),
    /// the candidate count it produced, and the wall time it took.
    pub fn note_multiway(
        &self,
        depth: usize,
        kernel: Option<MultiwayKernel>,
        candidates: u64,
        ns: u64,
    ) {
        let d = &self.depths[depth];
        match kernel {
            Some(MultiwayKernel::WordAnd) => d.word_and.fetch_add(1, Ordering::Relaxed),
            Some(MultiwayKernel::ProbeSmallest) => d.probe_smallest.fetch_add(1, Ordering::Relaxed),
            Some(MultiwayKernel::FoldMerge) => d.fold_merge.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        d.candidates.fetch_add(candidates, Ordering::Relaxed);
        d.intersect_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record a single-participant iteration (no kernel dispatch) at
    /// `depth` producing `candidates` values.
    pub fn note_single(&self, depth: usize, candidates: u64, ns: u64) {
        let d = &self.depths[depth];
        d.single_iter.fetch_add(1, Ordering::Relaxed);
        d.candidates.fetch_add(candidates, Ordering::Relaxed);
        d.intersect_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one equality-selection probe attempt at `depth`.
    pub fn note_selected(&self, depth: usize) {
        self.depths[depth].selected_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one non-materialising EXISTS check at `depth`.
    pub fn note_exists(&self, depth: usize) {
        self.depths[depth].exists_checks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_morsels(&self, n: u64) {
        self.morsels.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set_rows(&self, rows: u64) {
        self.rows.store(rows, Ordering::Relaxed);
    }

    pub fn add_wall_ns(&self, ns: u64) {
        self.wall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> JoinProfile {
        JoinProfile {
            label: self.label.clone(),
            emit_depth: self.emit_depth,
            overlay_rels: self.overlay_rels as u64,
            rows: self.rows.load(Ordering::Relaxed),
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            morsels: self.morsels.load(Ordering::Relaxed),
            depths: self
                .depths
                .iter()
                .enumerate()
                .map(|(i, d)| DepthProfile {
                    var: self.vars[i].clone(),
                    selected: self.sel[i],
                    kernels: KernelTally {
                        word_and: d.word_and.load(Ordering::Relaxed),
                        probe_smallest: d.probe_smallest.load(Ordering::Relaxed),
                        fold_merge: d.fold_merge.load(Ordering::Relaxed),
                        single_iter: d.single_iter.load(Ordering::Relaxed),
                    },
                    selected_probes: d.selected_probes.load(Ordering::Relaxed),
                    exists_checks: d.exists_checks.load(Ordering::Relaxed),
                    candidates: d.candidates.load(Ordering::Relaxed),
                    intersect_ns: d.intersect_ns.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Collector for one plan execution attempt: joins register themselves
/// here in execution order, and one [`TaskObserver`] accumulates worker
/// busy time across every morsel batch of the attempt.
#[derive(Debug)]
pub(crate) struct ExecStats {
    joins: Mutex<Vec<Arc<JoinStats>>>,
    pub observer: Arc<TaskObserver>,
}

impl ExecStats {
    pub fn new(threads: usize) -> ExecStats {
        ExecStats { joins: Mutex::new(Vec::new()), observer: Arc::new(TaskObserver::new(threads)) }
    }

    /// Register a join collector; joins appear in the profile in
    /// registration (execution) order.
    pub fn register(&self, join: Arc<JoinStats>) {
        self.joins.lock().expect("profile lock poisoned").push(join);
    }

    pub fn snapshot(&self, threads: usize, total_ns: u64, epoch_retries: u64) -> QueryProfile {
        let joins = self
            .joins
            .lock()
            .expect("profile lock poisoned")
            .iter()
            .map(|j| j.snapshot())
            .collect();
        QueryProfile {
            total_ns,
            epoch_retries,
            threads,
            joins,
            workers: WorkerLoad { busy_ns: self.observer.busy_ns(), tasks: self.observer.tasks() },
        }
    }
}

/// The executor's per-join observation hook: the join's own collector
/// plus the run-wide worker observer. Carried by `JoinSpec` as an
/// `Option` — `None` (the unprofiled path) records nothing.
#[derive(Debug, Clone)]
pub(crate) struct JoinObs {
    pub stats: Arc<JoinStats>,
    pub tasks: Arc<TaskObserver>,
}

/// How many times each multiway kernel (plus the kernel-free
/// single-participant fast path) ran at a depth or across a whole query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTally {
    /// k-way bitset word-`AND` dispatches.
    pub word_and: u64,
    /// Leapfrog probe-smallest dispatches.
    pub probe_smallest: u64,
    /// Pairwise vectorized fold-merge dispatches.
    pub fold_merge: u64,
    /// Single-participant direct iterations (no kernel dispatched).
    pub single_iter: u64,
}

impl KernelTally {
    /// Total multiway-driver dispatches (excludes the kernel-free
    /// single-participant path) — the number comparable against
    /// `eh_setops::instrument::kernel_counts()`.
    pub fn dispatches(&self) -> u64 {
        self.word_and + self.probe_smallest + self.fold_merge
    }

    fn add(&mut self, other: &KernelTally) {
        self.word_and += other.word_and;
        self.probe_smallest += other.probe_smallest;
        self.fold_merge += other.fold_merge;
        self.single_iter += other.single_iter;
    }
}

impl std::fmt::Display for KernelTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if self.word_and > 0 {
            parts.push(format!("word_and: {}", self.word_and));
        }
        if self.probe_smallest > 0 {
            parts.push(format!("probe_smallest: {}", self.probe_smallest));
        }
        if self.fold_merge > 0 {
            parts.push(format!("fold_merge: {}", self.fold_merge));
        }
        if self.single_iter > 0 {
            parts.push(format!("single: {}", self.single_iter));
        }
        if parts.is_empty() {
            write!(f, "none")
        } else {
            write!(f, "{}", parts.join(", "))
        }
    }
}

/// Measured statistics for one attribute depth of a join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthProfile {
    /// Attribute name at this depth.
    pub var: String,
    /// Whether this depth is an equality selection (probe, not iterate).
    pub selected: bool,
    /// Kernel dispatch counts at this depth.
    pub kernels: KernelTally,
    /// Equality-selection probe attempts.
    pub selected_probes: u64,
    /// Non-materialising EXISTS checks (trailing non-output depths).
    pub exists_checks: u64,
    /// Candidate values produced by iteration at this depth (intersection
    /// output sizes summed over every visit).
    pub candidates: u64,
    /// Wall time spent inside this depth's intersections / iterations
    /// (volatile).
    pub intersect_ns: u64,
}

/// Measured statistics for one executed join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinProfile {
    /// Which join this is: `node N`, `root (pipelined)`, or `final join`.
    pub label: String,
    /// Depth at which the join emits (trailing depths are existence
    /// checks).
    pub emit_depth: usize,
    /// Relations served through an LSM novelty overlay (base trie plus
    /// staged delta) rather than a plain frozen arena. 0 on a fully
    /// compacted store; schedule-invariant.
    pub overlay_rels: u64,
    /// Rows this join emitted (pre-deduplication of the final buffer).
    pub rows: u64,
    /// Wall time of the join including sink merging (volatile).
    pub wall_ns: u64,
    /// Morsels scheduled (0 when the join ran inline; volatile).
    pub morsels: u64,
    /// Per-depth breakdown.
    pub depths: Vec<DepthProfile>,
}

/// Per-worker busy time and task counts for one profiled run (volatile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Busy nanoseconds per worker slot.
    pub busy_ns: Vec<u64>,
    /// Morsels completed per worker slot.
    pub tasks: Vec<u64>,
}

/// The measured execution profile of one query — what `EXPLAIN ANALYZE`
/// renders beneath the plan.
///
/// Kernel tallies, candidate counts, probe counts, and row counts are
/// schedule-invariant (identical across thread counts); wall times,
/// morsels, worker loads, and retry counts are volatile and render on
/// `~`-prefixed lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// Total wall time of the returned attempt (volatile).
    pub total_ns: u64,
    /// Times the executed plan was re-run because an update moved the
    /// engine's epoch mid-join (volatile).
    pub epoch_retries: u64,
    /// Worker threads configured for the run.
    pub threads: usize,
    /// Per-join breakdown, in execution order.
    pub joins: Vec<JoinProfile>,
    /// Per-worker load (volatile).
    pub workers: WorkerLoad,
}

impl QueryProfile {
    /// Kernel dispatches summed across every join and depth — the totals
    /// the truthfulness tests compare against the raw `eh-setops`
    /// instrument counters.
    pub fn kernel_totals(&self) -> KernelTally {
        let mut total = KernelTally::default();
        for j in &self.joins {
            for d in &j.depths {
                total.add(&d.kernels);
            }
        }
        total
    }

    /// Render the profile as indented text. Stable (schedule-invariant)
    /// lines carry counts; volatile lines (timings, morsels, workers,
    /// retries) are prefixed with `~` so consumers can strip them when
    /// comparing across runs or thread counts.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "profile:");
        for j in &self.joins {
            let _ = writeln!(out, "  {} (emit depth {}):", j.label, j.emit_depth);
            for (i, d) in j.depths.iter().enumerate() {
                let mode = if d.selected { "selected" } else { "iterate" };
                let mut line = format!("    depth {i} {} [{mode}]:", d.var);
                if d.selected_probes > 0 {
                    line.push_str(&format!(" probes {},", d.selected_probes));
                }
                if !d.selected {
                    line.push_str(&format!(" candidates {},", d.candidates));
                }
                if d.exists_checks > 0 {
                    line.push_str(&format!(" exists checks {},", d.exists_checks));
                }
                line.push_str(&format!(" kernels {{{}}}", d.kernels));
                let _ = writeln!(out, "{line}");
                if d.intersect_ns > 0 {
                    let _ = writeln!(
                        out,
                        "    ~ depth {i} {} intersect time: {} us",
                        d.var,
                        d.intersect_ns / 1_000
                    );
                }
            }
            if j.overlay_rels > 0 {
                let _ = writeln!(out, "    overlay rels: {}", j.overlay_rels);
            }
            let _ = writeln!(out, "    rows emitted: {}", j.rows);
            let _ = writeln!(
                out,
                "  ~ {} wall: {} us, morsels {}",
                j.label,
                j.wall_ns / 1_000,
                j.morsels
            );
        }
        let _ = writeln!(out, "~ threads: {}", self.threads);
        let busy: Vec<String> =
            self.workers.busy_ns.iter().map(|ns| format!("{} us", ns / 1_000)).collect();
        let tasks: Vec<String> = self.workers.tasks.iter().map(|t| t.to_string()).collect();
        let _ =
            writeln!(out, "~ worker busy: [{}], tasks: [{}]", busy.join(", "), tasks.join(", "));
        let _ = writeln!(out, "~ epoch retries: {}", self.epoch_retries);
        let _ = writeln!(out, "~ total wall: {} us", self.total_ns / 1_000);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_sum_across_joins_and_render_marks_volatile_lines() {
        let stats = ExecStats::new(2);
        let j = Arc::new(JoinStats::new(
            "node 0".into(),
            vec!["x".into(), "y".into()],
            vec![false, true],
            2,
            1,
        ));
        stats.register(Arc::clone(&j));
        j.note_multiway(0, Some(MultiwayKernel::WordAnd), 10, 1_000);
        j.note_multiway(0, Some(MultiwayKernel::ProbeSmallest), 3, 500);
        j.note_multiway(0, None, 0, 100); // short-circuit: no kernel counted
        j.note_single(0, 4, 0);
        j.note_selected(1);
        j.set_rows(13);
        j.add_wall_ns(2_000_000);
        let p = stats.snapshot(2, 5_000_000, 1);
        let totals = p.kernel_totals();
        assert_eq!(
            totals,
            KernelTally { word_and: 1, probe_smallest: 1, fold_merge: 0, single_iter: 1 }
        );
        assert_eq!(totals.dispatches(), 2);
        assert_eq!(p.joins[0].depths[0].candidates, 17);
        assert_eq!(p.joins[0].depths[1].selected_probes, 1);
        assert_eq!(p.joins[0].rows, 13);
        let text = p.render();
        assert!(text.contains("depth 0 x [iterate]"), "{text}");
        assert!(text.contains("depth 1 y [selected]"), "{text}");
        assert!(text.contains("rows emitted: 13"), "{text}");
        // Every timing-bearing line is ~-prefixed (stable lines never
        // carry wall-clock content), so stripping ~ lines leaves only
        // schedule-invariant output.
        for line in text.lines() {
            if line.contains(" us") || line.contains("morsels") || line.contains("retries") {
                assert!(line.trim_start().starts_with('~'), "volatile line not marked: {line:?}");
            }
        }
        let stable: Vec<&str> = text.lines().filter(|l| !l.trim_start().starts_with('~')).collect();
        assert!(stable.iter().any(|l| l.contains("kernels {word_and: 1, probe_smallest: 1")));
        // The overlay tally is fixed at registration, so it renders on a
        // stable (unprefixed) line — and only when non-zero.
        assert!(stable.iter().any(|l| l.contains("overlay rels: 1")), "{text}");
    }

    #[test]
    fn empty_tally_renders_none() {
        assert_eq!(KernelTally::default().to_string(), "none");
    }
}
