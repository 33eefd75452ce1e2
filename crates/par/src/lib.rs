//! # eh-par
//!
//! A small deterministic parallel runtime for the worst-case optimal join
//! engine — the multicore counterpart of EmptyHeaded's parallel outer
//! attribute loop (the paper's numbers come from a multicore engine;
//! Aberger et al. parallelize the outermost trie level across cores).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism**: parallel execution must be *bit-identical* to
//!    sequential execution. Work is split into fixed, index-addressed
//!    tasks ("morsels"); every task produces its own output buffer, and
//!    buffers are merged in task order regardless of which worker ran
//!    which task or in what order tasks finished.
//! 2. **No new dependencies**: scoped `std::thread` workers pulling task
//!    indices off one atomic counter — no rayon, no channels.
//! 3. **Zero cost when off**: `num_threads <= 1` (the default) never
//!    spawns a thread and runs tasks inline, so single-threaded engines
//!    behave exactly as before this runtime existed.
//!
//! The scheduler is deliberately work-queue- rather than range-split-
//! based: morsels are small (hundreds of outer-attribute values), so
//! skewed queries — one hub vertex with most of the graph behind it —
//! still balance across workers, which static range splitting would not.
//!
//! ```
//! use eh_par::{run_tasks, RuntimeConfig};
//!
//! let squares = run_tasks(4, 10, None, |i| i * i);
//! assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
//!
//! let cfg = RuntimeConfig::with_threads(4);
//! let sums = eh_par::run_morsels(&cfg, 1000, None, |_, range| range.sum::<usize>());
//! assert_eq!(sums.iter().sum::<usize>(), (0..1000).sum::<usize>());
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Execution-runtime knobs, carried by the engine's planner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuntimeConfig {
    /// Worker threads for join execution and index building. `1` (the
    /// default) means fully sequential — no threads are ever spawned.
    pub num_threads: usize,
    /// Outer-attribute values per scheduled task. Smaller morsels balance
    /// skew better; larger morsels amortise scheduling. The default (256)
    /// keeps per-task buffer overhead negligible on LUBM-scale sets.
    pub morsel_size: usize,
}

impl RuntimeConfig {
    /// Default morsel granularity.
    pub const DEFAULT_MORSEL_SIZE: usize = 256;

    /// Fully sequential execution (the default).
    pub fn serial() -> RuntimeConfig {
        RuntimeConfig { num_threads: 1, morsel_size: Self::DEFAULT_MORSEL_SIZE }
    }

    /// Parallel execution on `num_threads` workers (clamped to >= 1).
    pub fn with_threads(num_threads: usize) -> RuntimeConfig {
        RuntimeConfig { num_threads: num_threads.max(1), morsel_size: Self::DEFAULT_MORSEL_SIZE }
    }

    /// Parallel execution on every available core.
    pub fn parallel() -> RuntimeConfig {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        RuntimeConfig::with_threads(n)
    }

    /// The runtime the `EH_THREADS` environment variable asks for:
    /// `EH_THREADS=N` means N workers, unset (or unparsable) means
    /// sequential. CI runs the test suite under `EH_THREADS=4` so tests
    /// that build their runtime here exercise the parallel paths.
    pub fn from_env() -> RuntimeConfig {
        match std::env::var("EH_THREADS").ok().and_then(|s| s.trim().parse::<usize>().ok()) {
            Some(n) => RuntimeConfig::with_threads(n),
            None => RuntimeConfig::serial(),
        }
    }

    /// Override the morsel granularity (clamped to >= 1).
    pub fn with_morsel_size(mut self, morsel_size: usize) -> RuntimeConfig {
        self.morsel_size = morsel_size.max(1);
        self
    }

    /// True when this configuration runs on worker threads.
    pub fn is_parallel(&self) -> bool {
        self.num_threads > 1
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::serial()
    }
}

/// Per-worker busy-time and task-count accounting for [`run_tasks`] /
/// [`run_morsels`]. Recording is two relaxed atomic adds per task, and
/// happens **only when an observer is passed** — without one the
/// scheduler never reads the clock.
///
/// One observer can accumulate across several scheduler invocations
/// (e.g. every morsel batch of a query); slot `w` aggregates whatever
/// ran on worker `w` of each invocation (the caller's thread counts as
/// worker 0 on inline runs).
#[derive(Debug)]
pub struct TaskObserver {
    busy_ns: Vec<AtomicU64>,
    tasks: Vec<AtomicU64>,
}

impl TaskObserver {
    /// An observer with `workers` slots (clamped to >= 1). Size it with
    /// the runtime's `num_threads`; workers beyond the slot count fold
    /// into the last slot rather than being dropped.
    pub fn new(workers: usize) -> TaskObserver {
        let n = workers.max(1);
        TaskObserver {
            busy_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            tasks: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn note(&self, worker: usize, elapsed_ns: u64) {
        let w = worker.min(self.busy_ns.len() - 1);
        self.busy_ns[w].fetch_add(elapsed_ns, Ordering::Relaxed);
        self.tasks[w].fetch_add(1, Ordering::Relaxed);
    }

    /// Busy nanoseconds per worker slot.
    pub fn busy_ns(&self) -> Vec<u64> {
        self.busy_ns.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    /// Tasks completed per worker slot.
    pub fn tasks(&self) -> Vec<u64> {
        self.tasks.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }
}

#[inline]
fn run_one<T>(
    observer: Option<&TaskObserver>,
    worker: usize,
    task: &(impl Fn(usize) -> T + ?Sized),
    i: usize,
) -> T {
    match observer {
        None => task(i),
        Some(obs) => {
            let start = std::time::Instant::now();
            let out = task(i);
            obs.note(worker, start.elapsed().as_nanos() as u64);
            out
        }
    }
}

/// Run `num_tasks` independent tasks on up to `threads` workers and
/// return their results **in task order** — the merge order is a function
/// of task indices only, never of scheduling, which is what makes
/// parallel query execution reproducible.
///
/// Tasks are claimed dynamically from a shared atomic counter, so
/// uneven task costs still balance. With `threads <= 1` or fewer than two
/// tasks everything runs inline on the caller's thread.
///
/// With an `observer`, each task's wall time and completion is credited
/// to the worker that ran it (the caller's thread is worker 0 on the
/// inline path); without one no clock is read.
///
/// Panics in a task propagate to the caller after all workers stop
/// claiming new tasks.
pub fn run_tasks<T, F>(
    threads: usize,
    num_tasks: usize,
    observer: Option<&TaskObserver>,
    task: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || num_tasks <= 1 {
        return (0..num_tasks).map(|i| run_one(observer, 0, &task, i)).collect();
    }
    let workers = threads.min(num_tasks);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..num_tasks).map(|_| None).collect();
    let task = &task;
    let next = &next;
    let finished = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= num_tasks {
                            return local;
                        }
                        local.push((i, run_one(observer, w, task, i)));
                    }
                })
            })
            .collect();
        // Join every worker before re-raising a panic: resuming early
        // would let the scope's implicit join see an unjoined panicked
        // thread and panic *during* unwinding, aborting the process.
        let mut all = Vec::with_capacity(num_tasks);
        let mut first_panic = None;
        for h in handles {
            match h.join() {
                Ok(local) => all.extend(local),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        all
    });
    for (i, value) in finished {
        slots[i] = Some(value);
    }
    slots.into_iter().map(|s| s.expect("every task index produced a result")).collect()
}

/// Number of morsels covering `total` items at `morsel_size` granularity.
pub fn num_morsels(total: usize, morsel_size: usize) -> usize {
    total.div_ceil(morsel_size.max(1))
}

/// The item range of morsel `m`.
fn morsel_range(m: usize, morsel_size: usize, total: usize) -> Range<usize> {
    let morsel_size = morsel_size.max(1);
    let start = m * morsel_size;
    start..((start + morsel_size).min(total))
}

/// Partition `0..total` into morsels of `cfg.morsel_size` and run
/// `f(morsel_index, item_range)` per morsel on `cfg.num_threads` workers;
/// results come back in morsel order (see [`run_tasks`] for the
/// determinism contract and the `observer`).
pub fn run_morsels<T, F>(
    cfg: &RuntimeConfig,
    total: usize,
    observer: Option<&TaskObserver>,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let n = num_morsels(total, cfg.morsel_size);
    run_tasks(cfg.num_threads, n, observer, |m| f(m, morsel_range(m, cfg.morsel_size, total)))
}

/// A blocking multi-producer/multi-consumer work queue for long-lived
/// worker pools — the piece [`run_tasks`] cannot cover: tasks that *arrive
/// over time* (e.g. client connections accepted by a server) rather than
/// being counted up front.
///
/// Workers loop on [`WorkQueue::pop`], which blocks until an item arrives
/// and returns `None` once the queue is [closed](WorkQueue::close) and
/// drained — the shutdown signal.
///
/// ```
/// use eh_par::WorkQueue;
///
/// let q = WorkQueue::new();
/// std::thread::scope(|s| {
///     let workers: Vec<_> = (0..2)
///         .map(|_| s.spawn(|| std::iter::from_fn(|| q.pop()).sum::<u64>()))
///         .collect();
///     for i in 0..10u64 {
///         q.push(i);
///     }
///     q.close();
///     let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
///     assert_eq!(total, 45);
/// });
/// ```
pub struct WorkQueue<T> {
    state: std::sync::Mutex<QueueState<T>>,
    ready: std::sync::Condvar,
}

struct QueueState<T> {
    items: std::collections::VecDeque<T>,
    closed: bool,
}

impl<T> WorkQueue<T> {
    /// An empty, open queue.
    pub fn new() -> WorkQueue<T> {
        WorkQueue {
            state: std::sync::Mutex::new(QueueState {
                items: std::collections::VecDeque::new(),
                closed: false,
            }),
            ready: std::sync::Condvar::new(),
        }
    }

    /// Enqueue an item, waking one waiting worker. Returns `false` (and
    /// drops the item) when the queue is already closed.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().expect("work queue lock poisoned");
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        self.ready.notify_one();
        true
    }

    /// Dequeue the oldest item, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("work queue lock poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("work queue lock poisoned");
        }
    }

    /// Close the queue: pending items still drain, further pushes are
    /// rejected, and blocked workers wake to observe shutdown.
    pub fn close(&self) {
        self.state.lock().expect("work queue lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued (diagnostics).
    pub fn len(&self) -> usize {
        self.state.lock().expect("work queue lock poisoned").items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for WorkQueue<T> {
    fn default() -> Self {
        WorkQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_is_default_and_never_parallel() {
        assert_eq!(RuntimeConfig::default(), RuntimeConfig::serial());
        assert!(!RuntimeConfig::serial().is_parallel());
        assert!(RuntimeConfig::with_threads(2).is_parallel());
        assert_eq!(RuntimeConfig::with_threads(0).num_threads, 1);
        assert_eq!(RuntimeConfig::serial().with_morsel_size(0).morsel_size, 1);
        assert!(RuntimeConfig::parallel().num_threads >= 1);
    }

    #[test]
    fn results_arrive_in_task_order() {
        for threads in [1, 2, 3, 8] {
            let out = run_tasks(threads, 100, None, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "threads {threads}");
        }
    }

    #[test]
    fn uneven_task_costs_still_merge_in_order() {
        // Early tasks are slow, late tasks fast: completion order inverts
        // submission order, the merged result must not.
        let out = run_tasks(4, 16, None, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_single_task_run_inline() {
        assert_eq!(run_tasks(8, 0, None, |i| i), Vec::<usize>::new());
        assert_eq!(run_tasks(8, 1, None, |i| i + 7), vec![7]);
    }

    #[test]
    fn morsel_partition_covers_everything_exactly_once() {
        for (total, morsel) in [(0, 4), (1, 4), (7, 3), (12, 3), (5, 100)] {
            let n = num_morsels(total, morsel);
            let mut seen = Vec::new();
            for m in 0..n {
                seen.extend(morsel_range(m, morsel, total));
            }
            assert_eq!(seen, (0..total).collect::<Vec<_>>(), "total {total} morsel {morsel}");
        }
    }

    #[test]
    fn run_morsels_matches_sequential_fold() {
        let cfg = RuntimeConfig::with_threads(4).with_morsel_size(3);
        let per_morsel = run_morsels(&cfg, 100, None, |_, r| r.map(|i| i as u64).sum::<u64>());
        assert_eq!(per_morsel.len(), num_morsels(100, 3));
        assert_eq!(per_morsel.iter().sum::<u64>(), (0..100u64).sum::<u64>());
    }

    /// Sum of an observer's per-worker task counts.
    fn total_tasks(obs: &TaskObserver) -> u64 {
        obs.tasks().iter().sum()
    }

    #[test]
    fn observer_accounts_for_every_task() {
        for threads in [1usize, 2, 4] {
            let obs = TaskObserver::new(threads);
            let out = run_tasks(threads, 40, Some(&obs), |i| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                i
            });
            assert_eq!(out, (0..40).collect::<Vec<_>>(), "threads {threads}");
            assert_eq!(total_tasks(&obs), 40, "threads {threads}");
            assert_eq!(obs.tasks().len(), threads);
            // Every task slept, so total busy time is strictly positive
            // and at least the sum of the sleeps.
            let busy: u64 = obs.busy_ns().iter().sum();
            assert!(busy >= 40 * 50_000, "busy {busy} (threads {threads})");
            if threads == 1 {
                assert_eq!(obs.tasks(), vec![40], "inline path credits worker 0");
            }
        }
    }

    #[test]
    fn observer_accumulates_across_invocations() {
        let cfg = RuntimeConfig::with_threads(2).with_morsel_size(5);
        let obs = TaskObserver::new(cfg.num_threads);
        run_morsels(&cfg, 20, Some(&obs), |_, r| r.count());
        run_morsels(&cfg, 30, Some(&obs), |_, r| r.count());
        assert_eq!(total_tasks(&obs), (num_morsels(20, 5) + num_morsels(30, 5)) as u64);
    }

    #[test]
    fn observer_clamps_degenerate_sizes() {
        let obs = TaskObserver::new(0);
        assert_eq!(obs.tasks().len(), 1);
        // Workers past the slot count fold into the last slot.
        run_tasks(4, 8, Some(&obs), |i| i);
        assert_eq!(total_tasks(&obs), 8);
    }

    #[test]
    fn work_queue_delivers_everything_exactly_once() {
        let q = WorkQueue::new();
        let collected = std::thread::scope(|s| {
            let workers: Vec<_> = (0..3)
                .map(|_| s.spawn(|| std::iter::from_fn(|| q.pop()).collect::<Vec<u32>>()))
                .collect();
            for i in 0..100u32 {
                assert!(q.push(i));
            }
            q.close();
            assert!(!q.push(999), "closed queue must reject pushes");
            let mut all: Vec<u32> = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
            all.sort_unstable();
            all
        });
        assert_eq!(collected, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn work_queue_drains_after_close() {
        let q = WorkQueue::new();
        q.push(1u8);
        q.push(2);
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn env_runtime_defaults_to_serial() {
        // EH_THREADS is not set in the unit-test environment unless CI
        // exports it; accept either but require a sane configuration.
        let cfg = RuntimeConfig::from_env();
        assert!(cfg.num_threads >= 1);
        assert_eq!(cfg.morsel_size, RuntimeConfig::DEFAULT_MORSEL_SIZE);
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            run_tasks(2, 8, None, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn panics_on_multiple_workers_stay_catchable() {
        // Every task panics, so every worker panics: the runtime must
        // still surface one catchable panic, not abort via a
        // panic-while-panicking during the scope's implicit joins.
        let caught =
            std::panic::catch_unwind(|| run_tasks(4, 8, None, |i| -> usize { panic!("boom {i}") }));
        assert!(caught.is_err());
    }

    mod proptests {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn merge_is_deterministic_across_schedules(
                total in 0usize..200,
                morsel in 1usize..9,
                threads in 1usize..5,
            ) {
                let cfg = RuntimeConfig::with_threads(threads).with_morsel_size(morsel);
                let par = run_morsels(&cfg, total, None, |m, r| (m, r.collect::<Vec<_>>()));
                let seq = run_morsels(&RuntimeConfig::serial().with_morsel_size(morsel), total, None, |m, r| {
                    (m, r.collect::<Vec<_>>())
                });
                prop_assert_eq!(par, seq);
            }

            #[test]
            fn task_order_is_schedule_independent(n in 0usize..300, threads in 1usize..6) {
                let out = run_tasks(threads, n, None, |i| i as u64 * 7);
                prop_assert_eq!(out, (0..n as u64).map(|i| i * 7).collect::<Vec<_>>());
            }
        }
    }
}
