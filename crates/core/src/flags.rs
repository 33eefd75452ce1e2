//! Optimization toggles (the knobs behind the paper's Table I ablation)
//! and the execution-runtime configuration.

use eh_par::RuntimeConfig;

/// Independent switches for the three classic optimizations of §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptFlags {
    /// §III-A: mixed set layouts (bitset + uint array). Off = uint arrays
    /// everywhere (the "+Layout" ablation baseline).
    pub layouts: bool,
    /// §III-B1: reorder attributes *within* GHD nodes so selections come
    /// first ("+Attribute").
    pub attr_reorder: bool,
    /// §III-B2: selection-aware GHD choice pushing selections down
    /// *across* nodes ("+GHD").
    pub ghd_pushdown: bool,
    /// §III-C: pipeline the root node into the final result
    /// ("+Pipelining").
    pub pipelining: bool,
}

impl OptFlags {
    /// Every optimization on (the configuration the paper's Table II
    /// EmptyHeaded column uses).
    pub fn all() -> OptFlags {
        OptFlags { layouts: true, attr_reorder: true, ghd_pushdown: true, pipelining: true }
    }

    /// Every optimization off (the unoptimized worst-case optimal
    /// baseline).
    pub fn none() -> OptFlags {
        OptFlags { layouts: false, attr_reorder: false, ghd_pushdown: false, pipelining: false }
    }

    /// The paper's Table I accumulates optimizations left to right:
    /// `+Layout`, `+Attribute`, `+GHD`, `+Pipelining`. `cumulative(k)`
    /// returns the configuration with the first `k` optimizations enabled
    /// (`k = 0` is [`OptFlags::none`], `k = 4` is [`OptFlags::all`]).
    pub fn cumulative(k: usize) -> OptFlags {
        OptFlags { layouts: k >= 1, attr_reorder: k >= 2, ghd_pushdown: k >= 3, pipelining: k >= 4 }
    }
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags::all()
    }
}

/// Full planner configuration: optimization flags plus the plan-shape
/// overrides used by the LogicBlox-style baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PlannerConfig {
    /// The optimization toggles.
    pub flags: OptFlags,
    /// Skip GHD decomposition and run the generic worst-case optimal join
    /// over the whole query in one node — how an engine without GHD plans
    /// (LogicBlox's original design, per the paper's characterisation)
    /// executes.
    pub force_single_node: bool,
    /// Selection-blind join ordering: order join variables by distinct
    /// counts (a competent join optimizer) but leave equality selections
    /// to be *checked last* rather than probed first. This models why
    /// LogicBlox matches EmptyHeaded on cyclic joins yet loses two orders
    /// of magnitude on selective patterns (paper §I, §IV-B).
    pub selection_blind_order: bool,
    /// Execution-runtime knobs: worker threads and morsel granularity.
    /// The default is fully sequential; parallel execution produces
    /// bit-identical results (the runtime merges morsel outputs in
    /// deterministic order).
    pub runtime: RuntimeConfig,
    /// Compaction trigger, absolute arm: a predicate's staged delta is
    /// folded into a fresh base table once it holds at least this many
    /// pairs. `0` means the built-in default (see
    /// [`PlannerConfig::compaction_min_staged`]).
    pub compact_min_staged: u32,
    /// Compaction trigger, relative arm: compact once the staged delta
    /// reaches this percentage of the base table (whichever arm yields
    /// the *larger* threshold wins, so big predicates aren't re-frozen
    /// over trivial deltas). `0` means the built-in default (see
    /// [`PlannerConfig::compaction_frac_pct`]).
    pub compact_frac_pct: u32,
    /// When appended WAL records reach stable storage (used only once a
    /// log is attached via [`Engine::open_wal`](crate::Engine::open_wal)).
    /// Defaults to [`FsyncPolicy::Always`](eh_wal::FsyncPolicy::Always) —
    /// durability first; opt into `interval:<ms>`/`never` to trade the
    /// loss window for latency.
    pub wal_fsync: eh_wal::FsyncPolicy,
}

impl PlannerConfig {
    /// Standard EmptyHeaded configuration with the given flags.
    pub fn with_flags(flags: OptFlags) -> PlannerConfig {
        PlannerConfig {
            flags,
            force_single_node: false,
            selection_blind_order: false,
            runtime: RuntimeConfig::serial(),
            compact_min_staged: 0,
            compact_frac_pct: 0,
            wal_fsync: eh_wal::FsyncPolicy::Always,
        }
    }

    /// The LogicBlox-style configuration: single-node plan, uint-only
    /// layouts, selection-blind (but join-aware) attribute order.
    pub fn logicblox_style() -> PlannerConfig {
        PlannerConfig {
            flags: OptFlags::none(),
            force_single_node: true,
            selection_blind_order: true,
            runtime: RuntimeConfig::serial(),
            compact_min_staged: 0,
            compact_frac_pct: 0,
            wal_fsync: eh_wal::FsyncPolicy::Always,
        }
    }

    /// Replace the execution-runtime configuration.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> PlannerConfig {
        self.runtime = runtime;
        self
    }

    /// Run joins and index construction on `num_threads` workers.
    pub fn with_threads(mut self, num_threads: usize) -> PlannerConfig {
        self.runtime =
            RuntimeConfig::with_threads(num_threads).with_morsel_size(self.runtime.morsel_size);
        self
    }

    /// Override the compaction trigger: absolute staged-pair floor and
    /// percentage of the base table (either `0` keeps its default).
    pub fn with_compaction(mut self, min_staged: u32, frac_pct: u32) -> PlannerConfig {
        self.compact_min_staged = min_staged;
        self.compact_frac_pct = frac_pct;
        self
    }

    /// Choose when WAL appends reach stable storage (effective once
    /// [`Engine::open_wal`](crate::Engine::open_wal) attaches a log).
    pub fn with_wal_fsync(mut self, policy: eh_wal::FsyncPolicy) -> PlannerConfig {
        self.wal_fsync = policy;
        self
    }

    /// Effective absolute compaction floor (field `compact_min_staged`,
    /// defaulting to 4096 staged pairs when unset).
    pub fn compaction_min_staged(&self) -> usize {
        if self.compact_min_staged == 0 {
            4096
        } else {
            self.compact_min_staged as usize
        }
    }

    /// Effective relative compaction trigger in percent of the base table
    /// (field `compact_frac_pct`, defaulting to 20 when unset).
    pub fn compaction_frac_pct(&self) -> usize {
        if self.compact_frac_pct == 0 {
            20
        } else {
            self.compact_frac_pct as usize
        }
    }

    /// The staged-pair count at which a predicate with `base_len` resident
    /// pairs gets compacted: `max(absolute floor, frac% of base)`. The
    /// `max` keeps update cost O(delta) on large predicates — a LUBM-scale
    /// table is never re-frozen over a 100-triple batch.
    pub fn compaction_threshold(&self, base_len: usize) -> usize {
        self.compaction_min_staged().max(base_len * self.compaction_frac_pct() / 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_matches_table_one_order() {
        assert_eq!(OptFlags::cumulative(0), OptFlags::none());
        assert_eq!(OptFlags::cumulative(4), OptFlags::all());
        let one = OptFlags::cumulative(1);
        assert!(one.layouts && !one.attr_reorder);
        let three = OptFlags::cumulative(3);
        assert!(three.ghd_pushdown && !three.pipelining);
    }

    #[test]
    fn logicblox_profile() {
        let c = PlannerConfig::logicblox_style();
        assert!(c.force_single_node);
        assert_eq!(c.flags, OptFlags::none());
        assert!(!c.runtime.is_parallel());
    }

    #[test]
    fn runtime_builders() {
        let c = PlannerConfig::with_flags(OptFlags::all()).with_threads(4);
        assert_eq!(c.runtime.num_threads, 4);
        assert_eq!(c.runtime.morsel_size, RuntimeConfig::DEFAULT_MORSEL_SIZE);
        let c = c.with_runtime(RuntimeConfig::with_threads(2).with_morsel_size(8));
        assert_eq!((c.runtime.num_threads, c.runtime.morsel_size), (2, 8));
        // The default configuration stays sequential: no behaviour change
        // for engines that never opt in.
        assert_eq!(PlannerConfig::default().runtime, RuntimeConfig::serial());
    }

    #[test]
    fn compaction_knobs_default_and_override() {
        let c = PlannerConfig::default();
        assert_eq!(c.compaction_min_staged(), 4096);
        assert_eq!(c.compaction_frac_pct(), 20);
        // max(floor, frac%): small bases use the floor, huge bases scale.
        assert_eq!(c.compaction_threshold(100), 4096);
        assert_eq!(c.compaction_threshold(1_000_000), 200_000);
        let c = c.with_compaction(8, 50);
        assert_eq!(c.compaction_threshold(0), 8);
        assert_eq!(c.compaction_threshold(100), 50);
    }
}
