//! The two-pass GHD driver (paper §II-C): bottom-up Generic-Join per node
//! with children's intermediates joining as extra relations, then a final
//! materialisation pass — streamed from the root when the plan is
//! pipelined (§III-C), otherwise a join over the per-node results
//! (Yannakakis-style message passing).
//!
//! Every join in the driver runs through [`collect_rows`] — one row sink,
//! one merge, one canonicalising `sort_dedup`, one profile epilogue — and
//! under it [`run_join_parallel`]: with a parallel [`RuntimeConfig`] the
//! outermost iterated attribute is morsel-partitioned across worker
//! threads and per-morsel buffers are concatenated in morsel order, so
//! results are bit-identical to the sequential path.

use std::sync::Arc;
use std::time::Instant;

use eh_par::RuntimeConfig;
use eh_query::{ConjunctiveQuery, Var};
use eh_trie::{FrozenTrie, TupleBuffer};

use crate::exec::generic::{run_join_parallel, JoinSpec, PreparedRel};
use crate::exec::relation::{layout_policy, relation};
use crate::plan::Plan;
use crate::profile::{ExecStats, JoinObs, JoinStats};
use crate::result::QueryResult;
use crate::shared::SharedStore;

/// A materialised per-node result.
struct NodeResult {
    /// Output variables in processing order (columns of `tuples`).
    attrs: Vec<Var>,
    tuples: TupleBuffer,
    /// For zero-attribute nodes: whether the node join was non-empty.
    satisfiable: bool,
}

impl NodeResult {
    fn is_empty_relation(&self) -> bool {
        if self.attrs.is_empty() {
            !self.satisfiable
        } else {
            self.tuples.is_empty()
        }
    }
}

/// Attach a profiling collector to a join about to run: registers a
/// [`JoinStats`] under `label` with the run's [`ExecStats`] and hands the
/// executor its recording hook. `None` stats (the unprofiled path) cost
/// nothing.
fn observe_join(
    stats: Option<&ExecStats>,
    q: &ConjunctiveQuery,
    label: String,
    vars: &[Var],
    sel: &[Option<u32>],
    emit_depth: usize,
    overlay_rels: usize,
) -> Option<JoinObs> {
    let stats = stats?;
    let join = Arc::new(JoinStats::new(
        label,
        vars.iter().map(|&v| q.var_name(v).to_string()).collect(),
        sel.iter().map(|s| s.is_some()).collect(),
        emit_depth,
        overlay_rels,
    ));
    stats.register(Arc::clone(&join));
    Some(JoinObs { stats: join, tasks: Arc::clone(&stats.observer) })
}

/// Execute `plan` for `q`, materialising the projection. With `stats`
/// the run records a per-join, per-depth execution profile (kernel
/// dispatches, candidate counts, probes, wall times); without it the
/// executor performs no recording at all.
pub(crate) fn execute_plan(
    store: &SharedStore,
    q: &ConjunctiveQuery,
    plan: &Plan,
    auto_layout: bool,
    rt: RuntimeConfig,
    stats: Option<&ExecStats>,
) -> QueryResult {
    let columns: Vec<String> = q.projection().iter().map(|&v| q.var_name(v).to_string()).collect();
    if q.has_missing_constant() {
        return QueryResult::empty(columns);
    }

    // Single-node plans emit straight into the final buffer: there are no
    // intermediates to materialise.
    if plan.ghd.num_nodes() == 1 {
        let root = plan.ghd.root;
        let node = &plan.nodes[root];
        let proj_positions: Vec<usize> = q
            .projection()
            .iter()
            .map(|v| node.vars.iter().position(|w| w == v).expect("projection var in single node"))
            .collect();
        // Subject-rooted plans on a partitioned store run shard-local:
        // one join per shard, each over that shard's slice of every atom.
        // Specs are built serially: operand assembly and profile
        // registration order stay deterministic regardless of thread count.
        let spec_for = |shard: Option<usize>, label: String| {
            node_spec(store, q, plan, root, Vec::new(), auto_layout, stats, shard, label)
        };
        let specs: Vec<JoinSpec> = match shard_local_partitions(store, plan, root) {
            None => vec![spec_for(None, format!("node {root}"))],
            Some(partitions) => (0..partitions)
                .map(|s| spec_for(Some(s), format!("node {root} [shard {s}]")))
                .collect(),
        };
        return QueryResult::new(columns, project_rows(&specs, &proj_positions, rt).0);
    }

    // Bottom-up pass over non-root nodes (post-order ends at the root).
    let mut results: Vec<Option<NodeResult>> = (0..plan.ghd.num_nodes()).map(|_| None).collect();
    for t in plan.ghd.post_order() {
        if t == plan.ghd.root {
            break;
        }
        match run_node(store, q, plan, t, &results, auto_layout, rt, stats) {
            Some(r) => results[t] = Some(r),
            None => return QueryResult::empty(columns),
        }
    }

    if plan.pipelined {
        // §III-C: stream the root join directly into the final result.
        let out = run_pipelined(store, q, plan, &results, auto_layout, rt, stats);
        return QueryResult::new(columns, out);
    }

    // Materialise the root like any other node, then join all node
    // results (the top-down message-passing pass).
    match run_node(store, q, plan, plan.ghd.root, &results, auto_layout, rt, stats) {
        Some(r) => results[plan.ghd.root] = Some(r),
        None => return QueryResult::empty(columns),
    }
    QueryResult::new(columns, final_join(q, plan, &results, auto_layout, rt, stats))
}

/// Run one node's generic join, materialising its output columns.
/// Returns `None` when the node (or one of its children) is empty, which
/// empties the whole query.
#[allow(clippy::too_many_arguments)]
fn run_node(
    store: &SharedStore,
    q: &ConjunctiveQuery,
    plan: &Plan,
    t: usize,
    results: &[Option<NodeResult>],
    auto_layout: bool,
    rt: RuntimeConfig,
    stats: Option<&ExecStats>,
) -> Option<NodeResult> {
    let children = children_rels(plan, t, results, auto_layout)?;
    let spec =
        node_spec(store, q, plan, t, children, auto_layout, stats, None, format!("node {t}"));
    let node = &plan.nodes[t];
    let out_positions: Vec<usize> =
        node.output.iter().map(|v| node.vars.iter().position(|w| w == v).unwrap()).collect();
    // The rows come back canonical (sorted unique): every consumer of a
    // node result turns it into a trie, so they all take the arena-direct
    // `FrozenTrie::from_sorted` path, and duplicated intermediates shrink
    // before they are cloned around.
    let (tuples, satisfiable) = project_rows(&[spec], &out_positions, rt);
    let result = NodeResult { attrs: node.output.clone(), tuples, satisfiable };
    if result.is_empty_relation() {
        None
    } else {
        Some(result)
    }
}

/// Build the JoinSpec for a node: its λ atoms plus prepared child
/// intermediates (`extra`). `shard` restricts every atom to that shard's
/// slice of its predicate — the shard-local path, whose eligibility check
/// ([`shard_local_partitions`]) guarantees the restriction is lossless.
#[allow(clippy::too_many_arguments)]
fn node_spec(
    store: &SharedStore,
    q: &ConjunctiveQuery,
    plan: &Plan,
    t: usize,
    mut extra: Vec<PreparedRel>,
    auto_layout: bool,
    stats: Option<&ExecStats>,
    shard: Option<usize>,
    label: String,
) -> JoinSpec {
    let node = &plan.nodes[t];
    let depth_of = |v: Var| node.vars.iter().position(|&w| w == v).unwrap();
    let mut overlay_rels = 0;
    let mut rels: Vec<PreparedRel> = node
        .atoms
        .iter()
        .map(|ap| {
            let atom = &q.atoms()[ap.atom_index];
            let operand = relation(store, atom, ap.subject_first, auto_layout, shard);
            overlay_rels += usize::from(operand.has_overlay());
            PreparedRel::layered(operand, ap.attrs.iter().map(|&v| depth_of(v)).collect())
        })
        .collect();
    rels.append(&mut extra);
    let sel: Vec<Option<u32>> = node
        .vars
        .iter()
        .map(|&v| q.selection(v).map(|c| c.expect("missing constants short-circuit earlier")))
        .collect();
    let emit_depth = node.output.iter().map(|v| depth_of(*v) + 1).max().unwrap_or(0);
    let obs = observe_join(stats, q, label, &node.vars, &sel, emit_depth, overlay_rels);
    JoinSpec { num_vars: node.vars.len(), sel, emit_depth, obs, rels }
}

/// Prepared relations for a node's child intermediates: each child result
/// projected onto the variables shared with this node. Returns `None`
/// when a child result is empty (the whole query is then empty).
fn children_rels(
    plan: &Plan,
    t: usize,
    results: &[Option<NodeResult>],
    auto_layout: bool,
) -> Option<Vec<PreparedRel>> {
    let node = &plan.nodes[t];
    let depth_of = |v: Var| node.vars.iter().position(|&w| w == v).unwrap();
    let mut rels = Vec::new();
    for &c in &plan.ghd.children[t] {
        let child = results[c].as_ref().expect("post-order visits children first");
        if child.is_empty_relation() {
            return None;
        }
        let shared = &plan.nodes[c].shared_with_parent;
        if shared.is_empty() {
            continue; // cross product: no constraint to contribute
        }
        let depths: Vec<usize> = shared.iter().map(|&v| depth_of(v)).collect();
        // If the shared variables are a prefix of the child's output
        // order, the full child trie participates with truncated depths
        // (its suffix levels are simply never descended) and the
        // already-sorted tuples freeze without re-sorting; otherwise
        // materialise the projection (permuting breaks the sort order).
        let is_prefix = child.attrs.starts_with(shared);
        let trie = if is_prefix {
            Arc::new(FrozenTrie::from_sorted(child.tuples.clone(), layout_policy(auto_layout)))
        } else {
            let cols: Vec<usize> =
                shared.iter().map(|v| child.attrs.iter().position(|w| w == v).unwrap()).collect();
            Arc::new(FrozenTrie::build(child.tuples.permute(&cols), layout_policy(auto_layout)))
        };
        rels.push(PreparedRel::arena(trie, depths));
    }
    Some(rels)
}

/// The shard count when node `t` can run **shard-local**: when its
/// depth-0 variable is every atom's subject (the store's partitioning
/// key), any result row's root binding hashes to exactly one shard, and
/// each atom restricted to that shard contains precisely the pairs that
/// can participate. The join therefore runs independently per shard —
/// shards become the outer morsel dimension — and the concatenated
/// results, canonicalised by the same trailing `sort_dedup` as every
/// other path, are byte-identical to the unpartitioned engine's.
///
/// `None` when the store is unpartitioned or the plan is not
/// subject-rooted (some atom roots at a non-subject attribute); the join
/// then reads every shard as a layer of one cross-shard relation.
fn shard_local_partitions(store: &SharedStore, plan: &Plan, t: usize) -> Option<usize> {
    let partitions = store.read().partitions();
    let node = &plan.nodes[t];
    let root_var = *node.vars.first()?;
    let subject_rooted =
        node.atoms.iter().all(|ap| ap.subject_first && ap.attrs.first() == Some(&root_var));
    (partitions > 1 && subject_rooted).then_some(partitions)
}

/// The per-morsel sink of every join the driver runs: projected output
/// rows, the row staging slot, row-assembly scratch (the pipelined pass
/// only), and whether anything was emitted at all — zero-width rows
/// leave no trace in `out`, and a boolean node needs the witness.
struct RowSink {
    out: TupleBuffer,
    row: Vec<u32>,
    assembled: Vec<u32>,
    emitted: bool,
}

impl RowSink {
    /// Append `src[positions]` as one output row.
    fn push(&mut self, positions: &[usize], src: &[u32]) {
        for (j, &p) in positions.iter().enumerate() {
            self.row[j] = src[p];
        }
        self.out.push(&self.row);
        self.emitted = true;
    }
}

/// [`collect_rows`] with one output row per emission: `binding[positions]`.
fn project_rows(specs: &[JoinSpec], positions: &[usize], rt: RuntimeConfig) -> (TupleBuffer, bool) {
    collect_rows(specs, positions.len(), 0, rt, |sink, binding| sink.push(positions, binding))
}

/// Run `specs` and collect what `emit` pushes into the sinks: `arity`-wide
/// rows, sorted and deduplicated, plus whether any join emitted. Sinks
/// carry `width` words of row-assembly scratch. One spec — every case but
/// a shard-local plan — runs morsel-parallel under `rt`. Several are the
/// shards of a shard-local plan: they become the outer morsel dimension
/// and each join runs serially inside its shard task. Observed specs get
/// their row count and wall time recorded.
fn collect_rows<E>(
    specs: &[JoinSpec],
    arity: usize,
    width: usize,
    rt: RuntimeConfig,
    emit: E,
) -> (TupleBuffer, bool)
where
    E: Fn(&mut RowSink, &[u32]) + Sync,
{
    let lone = specs.len() == 1;
    let inner = if lone { rt } else { RuntimeConfig::serial() };
    let note = |spec: &JoinSpec, t0: Option<Instant>, rows: usize| {
        if let (Some(o), Some(t0)) = (&spec.obs, t0) {
            o.stats.set_rows(rows as u64);
            o.stats.add_wall_ns(t0.elapsed().as_nanos() as u64);
        }
    };
    let parts = eh_par::run_tasks(rt.num_threads, specs.len(), None, |s| {
        let spec = &specs[s];
        let t0 = spec.obs.as_ref().map(|_| Instant::now());
        let sinks = run_join_parallel(
            spec,
            inner,
            || RowSink {
                out: TupleBuffer::new(arity),
                row: vec![0u32; arity],
                assembled: vec![0u32; width],
                emitted: false,
            },
            &emit,
        );
        // A shard reports its raw contribution (deduplication happens
        // across shards, below); a lone join its canonical row count.
        if !lone {
            note(spec, t0, sinks.iter().map(|sink| sink.out.len()).sum());
        }
        (sinks, t0)
    });
    let mut out = TupleBuffer::new(arity);
    let mut emitted = false;
    for sink in parts.iter().flat_map(|(sinks, _)| sinks) {
        out.append(&sink.out);
        emitted |= sink.emitted;
    }
    out.sort_dedup();
    if lone {
        note(&specs[0], parts[0].1, out.len());
    }
    (out, emitted)
}

/// Final pass: generic join over all node-result tries, projecting to
/// SELECT order.
fn final_join(
    q: &ConjunctiveQuery,
    plan: &Plan,
    results: &[Option<NodeResult>],
    auto_layout: bool,
    rt: RuntimeConfig,
    stats: Option<&ExecStats>,
) -> TupleBuffer {
    let live: Vec<&NodeResult> = results.iter().flatten().filter(|r| !r.attrs.is_empty()).collect();
    // Join variables: union of live attrs in global order.
    let mut join_vars: Vec<Var> = live.iter().flat_map(|r| r.attrs.iter().copied()).collect();
    join_vars.sort_by_key(|&v| plan.position[v]);
    join_vars.dedup();
    let rels: Vec<PreparedRel> = live
        .iter()
        .map(|r| {
            // Node results are sorted unique at the source (run_node).
            let trie =
                Arc::new(FrozenTrie::from_sorted(r.tuples.clone(), layout_policy(auto_layout)));
            let depths =
                r.attrs.iter().map(|v| join_vars.iter().position(|w| w == v).unwrap()).collect();
            PreparedRel::arena(trie, depths)
        })
        .collect();
    let proj_positions: Vec<usize> = q
        .projection()
        .iter()
        .map(|v| {
            join_vars.iter().position(|w| w == v).expect("projection vars live in node outputs")
        })
        .collect();
    let emit_depth = proj_positions.iter().map(|&p| p + 1).max().unwrap_or(0);
    let sel: Vec<Option<u32>> = vec![None; join_vars.len()];
    let obs = observe_join(stats, q, "final join".to_string(), &join_vars, &sel, emit_depth, 0);
    let spec = JoinSpec { num_vars: join_vars.len(), sel, emit_depth, obs, rels };
    project_rows(&[spec], &proj_positions, rt).0
}

/// One node's contribution to the pipelined emission: its result trie,
/// where to read its shared-prefix values in the assembled row, and where
/// its private columns land.
struct NodeExt {
    trie: Arc<FrozenTrie>,
    /// Positions in the *assembled* output row supplying the shared
    /// prefix values (bound by the root or an earlier extension).
    shared_positions: Vec<usize>,
    /// Column offset in the assembled row where private values start.
    base: usize,
}

/// Pipelined path (§III-C, applied transitively down the tree): run the
/// root join and, per root binding, extend with every descendant node's
/// private columns by direct trie lookup. The planner guaranteed each
/// node's shared-with-parent variables are a prefix of its output order,
/// and BFS order guarantees shared values are assembled before use.
#[allow(clippy::too_many_arguments)]
fn run_pipelined(
    store: &SharedStore,
    q: &ConjunctiveQuery,
    plan: &Plan,
    results: &[Option<NodeResult>],
    auto_layout: bool,
    rt: RuntimeConfig,
    stats: Option<&ExecStats>,
) -> TupleBuffer {
    let root = plan.ghd.root;
    let node = &plan.nodes[root];
    let depth_of = |v: Var| node.vars.iter().position(|&w| w == v).unwrap();

    // Root-join intermediates: the root's children participate on their
    // shared prefix (full child trie, truncated depths).
    let mut child_tries: Vec<Option<Arc<FrozenTrie>>> =
        (0..plan.ghd.num_nodes()).map(|_| None).collect();
    let mut intermediates: Vec<PreparedRel> = Vec::new();
    for &c in &plan.ghd.children[root] {
        let child = results[c].as_ref().expect("children ran before the root");
        if child.attrs.is_empty() {
            continue; // satisfied boolean node: no constraint, no columns
        }
        let shared = &plan.nodes[c].shared_with_parent;
        debug_assert!(child.attrs.starts_with(shared), "planner checked the prefix");
        let trie =
            Arc::new(FrozenTrie::from_sorted(child.tuples.clone(), layout_policy(auto_layout)));
        child_tries[c] = Some(Arc::clone(&trie));
        if !shared.is_empty() {
            intermediates
                .push(PreparedRel::arena(trie, shared.iter().map(|&v| depth_of(v)).collect()));
        }
    }

    // Extension schedule: BFS over non-root nodes with private columns.
    let mut emit_attrs: Vec<Var> = node.output.clone();
    let mut exts: Vec<NodeExt> = Vec::new();
    for t in plan.ghd.bfs_order() {
        if t == root {
            continue;
        }
        let child = results[t].as_ref().expect("bottom-up pass ran every node");
        let shared = &plan.nodes[t].shared_with_parent;
        if child.attrs.len() == shared.len() {
            continue; // pure semijoin, already applied bottom-up
        }
        // Shared values come from columns already in emit_attrs (the
        // parent's output was appended before BFS reaches this node).
        let shared_positions: Vec<usize> = shared
            .iter()
            .map(|v| emit_attrs.iter().position(|w| w == v).expect("BFS binds parents first"))
            .collect();
        let base = emit_attrs.len();
        emit_attrs.extend_from_slice(&child.attrs[shared.len()..]);
        let trie = match child_tries[t].take() {
            Some(t) => t,
            None => {
                Arc::new(FrozenTrie::from_sorted(child.tuples.clone(), layout_policy(auto_layout)))
            }
        };
        exts.push(NodeExt { trie, shared_positions, base });
    }

    let spec = node_spec(
        store,
        q,
        plan,
        root,
        intermediates,
        auto_layout,
        stats,
        None,
        format!("node {root} (pipelined)"),
    );
    let root_out_positions: Vec<usize> = node.output.iter().map(|&v| depth_of(v)).collect();
    let proj_positions: Vec<usize> = q
        .projection()
        .iter()
        .map(|v| {
            emit_attrs.iter().position(|w| w == v).expect("projection covered by node outputs")
        })
        .collect();

    // Each morsel assembles into its own sink's scratch row, taken out
    // for the walk so the walk's leaf callback can push into the sink.
    collect_rows(&[spec], proj_positions.len(), emit_attrs.len(), rt, |sink, binding| {
        let mut assembled = std::mem::take(&mut sink.assembled);
        for (j, &p) in root_out_positions.iter().enumerate() {
            assembled[j] = binding[p];
        }
        extend_nodes(&exts, 0, &mut assembled, &mut |assembled| {
            sink.push(&proj_positions, assembled)
        });
        sink.assembled = assembled;
    })
    .0
}

/// Depth-first cross product over the extensions' private columns:
/// extension `i` looks up its shared prefix from the assembled row, then
/// enumerates its remaining trie levels into `assembled[base..]`.
fn extend_nodes(
    exts: &[NodeExt],
    i: usize,
    assembled: &mut Vec<u32>,
    emit: &mut dyn FnMut(&mut Vec<u32>),
) {
    if i == exts.len() {
        emit(assembled);
        return;
    }
    let ext = &exts[i];
    let trie = &ext.trie;
    let mut block = 0usize;
    for (lvl, &pos) in ext.shared_positions.iter().enumerate() {
        match trie.child(lvl, block, assembled[pos]) {
            Some(b) => block = b,
            // Bottom-up semijoins guarantee the prefix exists for bindings
            // that reach here; stay defensive anyway.
            None => return,
        }
    }
    walk_private(exts, i, trie, ext.shared_positions.len(), block, 0, assembled, emit);
}

#[allow(clippy::too_many_arguments)]
fn walk_private(
    exts: &[NodeExt],
    i: usize,
    trie: &FrozenTrie,
    level: usize,
    block: usize,
    offset: usize,
    assembled: &mut Vec<u32>,
    emit: &mut dyn FnMut(&mut Vec<u32>),
) {
    let leaf = level + 1 == trie.arity();
    let set = trie.set(level, block);
    let base = exts[i].base;
    for v in set.iter() {
        assembled[base + offset] = v;
        if leaf {
            extend_nodes(exts, i + 1, assembled, emit);
        } else {
            let child = trie.child(level, block, v).expect("iterated value present");
            walk_private(exts, i, trie, level + 1, child, offset + 1, assembled, emit);
        }
    }
}
