//! The two-pass GHD driver (paper §II-C). The bottom-up pass runs each
//! non-root node's generic join, its children's result tries joining as
//! extra relations. The top-down pass then answers the projection in one
//! of two ways:
//!
//! * a pipelined (§III-C) or single-node plan runs one generic join over
//!   the root's atoms and its descendants' result tries
//!   ([`top_down_join`]), so the root is never materialised;
//! * any other plan materialises the root like every other node, then
//!   joins all node results ([`final_join`], Yannakakis-style message
//!   passing).
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
use eh_rdf::TripleStore;
use eh_trie::{FrozenTrie, TupleBuffer};

use crate::exec::generic::{run_join_parallel, JoinSpec, PreparedRel};
use crate::exec::relation::{layout_policy, relation};
use crate::plan::Plan;
use crate::profile::{ExecStats, JoinObs, JoinStats};
use crate::result::QueryResult;

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

    /// The result as a trie over `attrs`. Node results are sorted unique
    /// at the source ([`run_node`]), so they freeze without re-sorting.
    fn trie(&self, auto_layout: bool) -> Arc<FrozenTrie> {
        Arc::new(FrozenTrie::from_sorted(self.tuples.clone(), layout_policy(auto_layout)))
    }
}

/// Where each of `attrs` sits in the attribute sequence `vars`.
fn positions(vars: &[Var], attrs: &[Var]) -> Vec<usize> {
    attrs
        .iter()
        .map(|v| vars.iter().position(|w| w == v).expect("attribute in the join order"))
        .collect()
}

/// Execute `plan` for `q`, materialising the projection. With `stats`
/// the run records a per-join, per-depth execution profile (kernel
/// dispatches, candidate counts, probes, wall times); without it the
/// executor performs no recording at all.
pub(crate) fn execute_plan(
    store: &TripleStore,
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

    if plan.pipelined || plan.ghd.num_nodes() == 1 {
        let out = top_down_join(store, q, plan, &results, auto_layout, rt, stats);
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
    store: &TripleStore,
    q: &ConjunctiveQuery,
    plan: &Plan,
    t: usize,
    results: &[Option<NodeResult>],
    auto_layout: bool,
    rt: RuntimeConfig,
    stats: Option<&ExecStats>,
) -> Option<NodeResult> {
    let children = children_rels(plan, t, results, auto_layout)?;
    let node = &plan.nodes[t];
    let (vars, output) = (&node.vars, &node.output);
    let spec = node_spec(
        store,
        q,
        plan,
        t,
        vars,
        output,
        children,
        auto_layout,
        stats,
        format!("node {t}"),
    );
    // The rows come back canonical (sorted unique): every consumer of a
    // node result turns it into a trie, so they all take the arena-direct
    // `FrozenTrie::from_sorted` path, and duplicated intermediates shrink
    // before they are cloned around.
    let (tuples, satisfiable) = collect_rows(&spec, vars, output, rt);
    let result = NodeResult { attrs: output.clone(), tuples, satisfiable };
    if result.is_empty_relation() {
        None
    } else {
        Some(result)
    }
}

/// The JoinSpec for node `t` over the attribute order `vars`, emitting
/// `emitted`: its λ atoms plus the prepared result tries in `extra`.
#[allow(clippy::too_many_arguments)]
fn node_spec(
    store: &TripleStore,
    q: &ConjunctiveQuery,
    plan: &Plan,
    t: usize,
    vars: &[Var],
    emitted: &[Var],
    extra: Vec<PreparedRel>,
    auto_layout: bool,
    stats: Option<&ExecStats>,
    label: String,
) -> JoinSpec {
    let mut overlay_rels = 0;
    let mut rels: Vec<PreparedRel> = plan.nodes[t]
        .atoms
        .iter()
        .map(|ap| {
            let atom = &q.atoms()[ap.atom_index];
            let operand = relation(store, atom, ap.subject_first, auto_layout);
            overlay_rels += usize::from(operand.overlay.is_some());
            PreparedRel::layered(operand, positions(vars, &ap.attrs))
        })
        .collect();
    rels.extend(extra);
    join_spec(q, vars, emitted, rels, overlay_rels, stats, label)
}

/// Compile a join of `rels` over the attribute order `vars` that emits
/// `emitted` and existence-checks every attribute past the deepest of
/// them. With `stats`, registers a [`JoinStats`] under `label` and hands
/// the executor its recording hook; `None` (the unprofiled path) costs
/// nothing.
fn join_spec(
    q: &ConjunctiveQuery,
    vars: &[Var],
    emitted: &[Var],
    rels: Vec<PreparedRel>,
    overlay_rels: usize,
    stats: Option<&ExecStats>,
    label: String,
) -> JoinSpec {
    let sel: Vec<Option<u32>> = vars
        .iter()
        .map(|&v| q.selection(v).map(|c| c.expect("missing constants short-circuit earlier")))
        .collect();
    let emit_depth = positions(vars, emitted).into_iter().map(|p| p + 1).max().unwrap_or(0);
    let obs = stats.map(|stats| {
        let join = Arc::new(JoinStats::new(
            label,
            vars.iter().map(|&v| q.var_name(v).to_string()).collect(),
            sel.iter().map(|s| s.is_some()).collect(),
            emit_depth,
            overlay_rels,
        ));
        stats.register(Arc::clone(&join));
        JoinObs { stats: join, tasks: Arc::clone(&stats.observer) }
    });
    JoinSpec { num_vars: vars.len(), sel, emit_depth, obs, rels }
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
        // If the shared variables are a prefix of the child's output
        // order, the full child trie participates with truncated depths
        // (its suffix levels are simply never descended) and the
        // already-sorted tuples freeze without re-sorting; otherwise
        // materialise the projection (permuting breaks the sort order).
        let trie = if child.attrs.starts_with(shared) {
            child.trie(auto_layout)
        } else {
            let cols = positions(&child.attrs, shared);
            Arc::new(FrozenTrie::build(child.tuples.permute(&cols), layout_policy(auto_layout)))
        };
        rels.push(PreparedRel::arena(trie, positions(&node.vars, shared)));
    }
    Some(rels)
}

/// The per-morsel sink of every join the driver runs: output rows, the
/// row staging slot, and whether anything was emitted at all — zero-width
/// rows leave no trace in `out`, and a boolean node needs the witness.
struct RowSink {
    out: TupleBuffer,
    row: Vec<u32>,
    emitted: bool,
}

/// Run `spec` over the attribute order `vars` morsel-parallel under `rt`
/// and collect one row of `emitted` per emission, sorted and
/// deduplicated, plus whether anything was emitted. An observed spec gets
/// its row count (after deduplication) and wall time recorded.
fn collect_rows(
    spec: &JoinSpec,
    vars: &[Var],
    emitted: &[Var],
    rt: RuntimeConfig,
) -> (TupleBuffer, bool) {
    let t0 = spec.obs.as_ref().map(|_| Instant::now());
    let cols = positions(vars, emitted);
    let arity = cols.len();
    let sinks = run_join_parallel(
        spec,
        rt,
        || RowSink { out: TupleBuffer::new(arity), row: vec![0u32; arity], emitted: false },
        |sink, binding| {
            for (slot, &p) in sink.row.iter_mut().zip(&cols) {
                *slot = binding[p];
            }
            sink.out.push(&sink.row);
            sink.emitted = true;
        },
    );
    let mut out = TupleBuffer::new(arity);
    let mut any = false;
    for sink in &sinks {
        out.append(&sink.out);
        any |= sink.emitted;
    }
    out.sort_dedup();
    if let (Some(o), Some(t0)) = (&spec.obs, t0) {
        o.stats.set_rows(out.len() as u64);
        o.stats.add_wall_ns(t0.elapsed().as_nanos() as u64);
    }
    (out, any)
}

/// The top-down pass of a pipelined or single-node plan (§III-C): one
/// generic join over the root's atoms and the result tries of the root's
/// children and of every deeper node with private columns, each read at
/// all of its output attributes. A deeper node without private columns
/// was already applied bottom-up, as a semijoin into its parent.
///
/// The attribute order is the root's variables up to its last output,
/// then each descendant's private outputs in BFS order, then the root's
/// trailing variables, which stay existence checks. A node's shared
/// attributes prefix its output (Definition 2) and are bound by its
/// parent before its private ones, so every trie's levels bind at
/// increasing depths.
fn top_down_join(
    store: &TripleStore,
    q: &ConjunctiveQuery,
    plan: &Plan,
    results: &[Option<NodeResult>],
    auto_layout: bool,
    rt: RuntimeConfig,
    stats: Option<&ExecStats>,
) -> TupleBuffer {
    let root = plan.ghd.root;
    let node = &plan.nodes[root];
    let lead = positions(&node.vars, &node.output).last().map_or(0, |&p| p + 1);
    let mut vars: Vec<Var> = node.vars[..lead].to_vec();
    let mut members: Vec<&NodeResult> = Vec::new();
    for t in plan.ghd.bfs_order().into_iter().skip(1) {
        let r = results[t].as_ref().expect("the bottom-up pass ran every non-root node");
        let shared = &plan.nodes[t].shared_with_parent;
        debug_assert!(r.attrs.starts_with(shared), "Definition 2: shared attributes prefix output");
        debug_assert!(shared.iter().all(|v| vars.contains(v)), "parents bind before children");
        let private = &r.attrs[shared.len()..];
        if !private.is_empty() || (plan.ghd.parent[t] == Some(root) && !shared.is_empty()) {
            vars.extend_from_slice(private);
            members.push(r);
        }
    }
    vars.extend_from_slice(&node.vars[lead..]);
    let rels = members
        .iter()
        .map(|r| PreparedRel::arena(r.trie(auto_layout), positions(&vars, &r.attrs)))
        .collect();
    let label =
        if plan.pipelined { format!("node {root} (pipelined)") } else { format!("node {root}") };
    let spec =
        node_spec(store, q, plan, root, &vars, q.projection(), rels, auto_layout, stats, label);
    collect_rows(&spec, &vars, q.projection(), rt).0
}

/// The top-down pass of any other plan: a generic join over all node
/// results, projecting to SELECT order.
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
    let mut vars: Vec<Var> = live.iter().flat_map(|r| r.attrs.iter().copied()).collect();
    vars.sort_by_key(|&v| plan.position[v]);
    vars.dedup();
    let rels = live
        .iter()
        .map(|r| PreparedRel::arena(r.trie(auto_layout), positions(&vars, &r.attrs)))
        .collect();
    let spec = join_spec(q, &vars, q.projection(), rels, 0, stats, "final join".to_string());
    collect_rows(&spec, &vars, q.projection(), rt).0
}
