//! The planner: query → GHD → global attribute order → node schedules.

use eh_ghd::{choose_ghd, ghd_width_unselected, pipelineable, ChooseMode, Ghd};
use eh_query::{ConjunctiveQuery, Hypergraph, Var};
use eh_rdf::TripleStore;

use crate::flags::PlannerConfig;
use crate::plan::{AtomPlan, NodePlan, Plan};

/// Estimated number of bindings for each unselected variable: the minimum
/// over its atoms of (a) the exact match count when the atom's other
/// position carries an equality selection (the tables are clustered both
/// ways, so this is a range count) or (b) the distinct count of the
/// variable's side. This drives the "+Attribute" heuristic of §III-B1:
/// "forcing the attributes with selections **or small initial
/// cardinalities** to come first".
fn var_cardinalities(
    q: &ConjunctiveQuery,
    store: &TripleStore,
    selection_aware: bool,
) -> Vec<usize> {
    let mut est = vec![usize::MAX; q.num_vars()];
    for a in q.atoms() {
        // Statistics come through the [`PredCard`] view of the base
        // relation, so the chosen attribute order does not move with
        // staged deltas.
        let Some(card) = store.pred_card(&a.relation) else {
            // Missing predicate: the query is empty; any order works.
            est[a.vars[0]] = 0;
            est[a.vars[1]] = 0;
            continue;
        };
        for (i, &v) in a.vars.iter().enumerate() {
            if q.is_selected(v) {
                continue;
            }
            let other = a.vars[1 - i];
            let bound = match q.selection(other) {
                Some(Some(c)) if selection_aware => {
                    if i == 0 {
                        card.matches_for_object(c)
                    } else {
                        card.matches_for_subject(c)
                    }
                }
                Some(None) if selection_aware => 0,
                _ => {
                    if i == 0 {
                        card.distinct_subjects()
                    } else {
                        card.distinct_objects()
                    }
                }
            };
            est[v] = est[v].min(bound);
        }
    }
    est
}

/// Build a physical plan for `q` under `config`, using `store` statistics
/// for the cardinality-aware attribute ordering (pass `None` to fall back
/// to pure appearance order — used by unit tests).
pub fn build_plan_with(
    q: &ConjunctiveQuery,
    config: PlannerConfig,
    store: Option<&TripleStore>,
) -> Plan {
    let flags = config.flags;
    let h = Hypergraph::from_query(q);
    let selected: Vec<bool> = (0..q.num_vars()).map(|v| q.is_selected(v)).collect();

    // 1. Choose the decomposition (§II-C, §III-B2).
    let ghd = if config.force_single_node {
        Ghd::single_node(&h)
    } else if flags.ghd_pushdown {
        choose_ghd(&h, &selected, ChooseMode::SelectionAware)
    } else {
        choose_ghd(&h, &selected, ChooseMode::Plain)
    };

    // 2. Global attribute order (§II-C): BFS over the GHD, variables
    //    within each bag in query-appearance order; with +Attribute the
    //    selection variables move to the front and the remaining
    //    variables order by estimated cardinality (§III-B1 — the paper's
    //    [a, b, c, x, y, z] order for LUBM query 2, and "attributes with
    //    selections or small initial cardinalities come first").
    let appearance = q.appearance_order();
    let appearance_rank: Vec<usize> = {
        let mut r = vec![usize::MAX; q.num_vars()];
        for (i, &v) in appearance.iter().enumerate() {
            r[v] = i;
        }
        r
    };
    let mut base: Vec<Var> = Vec::with_capacity(q.num_vars());
    let mut seen = vec![false; q.num_vars()];
    for t in ghd.bfs_order() {
        let mut bag = ghd.bags[t].clone();
        bag.sort_by_key(|&v| appearance_rank[v]);
        for v in bag {
            if !seen[v] {
                seen[v] = true;
                base.push(v);
            }
        }
    }
    let global_order: Vec<Var> = if flags.attr_reorder {
        // §III-B1: selections first, then ascending estimated cardinality.
        let cards = match store {
            Some(s) => var_cardinalities(q, s, true),
            None => vec![0; q.num_vars()],
        };
        let sel: Vec<Var> = base.iter().copied().filter(|&v| selected[v]).collect();
        let mut unsel: Vec<Var> = base.iter().copied().filter(|&v| !selected[v]).collect();
        unsel.sort_by_key(|&v| (cards[v], appearance_rank[v]));
        sel.into_iter().chain(unsel).collect()
    } else if config.selection_blind_order {
        // LogicBlox-style: competent distinct-count join ordering, but
        // selections are trailing checks instead of leading probes.
        let cards = match store {
            Some(s) => var_cardinalities(q, s, false),
            None => vec![0; q.num_vars()],
        };
        let mut unsel: Vec<Var> = base.iter().copied().filter(|&v| !selected[v]).collect();
        unsel.sort_by_key(|&v| (cards[v], appearance_rank[v]));
        let sel: Vec<Var> = base.iter().copied().filter(|&v| selected[v]).collect();
        unsel.into_iter().chain(sel).collect()
    } else {
        base
    };
    let mut position = vec![usize::MAX; q.num_vars()];
    for (i, &v) in global_order.iter().enumerate() {
        position[v] = i;
    }

    // 3. Node schedules.
    let projection = q.projection();
    let mut nodes = Vec::with_capacity(ghd.num_nodes());
    for t in 0..ghd.num_nodes() {
        let mut vars = ghd.bags[t].clone();
        vars.sort_by_key(|&v| position[v]);
        // Output = unselected bag vars needed above, below, or in SELECT.
        let mut needed: Vec<Var> = Vec::new();
        for &v in &vars {
            if selected[v] {
                continue;
            }
            let in_projection = projection.contains(&v);
            let in_parent = ghd.parent[t].is_some_and(|p| ghd.bags[p].contains(&v));
            let in_child = ghd.children[t].iter().any(|&c| ghd.bags[c].contains(&v));
            if in_projection || in_parent || in_child {
                needed.push(v);
            }
        }
        let shared: Vec<Var> = {
            let mut s = ghd.shared_with_parent(t);
            s.retain(|&v| !selected[v]);
            s.sort_by_key(|&v| position[v]);
            s
        };
        let atoms = ghd.lambdas[t]
            .iter()
            .map(|&e| {
                let a = &q.atoms()[e];
                let subject_first = position[a.vars[0]] < position[a.vars[1]];
                let attrs = if subject_first {
                    vec![a.vars[0], a.vars[1]]
                } else {
                    vec![a.vars[1], a.vars[0]]
                };
                AtomPlan { atom_index: e, subject_first, attrs }
            })
            .collect();
        nodes.push(NodePlan { vars, output: needed, shared_with_parent: shared, atoms });
    }

    // 4. Pipelining (§III-C, Definition 2): the root streams into the
    //    final result when, for every non-root node, the variables shared
    //    with its parent form a prefix of its own output (trie) order.
    //    This applies Definition 2 transitively down the tree — the paper
    //    pipelines the root with one child. The streaming pass is one
    //    generic join whose order appends each node's private outputs, in
    //    BFS order, after the root's variables; the prefix condition is
    //    what keeps every node's trie levels binding at increasing depths
    //    there, since its shared variables are bound by its parent first.
    let pipelined = flags.pipelining
        && ghd.num_nodes() > 1
        && (0..ghd.num_nodes()).all(|t| {
            t == ghd.root
                || pipelineable(&nodes[t].shared_with_parent, &nodes[t].output, &nodes[t].output)
        });

    // Reported width ignores selection attributes: the paper quotes the
    // Figure 2 GHD of LUBM query 2 as fhw 1.5, i.e. the width of the
    // triangle over {x, y, z} with the three selection attributes bound.
    let width = ghd_width_unselected(&ghd, &h, &selected);
    Plan { ghd, global_order, position, nodes, pipelined, width }
}

/// [`build_plan_with`] without store statistics (appearance-order
/// fallback for the +Attribute heuristic; unit tests use this to check
/// pure plan-shape decisions).
#[cfg(test)]
pub(crate) fn build_plan(q: &ConjunctiveQuery, config: PlannerConfig) -> Plan {
    build_plan_with(q, config, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::OptFlags;
    use eh_query::QueryBuilder;

    /// LUBM query 14 shape: R(x, a) with a selected.
    fn q14_like() -> ConjunctiveQuery {
        let mut qb = QueryBuilder::new();
        let x = qb.var("x");
        let a = qb.selection_var(Some(5));
        qb.atom("type", 0, x, a);
        qb.select(vec![x]).build().unwrap()
    }

    #[test]
    fn attr_reorder_puts_selection_first() {
        let q = q14_like();
        let with = build_plan(&q, PlannerConfig::with_flags(OptFlags::all()));
        let without = build_plan(&q, PlannerConfig::with_flags(OptFlags::none()));
        // Example 1 of the paper: [a, x] with the optimization, [x, a]
        // without.
        assert_eq!(with.global_order, vec![1, 0]);
        assert_eq!(without.global_order, vec![0, 1]);
        // The trie column order follows: object-major with, subject-major
        // without.
        assert!(!with.nodes[0].atoms[0].subject_first);
        assert!(without.nodes[0].atoms[0].subject_first);
    }

    #[test]
    fn q2_order_selections_first() {
        // Triangle with three selection atoms: the global order must list
        // the three selection vars before x, y, z (paper §III-B1).
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        let a = qb.selection_var(Some(1));
        let b = qb.selection_var(Some(2));
        let c = qb.selection_var(Some(3));
        qb.atom("type", 0, x, a)
            .atom("type", 0, y, b)
            .atom("type", 0, z, c)
            .atom("degreeFrom", 1, x, y)
            .atom("memberOf", 2, x, z)
            .atom("subOrg", 3, z, y);
        let q = qb.select(vec![x, y, z]).build().unwrap();
        let plan = build_plan(&q, PlannerConfig::with_flags(OptFlags::all()));
        let sel_pos: Vec<usize> = [a, b, c].iter().map(|&v| plan.position[v]).collect();
        let var_pos: Vec<usize> = [x, y, z].iter().map(|&v| plan.position[v]).collect();
        assert!(sel_pos.iter().max() < var_pos.iter().min(), "{:?} {:?}", sel_pos, var_pos);
        assert_eq!(plan.width, eh_lp::Rational::new(3, 2));
    }

    #[test]
    fn single_node_override() {
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.atom("R", 0, x, y).atom("S", 1, y, z);
        let q = qb.select(vec![x, z]).build().unwrap();
        let plan = build_plan(&q, PlannerConfig::logicblox_style());
        assert_eq!(plan.ghd.num_nodes(), 1);
        assert!(!plan.pipelined);
        // Naive order: appearance order.
        assert_eq!(plan.global_order, vec![x, y, z]);
    }

    #[test]
    fn q8_like_is_pipelineable() {
        // R(x,y) root-ish with S(x,z): shared {x} is a prefix of both
        // output orders, so pipelining applies (paper Example 3).
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        qb.atom("R", 0, x, y).atom("S", 1, x, z);
        let q = qb.select(vec![x, y, z]).build().unwrap();
        let plan = build_plan(&q, PlannerConfig::with_flags(OptFlags::all()));
        if plan.ghd.num_nodes() > 1 {
            assert!(plan.pipelined);
        }
        let no_pipe = build_plan(
            &q,
            PlannerConfig::with_flags(OptFlags { pipelining: false, ..OptFlags::all() }),
        );
        assert!(!no_pipe.pipelined);
    }

    #[test]
    fn node_outputs_cover_projection_and_interfaces() {
        let mut qb = QueryBuilder::new();
        let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
        let a = qb.selection_var(Some(9));
        qb.atom("R", 0, x, y).atom("S", 1, y, z).atom("T", 2, x, a);
        let q = qb.select(vec![x, z]).build().unwrap();
        for flags in [OptFlags::all(), OptFlags::none()] {
            let plan = build_plan(&q, PlannerConfig::with_flags(flags));
            // Every projection var appears in some node output.
            for &v in q.projection() {
                assert!(
                    plan.nodes.iter().any(|n| n.output.contains(&v)),
                    "projection var missing from all node outputs"
                );
            }
            // No selection var is ever an output.
            for n in &plan.nodes {
                assert!(!n.output.contains(&a));
                // Outputs are sorted by global position.
                assert!(n.output.windows(2).all(|w| plan.position[w[0]] < plan.position[w[1]]));
            }
        }
    }
}
