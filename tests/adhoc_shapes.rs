//! Cross-engine agreement on query shapes beyond the LUBM workload:
//! longer chains, wide stars, and a four-cycle (fhw 2 — wider than
//! anything in LUBM), over a seeded random graph — plus the pipelined
//! plan shapes whose top-down join reads descendant result tries beyond
//! the root's own attributes.

use std::collections::BTreeSet;

use wcoj_rdf::baselines::{LogicBloxStyle, MonetDbStyle, QueryEngine, Rdf3xStyle, TripleBitStyle};
use wcoj_rdf::emptyheaded::{Engine, OptFlags, Plan, PlannerConfig, RuntimeConfig};
use wcoj_rdf::query::{ConjunctiveQuery, Hypergraph, QueryBuilder};
use wcoj_rdf::rdf::{Term, Triple, TripleStore};

/// A deterministic multigraph with two predicates, `edge` and `link`,
/// drawn `triples` times from `subjects × objects` (named `{prefix}i` and
/// `n{j}`).
fn random_store(
    seed: u64,
    triples: usize,
    prefix: &str,
    subjects: u64,
    objects: u64,
) -> TripleStore {
    let mut state = seed;
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % m) as u32
    };
    let triples = (0..triples).map(|_| {
        let p = if next(2) == 0 { "edge" } else { "link" };
        let s = Term::iri(format!("{prefix}{}", next(subjects)));
        Triple::new(s, Term::iri(p), Term::iri(format!("n{}", next(objects))))
    });
    TripleStore::from_triples(triples)
}

fn graph_store() -> TripleStore {
    // Deterministic multigraph over 40 nodes with two predicates.
    random_store(0x9E3779B97F4A7C15, 400, "n", 40, 40)
}

/// Six hubs fanning out to 40 nodes: subject variables are the most
/// selective, so they lead the attribute order.
fn fan_store() -> TripleStore {
    random_store(0x2545F4914F6CDD1D, 200, "h", 6, 40)
}

fn check(store: &TripleStore, q: &ConjunctiveQuery, label: &str) -> usize {
    let eh = Engine::new(store.clone(), OptFlags::all());
    let reference: BTreeSet<Vec<u32>> = eh.run(q).unwrap().iter().map(|r| r.to_vec()).collect();
    let engines: Vec<Box<dyn QueryEngine + '_>> = vec![
        Box::new(MonetDbStyle::new(store)),
        Box::new(Rdf3xStyle::new(store)),
        Box::new(TripleBitStyle::new(store)),
        Box::new(LogicBloxStyle::new(store)),
    ];
    for e in &engines {
        let got: BTreeSet<Vec<u32>> = e.execute(q).rows().map(|r| r.to_vec()).collect();
        assert_eq!(got, reference, "{label}: {} disagrees", e.name());
    }
    // And the unoptimized worst-case optimal engine.
    let none = Engine::new(store.clone(), OptFlags::none());
    let got: BTreeSet<Vec<u32>> = none.run(q).unwrap().iter().map(|r| r.to_vec()).collect();
    assert_eq!(got, reference, "{label}: OptFlags::none disagrees");
    reference.len()
}

#[test]
fn four_hop_chain() {
    let store = graph_store();
    let p = store.resolve_iri("edge").unwrap();
    let mut qb = QueryBuilder::new();
    let vars: Vec<_> = (0..5).map(|i| qb.var(&format!("v{i}"))).collect();
    for w in vars.windows(2) {
        qb.atom("edge", p, w[0], w[1]);
    }
    let q = qb.select(vec![vars[0], vars[4]]).build().unwrap();
    let n = check(&store, &q, "four-hop chain");
    assert!(n > 0, "chains should match in a dense-ish graph");
}

#[test]
fn wide_star_with_two_predicates() {
    let store = graph_store();
    let e = store.resolve_iri("edge").unwrap();
    let l = store.resolve_iri("link").unwrap();
    let mut qb = QueryBuilder::new();
    let hub = qb.var("hub");
    let leaves: Vec<_> = (0..4).map(|i| qb.var(&format!("l{i}"))).collect();
    qb.atom("edge", e, hub, leaves[0])
        .atom("edge", e, hub, leaves[1])
        .atom("link", l, hub, leaves[2])
        .atom("link", l, leaves[3], hub);
    let q = qb.select(vec![hub]).build().unwrap();
    check(&store, &q, "wide star");
}

#[test]
fn four_cycle_is_wider_than_lubm() {
    let store = graph_store();
    let p = store.resolve_iri("edge").unwrap();
    let mut qb = QueryBuilder::new();
    let v: Vec<_> = (0..4).map(|i| qb.var(&format!("v{i}"))).collect();
    qb.atom("edge", p, v[0], v[1])
        .atom("edge", p, v[1], v[2])
        .atom("edge", p, v[2], v[3])
        .atom("edge", p, v[3], v[0]);
    let q = qb.select(v.clone()).build().unwrap();
    let h = Hypergraph::from_query(&q);
    assert!(h.is_cyclic());
    let engine = Engine::new(store.clone(), OptFlags::all());
    let plan = engine.plan(&q).unwrap();
    // fhw of the 4-cycle is 2 (two opposite edges cover it).
    assert_eq!(plan.width, wcoj_rdf::lp::Rational::from_int(2));
    check(&store, &q, "four-cycle");
}

#[test]
fn mixed_cycle_with_selection() {
    let store = graph_store();
    let e = store.resolve_iri("edge").unwrap();
    let anchor = store.resolve_iri("n1");
    let mut qb = QueryBuilder::new();
    let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
    let a = qb.selection_var(anchor);
    qb.atom("edge", e, x, y).atom("edge", e, y, z).atom("edge", e, x, z).atom("edge", e, x, a); // triangle anchored at a constant neighbour
    let q = qb.select(vec![x, y, z]).build().unwrap();
    check(&store, &q, "anchored triangle");
}

/// Sequential reference vs. 1/2/4 worker threads at morsel sizes 1 and
/// 256, bit for bit, under both optimization profiles.
fn assert_parallel_identical(store: &TripleStore, q: &ConjunctiveQuery, label: &str) {
    for flags in [OptFlags::all(), OptFlags::none()] {
        let reference = Engine::new(store.clone(), flags).run(q).unwrap();
        for threads in [1, 2, 4] {
            for morsel_size in [1, 256] {
                let runtime = RuntimeConfig::with_threads(threads).with_morsel_size(morsel_size);
                let config = PlannerConfig::with_flags(flags).with_runtime(runtime);
                let parallel = Engine::with_config(store.clone(), config).run(q).unwrap();
                assert_eq!(
                    parallel, reference,
                    "{label}: diverged at {threads} threads, morsel {morsel_size}, {flags:?}"
                );
            }
        }
    }
}

/// The plan `check` takes as its reference.
fn plan_of(store: &TripleStore, q: &ConjunctiveQuery) -> Plan {
    Engine::new(store.clone(), OptFlags::all()).plan(q).unwrap()
}

/// Output columns of GHD node `t` that it does not share with its parent.
fn private_outputs(plan: &Plan, t: usize) -> usize {
    plan.nodes[t].output.len() - plan.nodes[t].shared_with_parent.len()
}

fn node_depth(plan: &Plan, mut t: usize) -> usize {
    let mut depth = 0;
    while let Some(p) = plan.ghd.parent[t] {
        (depth, t) = (depth + 1, p);
    }
    depth
}

#[test]
fn pipelined_private_columns_below_depth_one() {
    // Every variable of a four-hop chain is projected, so every GHD node
    // carries a private column; the chain's far end hangs two levels
    // below the root.
    let store = graph_store();
    let p = store.resolve_iri("edge").unwrap();
    let mut qb = QueryBuilder::new();
    let vars: Vec<_> = (0..5).map(|i| qb.var(&format!("v{i}"))).collect();
    for w in vars.windows(2) {
        qb.atom("edge", p, w[0], w[1]);
    }
    let q = qb.select(vars).build().unwrap();
    let plan = plan_of(&store, &q);
    assert!(plan.pipelined, "{}", plan.render(&q));
    assert!(
        (0..plan.nodes.len()).any(|t| node_depth(&plan, t) >= 2 && private_outputs(&plan, t) > 0),
        "no private-column node below depth 1:\n{}",
        plan.render(&q)
    );
    assert!(check(&store, &q, "five-variable chain") > 0);
    assert_parallel_identical(&store, &q, "five-variable chain");
}

#[test]
fn pipelined_child_sharing_nothing_with_the_root() {
    // Reciprocal edge pairs × link subjects: a cross product, so the root
    // child shares no attribute with the root yet has an output column.
    let store = graph_store();
    let (e, l) = (store.resolve_iri("edge").unwrap(), store.resolve_iri("link").unwrap());
    let mut qb = QueryBuilder::new();
    let (a, b, c, d) = (qb.var("a"), qb.var("b"), qb.var("c"), qb.var("d"));
    qb.atom("edge", e, a, b).atom("edge", e, b, a).atom("link", l, c, d);
    let q = qb.select(vec![a, c]).build().unwrap();
    let plan = plan_of(&store, &q);
    assert!(plan.pipelined, "{}", plan.render(&q));
    let root = plan.ghd.root;
    assert!(
        plan.ghd.children[root]
            .iter()
            .any(|&c| plan.nodes[c].shared_with_parent.is_empty() && private_outputs(&plan, c) > 0),
        "no root child shares nothing:\n{}",
        plan.render(&q)
    );
    assert!(check(&store, &q, "reciprocal edges × link subjects") > 0);
    assert_parallel_identical(&store, &q, "reciprocal edges × link subjects");
}

#[test]
fn pipelined_root_with_trailing_non_output_variable() {
    // Hubs with an edge and a link: the root's `y` is needed by nobody,
    // and the hub-first order places it after the root's only output.
    let store = fan_store();
    let (e, l) = (store.resolve_iri("edge").unwrap(), store.resolve_iri("link").unwrap());
    let mut qb = QueryBuilder::new();
    let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
    qb.atom("edge", e, x, y).atom("link", l, x, z);
    let q = qb.select(vec![x, z]).build().unwrap();
    let plan = plan_of(&store, &q);
    assert!(plan.pipelined, "{}", plan.render(&q));
    let root = &plan.nodes[plan.ghd.root];
    let last_output = root.output.last().and_then(|v| root.vars.iter().position(|w| w == v));
    let trailing = &root.vars[last_output.map_or(0, |p| p + 1)..];
    assert!(
        trailing.iter().any(|&v| !q.is_selected(v)),
        "no unselected variable after the root's last output:\n{}",
        plan.render(&q)
    );
    assert!(check(&store, &q, "hub edge and link") > 0);
    assert_parallel_identical(&store, &q, "hub edge and link");
}
