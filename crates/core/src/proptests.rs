//! Property tests: every planner configuration must agree with a
//! brute-force nested-loop oracle on randomly generated stores and
//! conjunctive queries, and optimization toggles must never change
//! results.

use std::collections::BTreeSet;

use proptest::prelude::*;

use eh_query::{ConjunctiveQuery, QueryBuilder};
use eh_rdf::{Term, Triple, TripleStore};

use crate::{Engine, OptFlags, PlannerConfig, RuntimeConfig, SharedStore};

const PREDS: [&str; 3] = ["p0", "p1", "p2"];

/// Random store: a few predicates over a small id universe so joins hit.
fn store_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..3, 0u8..12, 0u8..12), 1..60)
}

fn build_store(spec: &[(u8, u8, u8)]) -> TripleStore {
    TripleStore::from_triples(spec.iter().map(|&(p, s, o)| {
        Triple::new(
            Term::iri(format!("n{s}")),
            Term::iri(PREDS[p as usize]),
            Term::iri(format!("n{o}")),
        )
    }))
}

/// A random query: atoms over up to 4 variables with optional selections.
#[derive(Debug, Clone)]
struct QuerySpec {
    /// (pred, subject slot, object slot); slots 0..4 are variables,
    /// 4..8 are constants `n{slot-4}`.
    atoms: Vec<(u8, u8, u8)>,
    projection: Vec<u8>,
}

fn query_strategy() -> impl Strategy<Value = QuerySpec> {
    (
        proptest::collection::vec((0u8..3, 0u8..8, 0u8..8), 1..5),
        proptest::collection::vec(0u8..4, 1..4),
    )
        .prop_map(|(atoms, projection)| QuerySpec { atoms, projection })
}

/// Build the IR; returns `None` for specs invalid by construction
/// (repeated variable in an atom, unbound projection).
fn build_query(spec: &QuerySpec, store: &TripleStore) -> Option<ConjunctiveQuery> {
    let mut qb = QueryBuilder::new();
    let var_of = |qb: &mut QueryBuilder, slot: u8| {
        if slot < 4 {
            Ok(qb.var(&format!("v{slot}")))
        } else {
            Err(format!("n{}", slot - 4))
        }
    };
    for &(p, s, o) in &spec.atoms {
        let pred_name = PREDS[p as usize];
        let pred = store.resolve_iri(pred_name).unwrap_or(u32::MAX);
        let sv = match var_of(&mut qb, s) {
            Ok(v) => v,
            Err(iri) => {
                let id = store.resolve_iri(&iri);
                qb.selection_var(id)
            }
        };
        let ov = match var_of(&mut qb, o) {
            Ok(v) => v,
            Err(iri) => {
                let id = store.resolve_iri(&iri);
                qb.selection_var(id)
            }
        };
        qb.atom(pred_name, pred, sv, ov);
    }
    let mut proj = Vec::new();
    for &v in &spec.projection {
        proj.push(qb.var(&format!("v{v}")));
    }
    proj.sort_unstable();
    proj.dedup();
    qb.select(proj);
    qb.build().ok()
}

/// Brute-force oracle: enumerate all assignments of query variables to
/// the value universe and keep those satisfied by every atom.
fn oracle(q: &ConjunctiveQuery, store: &TripleStore) -> BTreeSet<Vec<u32>> {
    // Universe: every id in the dictionary (small in these tests).
    let universe: Vec<u32> = (0..store.dict().len() as u32).collect();
    let n = q.num_vars();
    let mut assignment = vec![0u32; n];
    let mut out = BTreeSet::new();
    enumerate(q, store, &universe, 0, &mut assignment, &mut out);
    out
}

fn enumerate(
    q: &ConjunctiveQuery,
    store: &TripleStore,
    universe: &[u32],
    v: usize,
    assignment: &mut Vec<u32>,
    out: &mut BTreeSet<Vec<u32>>,
) {
    if v == q.num_vars() {
        let ok = q.atoms().iter().all(|a| {
            store
                .resolve_iri(&a.relation)
                .and_then(|p| store.trie_pair(p))
                .is_some_and(|r| r.contains(assignment[a.vars[0]], assignment[a.vars[1]]))
        });
        if ok {
            out.insert(q.projection().iter().map(|&p| assignment[p]).collect());
        }
        return;
    }
    // Selections pin their variable.
    match q.selection(v) {
        Some(Some(c)) => {
            assignment[v] = c;
            enumerate(q, store, universe, v + 1, assignment, out);
        }
        Some(None) => {} // missing constant: no assignment satisfies
        None => {
            for &val in universe {
                assignment[v] = val;
                enumerate(q, store, universe, v + 1, assignment, out);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_oracle(spec in store_strategy(), qspec in query_strategy()) {
        let store = build_store(&spec);
        let Some(q) = build_query(&qspec, &store) else { return Ok(()); };
        prop_assume!(q.num_vars() <= 5); // keep the oracle cheap
        let expect = oracle(&q, &store);
        let shared = SharedStore::new(store);
        for k in 0..=4 {
            let engine = Engine::new(shared.clone(), OptFlags::cumulative(k));
            let got: BTreeSet<Vec<u32>> =
                engine.run(&q).unwrap().iter().map(|r| r.to_vec()).collect();
            prop_assert_eq!(&got, &expect, "flags cumulative({})", k);
        }
        let lb = Engine::with_config(shared.clone(), PlannerConfig::logicblox_style());
        let got: BTreeSet<Vec<u32>> = lb.run(&q).unwrap().iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(&got, &expect, "logicblox-style");
    }

    #[test]
    fn flags_never_change_results(spec in store_strategy(), qspec in query_strategy()) {
        let store = build_store(&spec);
        let Some(q) = build_query(&qspec, &store) else { return Ok(()); };
        let shared = SharedStore::new(store);
        let reference: BTreeSet<Vec<u32>> = Engine::new(shared.clone(), OptFlags::all())
            .run(&q)
            .unwrap()
            .iter()
            .map(|r| r.to_vec())
            .collect();
        // All 16 flag combinations agree.
        for bits in 0..16u8 {
            let flags = OptFlags {
                layouts: bits & 1 != 0,
                attr_reorder: bits & 2 != 0,
                ghd_pushdown: bits & 4 != 0,
                pipelining: bits & 8 != 0,
            };
            let got: BTreeSet<Vec<u32>> = Engine::new(shared.clone(), flags)
                .run(&q)
                .unwrap()
                .iter()
                .map(|r| r.to_vec())
                .collect();
            prop_assert_eq!(&got, &reference, "flags {:?}", flags);
        }
    }

    /// Morsel-merge determinism: the parallel runtime must return results
    /// *byte-identical* to sequential execution (same rows, same order,
    /// same columns) for every plan shape, even at morsel size 1 where
    /// every outer-attribute value becomes its own scheduled task.
    #[test]
    fn parallel_execution_is_byte_identical(
        spec in store_strategy(),
        qspec in query_strategy(),
        threads in 2usize..5,
        morsel in 1usize..4,
    ) {
        let store = build_store(&spec);
        let Some(q) = build_query(&qspec, &store) else { return Ok(()); };
        let shared = SharedStore::new(store);
        for flags in [OptFlags::all(), OptFlags::none()] {
            let reference = Engine::new(shared.clone(), flags).run(&q).unwrap();
            let runtime = RuntimeConfig::with_threads(threads).with_morsel_size(morsel);
            let engine = Engine::with_config(
                shared.clone(),
                PlannerConfig::with_flags(flags).with_runtime(runtime),
            );
            engine.warm(&q).unwrap();
            let parallel = engine.run(&q).unwrap();
            prop_assert_eq!(
                &parallel,
                &reference,
                "threads {} morsel {} flags {:?}",
                threads,
                morsel,
                flags
            );
        }
    }
}
