//! Cross-engine agreement: all four baselines and the EmptyHeaded engine
//! must return identical result sets on the full LUBM workload and on
//! randomized conjunctive queries.

use std::collections::BTreeSet;

use eh_lubm::queries::{lubm_query, QUERY_NUMBERS};
use eh_lubm::{generate_store, GeneratorConfig};
use eh_query::{ConjunctiveQuery, QueryBuilder};
use eh_rdf::{Term, Triple, TripleStore};
use eh_trie::TupleBuffer;

use crate::{LogicBloxStyle, MonetDbStyle, QueryEngine, Rdf3xStyle, TripleBitStyle};
use emptyheaded::{Engine, OptFlags};

fn rows(t: &TupleBuffer) -> BTreeSet<Vec<u32>> {
    t.rows().map(|r| r.to_vec()).collect()
}

fn check_all_engines(store: &TripleStore, q: &ConjunctiveQuery, label: &str) {
    let eh = Engine::new(store.clone(), OptFlags::all());
    let reference = rows(eh.run(q).expect("EH executes workload queries").tuples());
    let engines: Vec<Box<dyn QueryEngine + '_>> = vec![
        Box::new(MonetDbStyle::new(store)),
        Box::new(Rdf3xStyle::new(store)),
        Box::new(TripleBitStyle::new(store)),
        Box::new(LogicBloxStyle::new(store)),
    ];
    for e in &engines {
        let got = rows(&e.execute(q));
        assert_eq!(
            got,
            reference,
            "{label}: {} disagrees with EmptyHeaded ({} vs {} rows)",
            e.name(),
            got.len(),
            reference.len()
        );
    }
}

#[test]
fn lubm_workload_all_engines_agree() {
    let store = generate_store(&GeneratorConfig::tiny(2));
    for n in QUERY_NUMBERS {
        let q = lubm_query(n, &store).unwrap();
        check_all_engines(&store, &q, &format!("LUBM query {n}"));
    }
}

#[test]
fn triangle_query_all_engines_agree() {
    // A dense random-ish graph with triangles.
    let mut triples = Vec::new();
    for i in 0u32..30 {
        for j in 0u32..30 {
            if i != j && (i * 7 + j * 13) % 5 == 0 {
                triples.push(Triple::new(
                    Term::iri(format!("n{i}")),
                    Term::iri("edge"),
                    Term::iri(format!("n{j}")),
                ));
            }
        }
    }
    let store = TripleStore::from_triples(triples);
    let p = store.resolve_iri("edge").unwrap();
    let mut qb = QueryBuilder::new();
    let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
    qb.atom("edge", p, x, y).atom("edge", p, y, z).atom("edge", p, x, z);
    let q = qb.select(vec![x, y, z]).build().unwrap();
    check_all_engines(&store, &q, "triangle");
}

/// The differential suite's pattern shapes over `edge`/`link`: triangle,
/// two-hop chain, star, four-cycle and a path anchored at `n0`.
fn differential_shapes(store: &TripleStore) -> Vec<ConjunctiveQuery> {
    let e = store.resolve_iri("edge").unwrap_or(u32::MAX);
    let l = store.resolve_iri("link").unwrap_or(u32::MAX);
    let mut out = Vec::new();
    let mut qb = QueryBuilder::new();
    let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
    qb.atom("edge", e, x, y).atom("edge", e, y, z).atom("edge", e, x, z);
    out.push(qb.select(vec![x, y, z]).build().unwrap());
    let mut qb = QueryBuilder::new();
    let (x, y, z) = (qb.var("x"), qb.var("y"), qb.var("z"));
    qb.atom("edge", e, x, y).atom("link", l, y, z);
    out.push(qb.select(vec![z, x]).build().unwrap());
    let mut qb = QueryBuilder::new();
    let (hub, a, b, c) = (qb.var("hub"), qb.var("a"), qb.var("b"), qb.var("c"));
    qb.atom("edge", e, hub, a).atom("edge", e, hub, b).atom("link", l, c, hub);
    out.push(qb.select(vec![hub, a, b, c]).build().unwrap());
    let mut qb = QueryBuilder::new();
    let v: Vec<_> = (0..4).map(|i| qb.var(&format!("v{i}"))).collect();
    for i in 0..4 {
        qb.atom("edge", e, v[i], v[(i + 1) % 4]);
    }
    out.push(qb.select(v).build().unwrap());
    let mut qb = QueryBuilder::new();
    let (x, y) = (qb.var("x"), qb.var("y"));
    let s = qb.selection_var(store.resolve_iri("n0"));
    qb.atom("edge", e, x, y).atom("link", l, y, s);
    out.push(qb.select(vec![x, y]).build().unwrap());
    out
}

/// Each pairwise baseline's answers to the differential shapes, decoded
/// to term text (the stores compared below have different dictionaries).
fn baseline_answers(store: &TripleStore) -> Vec<Vec<BTreeSet<Vec<String>>>> {
    let engines: [Box<dyn QueryEngine + '_>; 3] = [
        Box::new(MonetDbStyle::new(store)),
        Box::new(Rdf3xStyle::new(store)),
        Box::new(TripleBitStyle::new(store)),
    ];
    let decode = |row: &[u32]| row.iter().map(|&id| store.dict().decode(id).to_string()).collect();
    let shapes = differential_shapes(store);
    engines
        .iter()
        .map(|e| shapes.iter().map(|q| e.execute(q).rows().map(decode).collect()).collect())
        .collect()
}

#[test]
fn pairwise_baselines_answer_the_logical_view_with_deltas() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % m) as u32
    };
    let mut edge = || {
        let p = if next(2) == 0 { "edge" } else { "link" };
        Triple::new(
            Term::iri(format!("n{}", next(12))),
            Term::iri(p),
            Term::iri(format!("n{}", next(12))),
        )
    };
    let base: Vec<Triple> = (0..90).map(|_| edge()).collect();
    let inserts: Vec<Triple> = (0..25).map(|_| edge()).collect();
    let mut staged = TripleStore::from_triples(base.clone());
    staged.stage_add_triples(inserts);
    staged.stage_remove_triples(base.iter().step_by(4).cloned());
    assert!(staged.has_deltas());
    let logical =
        TripleStore::from_triples(staged.encoded_triples().map(|t| staged.decode_triple(t)));
    let (got, expect) = (baseline_answers(&staged), baseline_answers(&logical));
    assert!(expect.iter().flatten().any(|rows| !rows.is_empty()), "vacuous");
    assert_eq!(got, expect, "a baseline read something other than the logical view");
}

#[test]
fn randomized_queries_all_engines_agree() {
    // Deterministic pseudo-random stores and queries (no rand dependency
    // drift): a small LCG drives shapes.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % m) as u32
    };
    for round in 0..12 {
        let preds = ["p0", "p1", "p2"];
        let mut triples = Vec::new();
        let n = 20 + next(40);
        for _ in 0..n {
            triples.push(Triple::new(
                Term::iri(format!("n{}", next(10))),
                Term::iri(preds[next(3) as usize]),
                Term::iri(format!("n{}", next(10))),
            ));
        }
        let store = TripleStore::from_triples(triples);
        let mut qb = QueryBuilder::new();
        let n_atoms = 1 + next(3);
        let mut named = Vec::new();
        let mut any_atom = false;
        for _ in 0..n_atoms {
            let pred_name = preds[next(3) as usize];
            let pred = store.resolve_iri(pred_name).unwrap_or(u32::MAX);
            // Each position: 1-in-4 chance of a constant, else a shared
            // named variable. Selection vars never enter the projection.
            let mut mk = |qb: &mut QueryBuilder| {
                if next(4) == 0 {
                    let c = store.resolve_iri(&format!("n{}", next(10)));
                    (qb.selection_var(c), false)
                } else {
                    let v = qb.var(&format!("v{}", next(3)));
                    (v, true)
                }
            };
            let (s, s_named) = mk(&mut qb);
            let (o, o_named) = mk(&mut qb);
            if s == o {
                continue; // builder rejects repeated vars in an atom
            }
            qb.atom(pred_name, pred, s, o);
            any_atom = true;
            if s_named {
                named.push(s);
            }
            if o_named {
                named.push(o);
            }
        }
        if !any_atom || named.is_empty() {
            continue;
        }
        named.sort_unstable();
        named.dedup();
        let q = qb.select(named).build().expect("generated query is valid");
        check_all_engines(&store, &q, &format!("random round {round}"));
    }
}
