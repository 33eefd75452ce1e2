//! Golden-result tests for the LUBM workload: at the fixed generator
//! profile `GeneratorConfig::tiny(1)` (seed 42), every query's row count
//! and first rows (lexicographically smallest, dictionary-decoded) are
//! pinned as literals. A planner or executor regression now changes a
//! constant in this file instead of passing silently — and because the
//! generator is deterministic, a *generator* change shows up here too.
//!
//! Query 11 legitimately answers 0 rows at this scale: without the
//! benchmark's inference step, research groups are `subOrganizationOf`
//! their department, never directly of `University0`.

use wcoj_rdf::emptyheaded::{Engine, OptFlags, PlannerConfig, SharedStore};
use wcoj_rdf::lubm::queries::{lubm_query, QUERY_NUMBERS};
use wcoj_rdf::lubm::{generate_store, GeneratorConfig};

/// `(query number, row count, first ≤2 sorted rows as "t1 | t2 | ...")`.
const GOLDEN: &[(u32, usize, &[&str])] = &[
    (1, 3, &[
        "http://www.Department0.University0.edu/GraduateStudent1",
        "http://www.Department0.University0.edu/GraduateStudent10",
    ]),
    (2, 82, &[
        "http://www.Department0.University0.edu/GraduateStudent0 | http://www.University0.edu | http://www.Department0.University0.edu",
        "http://www.Department0.University0.edu/GraduateStudent1 | http://www.University0.edu | http://www.Department0.University0.edu",
    ]),
    (3, 3, &[
        "http://www.Department0.University0.edu/AssistantProfessor0/Publication0",
        "http://www.Department0.University0.edu/GraduateStudent12/Publication0",
    ]),
    (4, 3, &[
        "http://www.Department0.University0.edu/AssociateProfessor0 | AssociateProfessor0 | AssociateProfessor0@Department0.University0.edu | xxx-xxx-xxxx",
        "http://www.Department0.University0.edu/AssociateProfessor1 | AssociateProfessor1 | AssociateProfessor1@Department0.University0.edu | xxx-xxx-xxxx",
    ]),
    (5, 40, &[
        "http://www.Department0.University0.edu/UndergraduateStudent0",
        "http://www.Department0.University0.edu/UndergraduateStudent1",
    ]),
    (7, 21, &[
        "http://www.Department0.University0.edu/UndergraduateStudent0 | http://www.Department0.University0.edu/Course5",
        "http://www.Department0.University0.edu/UndergraduateStudent2 | http://www.Department0.University0.edu/Course4",
    ]),
    (8, 184, &[
        "http://www.Department0.University0.edu/UndergraduateStudent0 | http://www.Department0.University0.edu | UndergraduateStudent0@Department0.University0.edu",
        "http://www.Department0.University0.edu/UndergraduateStudent1 | http://www.Department0.University0.edu | UndergraduateStudent1@Department0.University0.edu",
    ]),
    (9, 2, &[
        "http://www.Department1.University0.edu/UndergraduateStudent28 | http://www.Department1.University0.edu/Course9 | http://www.Department1.University0.edu/AssistantProfessor1",
        "http://www.Department1.University0.edu/UndergraduateStudent37 | http://www.Department1.University0.edu/Course9 | http://www.Department1.University0.edu/AssistantProfessor1",
    ]),
    (11, 0, &[]),
    (12, 10, &[
        "http://www.Department0.University0.edu/FullProfessor0 | http://www.Department0.University0.edu",
        "http://www.Department0.University0.edu/FullProfessor1 | http://www.Department0.University0.edu",
    ]),
    (13, 82, &[
        "http://www.Department0.University0.edu/GraduateStudent0",
        "http://www.Department0.University0.edu/GraduateStudent1",
    ]),
    (14, 184, &[
        "http://www.Department0.University0.edu/UndergraduateStudent0",
        "http://www.Department0.University0.edu/UndergraduateStudent1",
    ]),
];

/// Sorted, decoded leading rows of a query's result.
fn head_rows(
    store: &wcoj_rdf::rdf::TripleStore,
    r: &wcoj_rdf::emptyheaded::QueryResult,
    k: usize,
) -> Vec<String> {
    let mut rows: Vec<Vec<u32>> = r.iter().map(|t| t.to_vec()).collect();
    rows.sort();
    rows.iter()
        .take(k)
        .map(|row| {
            row.iter()
                .map(|&id| store.dict().decode(id).as_str().to_string())
                .collect::<Vec<_>>()
                .join(" | ")
        })
        .collect()
}

#[test]
fn golden_covers_every_workload_query() {
    let covered: Vec<u32> = GOLDEN.iter().map(|&(n, _, _)| n).collect();
    assert_eq!(covered, QUERY_NUMBERS.to_vec());
}

#[test]
fn lubm_results_match_goldens() {
    let store = generate_store(&GeneratorConfig::tiny(1));
    let engine = Engine::new(SharedStore::new(store.clone()), OptFlags::all());
    for &(n, count, head) in GOLDEN {
        let q = lubm_query(n, &store).unwrap();
        let r = engine.run(&q).unwrap();
        assert_eq!(r.cardinality(), count, "query {n} cardinality drifted");
        assert_eq!(head_rows(&store, &r, 2), head, "query {n} leading rows drifted");
    }
}

#[test]
fn goldens_hold_under_every_profile() {
    // The same goldens must hold with optimizations off, single-node
    // plans, and the env-configured (possibly parallel) runtime: the
    // answer is a property of the query, not of the plan.
    let store = generate_store(&GeneratorConfig::tiny(1));
    let shared = SharedStore::new(store.clone());
    let configs = [
        PlannerConfig::with_flags(OptFlags::none()),
        PlannerConfig::logicblox_style(),
        PlannerConfig::with_flags(OptFlags::all())
            .with_runtime(wcoj_rdf::par::RuntimeConfig::from_env()),
    ];
    for config in configs {
        let engine = Engine::with_config(shared.clone(), config);
        for &(n, count, head) in GOLDEN {
            let q = lubm_query(n, &store).unwrap();
            let r = engine.run(&q).unwrap();
            assert_eq!(r.cardinality(), count, "query {n} under {config:?}");
            assert_eq!(head_rows(&store, &r, 2), head, "query {n} under {config:?}");
        }
    }
}
