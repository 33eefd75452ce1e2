//! End-to-end integration: LUBM generation → store → SPARQL → all five
//! engines agree on the full workload, and cardinalities satisfy the
//! ontology-level invariants the paper's Appendix B counts rely on.

use std::collections::BTreeSet;

use wcoj_rdf::baselines::{LogicBloxStyle, MonetDbStyle, QueryEngine, Rdf3xStyle, TripleBitStyle};
use wcoj_rdf::emptyheaded::{Engine, OptFlags};
use wcoj_rdf::lubm::queries::{lubm_query, QUERY_NUMBERS};
use wcoj_rdf::lubm::{
    class_iri, generate_store, generate_with, pred_iri, rdf_type, Class, GeneratorConfig, Predicate,
};
use wcoj_rdf::rdf::{TriePair, TripleStore};

fn rows(t: &wcoj_rdf::trie::TupleBuffer) -> BTreeSet<Vec<u32>> {
    t.rows().map(|r| r.to_vec()).collect()
}

/// The base relation of a predicate IRI: the store's two tries.
fn relation<'a>(store: &'a TripleStore, iri: &str) -> &'a TriePair {
    store.trie_pair(store.resolve_iri(iri).unwrap()).unwrap()
}

#[test]
fn full_workload_all_engines_agree() {
    let store = generate_store(&GeneratorConfig::tiny(2));
    let eh = Engine::new(store.clone(), OptFlags::all());
    let triplebit = TripleBitStyle::new(&store);
    let rdf3x = Rdf3xStyle::new(&store);
    let monetdb = MonetDbStyle::new(&store);
    let logicblox = LogicBloxStyle::new(&store);
    for n in QUERY_NUMBERS {
        let q = lubm_query(n, &store).unwrap();
        let reference = rows(eh.run(&q).unwrap().tuples());
        let engines: [&dyn QueryEngine; 4] = [&triplebit, &rdf3x, &monetdb, &logicblox];
        for e in engines {
            assert_eq!(
                rows(&e.execute(&q)),
                reference,
                "LUBM query {n}: {} disagrees with EmptyHeaded",
                e.name()
            );
        }
    }
}

#[test]
fn query_11_is_empty_without_inference() {
    // Paper Appendix B: query 11 returns 0 tuples because research groups
    // are subOrganizationOf departments, not universities, and the
    // inference step is removed.
    let store = generate_store(&GeneratorConfig::tiny(1));
    let engine = Engine::new(store.clone(), OptFlags::all());
    let q = lubm_query(11, &store).unwrap();
    assert_eq!(engine.run(&q).unwrap().cardinality(), 0);
}

#[test]
fn query_4_counts_department0_associate_professors() {
    let store = generate_store(&GeneratorConfig::tiny(1));
    let engine = Engine::new(store.clone(), OptFlags::all());
    let q = lubm_query(4, &store).unwrap();
    let result = engine.run(&q).unwrap();
    // Ground truth from the raw relations: associate professors working
    // for Department0.University0 (each contributes exactly one
    // name/email/telephone row).
    let works = relation(&store, &pred_iri(Predicate::WorksFor)).os();
    let types = relation(&store, &rdf_type());
    let dept0 = store.resolve_iri("http://www.Department0.University0.edu").unwrap();
    let assoc = store.resolve_iri(&class_iri(Class::AssociateProfessor)).unwrap();
    let staff = works.set(1, works.child(0, 0, dept0).unwrap());
    let expected = staff.iter().filter(|&s| types.contains(s, assoc)).count();
    assert!(expected > 0, "tiny profile still has associate professors");
    assert_eq!(result.cardinality(), expected);
}

#[test]
fn query_14_counts_every_undergraduate() {
    let store = generate_store(&GeneratorConfig::tiny(1));
    let counts = generate_with(&GeneratorConfig::tiny(1), &mut |_| {});
    let engine = Engine::new(store.clone(), OptFlags::all());
    let q = lubm_query(14, &store).unwrap();
    assert_eq!(engine.run(&q).unwrap().cardinality() as u64, counts.undergrad_students);
}

#[test]
fn query_2_triangle_members_are_consistent() {
    // Every (x, y, z) answer of query 2 satisfies all three triangle
    // edges and the three type constraints.
    let store = generate_store(&GeneratorConfig::tiny(2));
    let engine = Engine::new(store.clone(), OptFlags::all());
    let q = lubm_query(2, &store).unwrap();
    let result = engine.run(&q).unwrap();
    assert!(
        result.cardinality() > 0,
        "tiny(2) has triangle matches (degrees within 2 universities)"
    );
    let types = relation(&store, &rdf_type());
    let member = relation(&store, &pred_iri(Predicate::MemberOf));
    let suborg = relation(&store, &pred_iri(Predicate::SubOrganizationOf));
    let degree = relation(&store, &pred_iri(Predicate::UndergraduateDegreeFrom));
    let grad = store.resolve_iri(&class_iri(Class::GraduateStudent)).unwrap();
    let univ = store.resolve_iri(&class_iri(Class::University)).unwrap();
    let dept = store.resolve_iri(&class_iri(Class::Department)).unwrap();
    for row in result.iter() {
        let (x, y, z) = (row[0], row[1], row[2]);
        assert!(types.contains(x, grad));
        assert!(types.contains(y, univ));
        assert!(types.contains(z, dept));
        assert!(member.contains(x, z));
        assert!(suborg.contains(z, y));
        assert!(degree.contains(x, y));
    }
}

#[test]
fn scale_grows_monotonically() {
    let one = generate_store(&GeneratorConfig::tiny(1));
    let three = generate_store(&GeneratorConfig::tiny(3));
    assert!(three.num_triples() > one.num_triples() * 2);
    // University entities match the scale knob.
    let types = three.pred_card(&rdf_type()).unwrap();
    let univ = three.resolve_iri(&class_iri(Class::University)).unwrap();
    assert_eq!(types.matches_for_object(univ), 3);
}
