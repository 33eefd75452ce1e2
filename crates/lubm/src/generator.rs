//! The LUBM data generator (UBA profile), streaming triples to a sink.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eh_rdf::{Term, Triple, TripleStore};

use crate::config::GeneratorConfig;
use crate::ontology::{class_iri, pred_iri, rdf_type, Class, Predicate};

/// Entity counts produced by a generator run (useful for tests and for
/// sanity-checking query cardinalities).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneratedCounts {
    /// Universities (= the configured scale).
    pub universities: u64,
    /// Departments across all universities.
    pub departments: u64,
    /// All faculty (professors + lecturers).
    pub faculty: u64,
    /// Full professors.
    pub full_professors: u64,
    /// Associate professors.
    pub associate_professors: u64,
    /// Assistant professors.
    pub assistant_professors: u64,
    /// Lecturers.
    pub lecturers: u64,
    /// Undergraduate students.
    pub undergrad_students: u64,
    /// Graduate students.
    pub grad_students: u64,
    /// Undergraduate courses.
    pub courses: u64,
    /// Graduate courses.
    pub graduate_courses: u64,
    /// Publications.
    pub publications: u64,
    /// Research groups.
    pub research_groups: u64,
    /// Total triples emitted (including duplicates the store collapses).
    pub triples: u64,
}

/// IRI of university `u`.
pub fn university_iri(u: u32) -> String {
    format!("http://www.University{u}.edu")
}

/// IRI of department `d` of university `u`.
pub fn department_iri(u: u32, d: u32) -> String {
    format!("http://www.Department{d}.University{u}.edu")
}

fn mix_seed(seed: u64, u: u32, d: u32) -> u64 {
    // SplitMix64-style mixing keeps per-department streams independent.
    let mut z = seed
        ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (d as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn range(rng: &mut StdRng, (lo, hi): (u32, u32)) -> u32 {
    rng.gen_range(lo..=hi)
}

struct Emitter<'a, F: FnMut(Triple)> {
    sink: &'a mut F,
    counts: GeneratedCounts,
}

impl<F: FnMut(Triple)> Emitter<'_, F> {
    fn triple(&mut self, s: &str, p: String, o: Term) {
        self.counts.triples += 1;
        (self.sink)(Triple::new(Term::iri(s), Term::Iri(p), o));
    }

    fn type_of(&mut self, entity: &str, class: Class) {
        self.triple(entity, rdf_type(), Term::Iri(class_iri(class)));
    }

    fn rel(&mut self, s: &str, p: Predicate, o: &str) {
        self.triple(s, pred_iri(p), Term::iri(o));
    }

    fn lit(&mut self, s: &str, p: Predicate, o: String) {
        self.triple(s, pred_iri(p), Term::Literal(o));
    }

    /// name / emailAddress / telephone for a person, UBA-style.
    fn person_attrs(&mut self, iri: &str, local: &str, host: &str) {
        self.lit(iri, Predicate::Name, local.to_string());
        self.lit(iri, Predicate::EmailAddress, format!("{local}@{host}"));
        // UBA emits the literal placeholder "xxx-xxx-xxxx" for every phone.
        self.lit(iri, Predicate::Telephone, "xxx-xxx-xxxx".to_string());
    }
}

/// Sample `k` distinct values in `0..n` (all of `0..n` when `k >= n`).
fn sample_distinct(rng: &mut StdRng, n: u32, k: u32) -> Vec<u32> {
    if k >= n {
        return (0..n).collect();
    }
    rand::seq::index::sample(rng, n as usize, k as usize).iter().map(|i| i as u32).collect()
}

/// Generate the dataset, streaming every triple to `sink`. Returns entity
/// counts. Deterministic in `cfg` (including the seed).
pub fn generate_with<F: FnMut(Triple)>(cfg: &GeneratorConfig, sink: &mut F) -> GeneratedCounts {
    let mut em = Emitter { sink, counts: GeneratedCounts::default() };
    em.counts.universities = cfg.universities as u64;

    for u in 0..cfg.universities {
        let univ = university_iri(u);
        em.type_of(&univ, Class::University);
        let n_depts =
            range(&mut StdRng::seed_from_u64(mix_seed(cfg.seed, u, u32::MAX)), cfg.depts_per_univ);
        for d in 0..n_depts {
            generate_department(cfg, u, d, &mut em);
        }
    }
    em.counts
}

fn generate_department<F: FnMut(Triple)>(
    cfg: &GeneratorConfig,
    u: u32,
    d: u32,
    em: &mut Emitter<'_, F>,
) {
    let mut rng = StdRng::seed_from_u64(mix_seed(cfg.seed, u, d));
    let dept = department_iri(u, d);
    let host = format!("Department{d}.University{u}.edu");
    em.counts.departments += 1;
    em.type_of(&dept, Class::Department);
    em.rel(&dept, Predicate::SubOrganizationOf, &university_iri(u));

    // Research groups.
    let n_groups = range(&mut rng, cfg.research_groups);
    for g in 0..n_groups {
        let rg = format!("{dept}/ResearchGroup{g}");
        em.counts.research_groups += 1;
        em.type_of(&rg, Class::ResearchGroup);
        em.rel(&rg, Predicate::SubOrganizationOf, &dept);
    }

    // Faculty rosters.
    let n_full = range(&mut rng, cfg.full_profs);
    let n_assoc = range(&mut rng, cfg.assoc_profs);
    let n_asst = range(&mut rng, cfg.asst_profs);
    let n_lect = range(&mut rng, cfg.lecturers);
    em.counts.full_professors += n_full as u64;
    em.counts.associate_professors += n_assoc as u64;
    em.counts.assistant_professors += n_asst as u64;
    em.counts.lecturers += n_lect as u64;
    let n_faculty = n_full + n_assoc + n_asst + n_lect;
    em.counts.faculty += n_faculty as u64;

    let roster: Vec<(Class, u32, (u32, u32))> = vec![
        (Class::FullProfessor, n_full, cfg.pubs_full),
        (Class::AssociateProfessor, n_assoc, cfg.pubs_assoc),
        (Class::AssistantProfessor, n_asst, cfg.pubs_asst),
        (Class::Lecturer, n_lect, cfg.pubs_lect),
    ];

    // Courses are numbered department-wide; each faculty member teaches a
    // fresh block of course ids (UBA assigns courses uniquely).
    let mut course_count = 0u32;
    let mut gcourse_count = 0u32;
    // Professors (non-lecturers) are eligible advisors.
    let mut professors: Vec<String> = Vec::new();

    for (class, n, pubs) in &roster {
        for k in 0..*n {
            let person = format!("{dept}/{}{k}", class.local_name());
            em.type_of(&person, *class);
            em.rel(&person, Predicate::WorksFor, &dept);
            em.person_attrs(&person, &format!("{}{k}", class.local_name()), &host);
            // Degrees from random universities.
            for p in [
                Predicate::UndergraduateDegreeFrom,
                Predicate::MastersDegreeFrom,
                Predicate::DoctoralDegreeFrom,
            ] {
                let from = rng.gen_range(0..cfg.universities.max(1));
                em.rel(&person, p, &university_iri(from));
            }
            // Head of department: the first full professor.
            if *class == Class::FullProfessor && k == 0 {
                em.rel(&person, Predicate::HeadOf, &dept);
            }
            if *class != Class::Lecturer {
                professors.push(person.clone());
            }
            // Courses taught.
            for _ in 0..range(&mut rng, cfg.courses_per_faculty) {
                let course = format!("{dept}/Course{course_count}");
                course_count += 1;
                em.type_of(&course, Class::Course);
                em.rel(&person, Predicate::TeacherOf, &course);
            }
            for _ in 0..range(&mut rng, cfg.gcourses_per_faculty) {
                let course = format!("{dept}/GraduateCourse{gcourse_count}");
                gcourse_count += 1;
                em.type_of(&course, Class::GraduateCourse);
                em.rel(&person, Predicate::TeacherOf, &course);
            }
            // Publications.
            for i in 0..range(&mut rng, *pubs) {
                let publication = format!("{person}/Publication{i}");
                em.counts.publications += 1;
                em.type_of(&publication, Class::Publication);
                em.rel(&publication, Predicate::PublicationAuthor, &person);
            }
        }
    }
    em.counts.courses += course_count as u64;
    em.counts.graduate_courses += gcourse_count as u64;

    // Students.
    let n_undergrad = n_faculty * range(&mut rng, cfg.undergrad_ratio);
    let n_grad = n_faculty * range(&mut rng, cfg.grad_ratio);
    em.counts.undergrad_students += n_undergrad as u64;
    em.counts.grad_students += n_grad as u64;

    for k in 0..n_undergrad {
        let stu = format!("{dept}/UndergraduateStudent{k}");
        em.type_of(&stu, Class::UndergraduateStudent);
        em.rel(&stu, Predicate::MemberOf, &dept);
        em.person_attrs(&stu, &format!("UndergraduateStudent{k}"), &host);
        let k_courses = range(&mut rng, cfg.undergrad_courses_taken);
        for c in sample_distinct(&mut rng, course_count, k_courses) {
            em.rel(&stu, Predicate::TakesCourse, &format!("{dept}/Course{c}"));
        }
        // One in `undergrad_advisor_fraction` undergraduates has an advisor.
        if !professors.is_empty() && rng.gen_range(0..cfg.undergrad_advisor_fraction) == 0 {
            let adv = &professors[rng.gen_range(0..professors.len())];
            em.rel(&stu, Predicate::Advisor, adv);
        }
    }

    for k in 0..n_grad {
        let stu = format!("{dept}/GraduateStudent{k}");
        em.type_of(&stu, Class::GraduateStudent);
        em.rel(&stu, Predicate::MemberOf, &dept);
        em.person_attrs(&stu, &format!("GraduateStudent{k}"), &host);
        let from = rng.gen_range(0..cfg.universities.max(1));
        em.rel(&stu, Predicate::UndergraduateDegreeFrom, &university_iri(from));
        let k_courses = range(&mut rng, cfg.grad_courses_taken);
        for c in sample_distinct(&mut rng, gcourse_count, k_courses) {
            em.rel(&stu, Predicate::TakesCourse, &format!("{dept}/GraduateCourse{c}"));
        }
        // Every graduate student has an advisor; publications are
        // co-authored with the advisor.
        let advisor = professors.get(rng.gen_range(0..professors.len().max(1))).cloned();
        if let Some(adv) = &advisor {
            em.rel(&stu, Predicate::Advisor, adv);
        }
        for i in 0..range(&mut rng, cfg.pubs_grad) {
            let publication = format!("{stu}/Publication{i}");
            em.counts.publications += 1;
            em.type_of(&publication, Class::Publication);
            em.rel(&publication, Predicate::PublicationAuthor, &stu);
            if let Some(adv) = &advisor {
                em.rel(&publication, Predicate::PublicationAuthor, adv);
            }
        }
    }
}

/// Generate directly into a committed [`TripleStore`].
pub fn generate_store(cfg: &GeneratorConfig) -> TripleStore {
    let mut store = TripleStore::new();
    generate_with(cfg, &mut |t| store.insert(t));
    store.commit();
    store
}

/// Generate into a vector (prefer [`generate_store`] at larger scales; the
/// vector holds three owned strings per triple).
pub fn generate_triples(cfg: &GeneratorConfig) -> Vec<Triple> {
    let mut out = Vec::new();
    generate_with(cfg, &mut |t| out.push(t));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::{Class, Predicate};

    fn tiny() -> GeneratorConfig {
        GeneratorConfig::tiny(2)
    }

    #[test]
    fn deterministic_across_runs() {
        let a = generate_triples(&tiny());
        let b = generate_triples(&tiny());
        assert_eq!(a, b);
        let c = generate_triples(&tiny().with_seed(7));
        assert_ne!(a, c);
    }

    #[test]
    fn counts_are_consistent() {
        let mut n = 0u64;
        let counts = generate_with(&tiny(), &mut |_| n += 1);
        assert_eq!(counts.triples, n);
        assert_eq!(counts.universities, 2);
        assert!(counts.departments >= 6 && counts.departments <= 8, "{counts:?}");
        assert_eq!(
            counts.faculty,
            counts.full_professors
                + counts.associate_professors
                + counts.assistant_professors
                + counts.lecturers
        );
        assert!(counts.grad_students > 0);
        assert!(counts.undergrad_students > counts.grad_students);
    }

    #[test]
    fn store_has_expected_tables() {
        let store = generate_store(&tiny());
        for p in [
            Predicate::WorksFor,
            Predicate::MemberOf,
            Predicate::SubOrganizationOf,
            Predicate::TakesCourse,
            Predicate::TeacherOf,
            Predicate::Advisor,
            Predicate::PublicationAuthor,
            Predicate::UndergraduateDegreeFrom,
            Predicate::Name,
            Predicate::EmailAddress,
            Predicate::Telephone,
            Predicate::HeadOf,
        ] {
            assert!(store.pred_card(&pred_iri(p)).is_some(), "missing relation for {p:?}");
        }
        assert!(store.pred_card(&rdf_type()).is_some());
    }

    /// The base relation of a predicate IRI.
    fn relation<'a>(store: &'a TripleStore, iri: &str) -> &'a eh_rdf::TriePair {
        store.trie_pair(store.resolve_iri(iri).unwrap()).unwrap()
    }

    /// The subjects with `(subject, o)` in `rel`, ascending.
    fn subjects_of(rel: &eh_rdf::TriePair, o: u32) -> Vec<u32> {
        rel.os().child(0, 0, o).map_or_else(Vec::new, |block| rel.os().set(1, block).to_vec())
    }

    #[test]
    fn type_table_counts_match() {
        let store = generate_store(&tiny());
        let counts = generate_with(&tiny(), &mut |_| {});
        let types = store.pred_card(&rdf_type()).unwrap();
        let class_id = |c: Class| store.resolve_iri(&class_iri(c)).unwrap();
        let count_of = |c: Class| types.matches_for_object(class_id(c)) as u64;
        assert_eq!(count_of(Class::University), counts.universities);
        assert_eq!(count_of(Class::Department), counts.departments);
        assert_eq!(count_of(Class::UndergraduateStudent), counts.undergrad_students);
        assert_eq!(count_of(Class::GraduateStudent), counts.grad_students);
        assert_eq!(count_of(Class::Publication), counts.publications);
        assert_eq!(count_of(Class::ResearchGroup), counts.research_groups);
    }

    #[test]
    fn departments_supported_by_universities_only() {
        // subOrganizationOf maps departments to universities and research
        // groups to departments — never research groups to universities
        // (this is why paper query 11 returns 0 tuples without inference).
        let store = generate_store(&tiny());
        let sub = relation(&store, &pred_iri(Predicate::SubOrganizationOf));
        let univ0 = store.resolve_iri(&university_iri(0)).unwrap();
        let types = relation(&store, &rdf_type());
        let rg = store.resolve_iri(&class_iri(Class::ResearchGroup)).unwrap();
        let under = subjects_of(sub, univ0);
        assert!(!under.is_empty());
        for s in under {
            // Everything directly under University0 is a department.
            assert!(!types.contains(s, rg));
        }
    }

    #[test]
    fn grad_students_take_graduate_courses() {
        let store = generate_store(&tiny());
        let takes = relation(&store, &pred_iri(Predicate::TakesCourse));
        let types = relation(&store, &rdf_type());
        let grad = store.resolve_iri(&class_iri(Class::GraduateStudent)).unwrap();
        let gcourse = store.resolve_iri(&class_iri(Class::GraduateCourse)).unwrap();
        let mut checked = 0;
        for stu in subjects_of(types, grad) {
            let Some(block) = takes.so().child(0, 0, stu) else { continue };
            for course in takes.so().set(1, block).iter() {
                assert!(types.contains(course, gcourse));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn every_grad_student_has_an_advisor() {
        let store = generate_store(&tiny());
        let advisor = relation(&store, &pred_iri(Predicate::Advisor));
        let grad = store.resolve_iri(&class_iri(Class::GraduateStudent)).unwrap();
        for stu in subjects_of(relation(&store, &rdf_type()), grad) {
            assert!(advisor.so().fanout(stu) > 0, "grad student without advisor");
        }
    }

    #[test]
    fn ntriples_export_round_trips() {
        // The `lubm-gen` export path: every generated triple serialises
        // to N-Triples and parses back unchanged.
        let triples = generate_triples(&GeneratorConfig::tiny(1));
        let text = eh_rdf::write_ntriples(&triples);
        let parsed = eh_rdf::parse_ntriples(&text).expect("generator output is valid N-Triples");
        assert_eq!(parsed, triples);
    }

    #[test]
    fn scale_one_profile_size() {
        // LUBM(1) with the published profile is ~100k triples; allow a
        // generous band since our profile is a faithful re-derivation, not
        // a byte-level port.
        let counts = generate_with(&GeneratorConfig::scale(1), &mut |_| {});
        assert!(counts.triples > 60_000, "{}", counts.triples);
        assert!(counts.triples < 250_000, "{}", counts.triples);
        assert!(counts.departments >= 15 && counts.departments <= 25);
    }
}
