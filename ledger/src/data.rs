//! Seeded inputs: the LUBM stores, the skewed synthetic `edge` graph with
//! its graph-pattern shapes, and the request lists. Everything here is a
//! pure function of the seed, so the same seed gives byte-identical
//! inputs and the program under test only ever sees generated inputs.

use eh_lubm::queries::{lubm_sparql_scaled, QUERY_NUMBERS};
use eh_lubm::{generate_store, generate_with, pred_iri, GeneratorConfig, Predicate};
use eh_rdf::{Term, Triple, TripleStore};

use crate::trace::Tracer;

/// SplitMix64: small, seedable, and good enough to draw workloads from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Cumulative distribution over ranks `0..n` with weight
/// `1 / (rank + 1)^alpha`.
pub fn zipf_cdf(n: usize, alpha: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(alpha)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// One pass of `reads` requests over `classes` query classes, as class
/// ranks: every pass holds the same number of each rank — `reads` shared
/// out in proportion to the Zipf(1/rank) weights by largest remainder,
/// every rank at least once — and only their order is drawn from `rng`.
/// A pass is thus a stratified sample of the Zipfian stream: the work in
/// it, and where each percentile of its latencies falls, is the same for
/// every pass and every seed, which an independent draw per request does
/// not give (a rank-9 query is then absent from one pass in six).
pub fn zipf_pass(classes: usize, reads: usize, rng: &mut Rng) -> Vec<usize> {
    let cdf = zipf_cdf(classes, 1.0);
    let share =
        |rank: usize| (cdf[rank] - if rank == 0 { 0.0 } else { cdf[rank - 1] }) * reads as f64;
    let mut counts: Vec<usize> = (0..classes).map(|rank| share(rank) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..classes).collect();
    by_remainder.sort_by(|&a, &b| share(b).fract().total_cmp(&share(a).fract()));
    let left = reads - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..left] {
        counts[rank] += 1;
    }
    assert!(counts.iter().all(|&c| c > 0), "{reads} reads leave a rank of {classes} out");
    let mut pass: Vec<usize> =
        counts.iter().enumerate().flat_map(|(rank, &c)| std::iter::repeat_n(rank, c)).collect();
    for i in (1..pass.len()).rev() {
        pass.swap(i, rng.below(i + 1));
    }
    pass
}

/// Generate and load a LUBM store the way a user would: streamed straight
/// into the store, so the `rdf.load` span covers generation too. A traced
/// run first times generation alone into a discarding sink
/// (`lubm.generate`); the harness reports load as the difference.
pub fn load_lubm(cfg: &GeneratorConfig, tr: &mut Tracer) -> TripleStore {
    if tr.is_on() {
        tr.span("lubm.generate", 0, || {
            generate_with(cfg, &mut |t| {
                std::hint::black_box(t);
            })
        });
    }
    tr.span("rdf.load", 0, || generate_store(cfg))
}

const PREFIXES: &str = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
                        PREFIX ub: <http://www.lehigh.edu/~zhp2/2004/0401/univ-bench.owl#> ";

/// The wire protocol carries one request per line.
fn one_line(sparql: &str) -> String {
    sparql.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// LUBM query `n` as one line (query 13's constant is `University0`,
/// which exists at every scale used here).
pub fn lubm_text(n: u32) -> String {
    one_line(&lubm_sparql_scaled(n, 0).expect("a query number of the paper's workload"))
}

/// The paper's twelve-query workload, in Table II order.
pub fn lubm_mix() -> Vec<String> {
    QUERY_NUMBERS.iter().map(|&n| lubm_text(n)).collect()
}

/// The five emission-bound queries of `emit_request`: LUBM 8, 13, 14, a
/// query-6-style scan of every graduate student, and the unselective
/// two-hop `takesCourse ⋈ teacherOf` path.
pub fn emit_queries() -> Vec<(&'static str, String)> {
    vec![
        ("q8", lubm_text(8)),
        ("q13", lubm_text(13)),
        ("q14", lubm_text(14)),
        ("q6_style", format!("{PREFIXES}SELECT ?X WHERE {{ ?X rdf:type ub:GraduateStudent }}")),
        (
            "two_hop",
            format!(
                "{PREFIXES}SELECT ?X ?Y ?Z WHERE {{ ?X ub:takesCourse ?Y . ?Z ub:teacherOf ?Y }}"
            ),
        ),
    ]
}

/// One selective LUBM template: the query text around a constant drawn
/// per request from the instances of `class`.
pub struct Template {
    pub query: u32,
    pub class: &'static str,
    default_constant: &'static str,
}

/// LUBM 1, 3, 4, 5, 7, 11 and 12, each with the class its constant is
/// drawn from.
pub const SELECTIVE_TEMPLATES: [Template; 7] = [
    Template {
        query: 1,
        class: "GraduateCourse",
        default_constant: "http://www.Department0.University0.edu/GraduateCourse0",
    },
    Template {
        query: 3,
        class: "AssistantProfessor",
        default_constant: "http://www.Department0.University0.edu/AssistantProfessor0",
    },
    Template {
        query: 4,
        class: "Department",
        default_constant: "http://www.Department0.University0.edu",
    },
    Template {
        query: 5,
        class: "Department",
        default_constant: "http://www.Department0.University0.edu",
    },
    Template {
        query: 7,
        class: "AssociateProfessor",
        default_constant: "http://www.Department0.University0.edu/AssociateProfessor0",
    },
    Template { query: 11, class: "University", default_constant: "http://www.University0.edu" },
    Template { query: 12, class: "University", default_constant: "http://www.University0.edu" },
];

impl Template {
    pub fn with_constant(&self, iri: &str) -> String {
        let text = lubm_text(self.query);
        let needle = format!("<{}>", self.default_constant);
        assert!(text.contains(&needle), "query {} lost its constant", self.query);
        text.replace(&needle, &format!("<{iri}>"))
    }
}

/// The query that lists the instances a template's constant is drawn from.
pub fn instances_query(class: &str) -> String {
    format!("{PREFIXES}SELECT ?X WHERE {{ ?X rdf:type ub:{class} }}")
}

/// `count` selective requests: templates round-robin, each constant drawn
/// from `pools[template]`.
pub fn selective_requests(seed: u64, pools: &[Vec<String>], count: usize) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5e1e_c71f);
    (0..count)
        .map(|i| {
            let t = i % SELECTIVE_TEMPLATES.len();
            let pool = &pools[t];
            assert!(!pool.is_empty(), "no {} instance to draw", SELECTIVE_TEMPLATES[t].class);
            SELECTIVE_TEMPLATES[t].with_constant(&pool[rng.below(pool.len())])
        })
        .collect()
}

pub const EDGE_IRI: &str = "http://bench.local/edge";

/// Size of the synthetic graph. Tuned on the seed commit so each shape
/// below takes 5–50 ms with the generic join while the pairwise oracle
/// still finishes in about a second.
pub struct GraphSize {
    pub nodes: usize,
    pub edges: usize,
}

impl GraphSize {
    pub const FULL: GraphSize = GraphSize { nodes: 8_000, edges: 40_000 };
    pub const SMOKE: GraphSize = GraphSize { nodes: 400, edges: 1_500 };
}

/// A skewed undirected graph stored as `lo edge hi` triples: a path
/// through every node (so node ids follow node rank and hubs' neighbour
/// sets are dense id ranges — bitset layouts) plus a configuration-model
/// pairing of edge stubs. Each node's stub count is fixed by its
/// Zipf(0.6) weight (low ranks are hubs) and only the pairing is drawn
/// from the seed, so pattern counts — and with them the work per query —
/// move by a few percent between seeds, not by tens.
pub fn edge_list(seed: u64, size: &GraphSize) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed ^ 0xed9e_6a9f);
    let cdf = zipf_cdf(size.nodes, 0.6);
    let mut stubs: Vec<u32> = Vec::with_capacity(2 * size.edges + size.nodes);
    let mut below = 0.0;
    for (node, upto) in cdf.iter().enumerate() {
        let count = ((upto - below) * 2.0 * size.edges as f64).round() as usize;
        stubs.extend(std::iter::repeat_n(node as u32, count));
        below = *upto;
    }
    for i in (1..stubs.len()).rev() {
        stubs.swap(i, rng.below(i + 1));
    }
    let mut edges: Vec<(u32, u32)> = stubs
        .chunks_exact(2)
        .filter(|pair| pair[0] != pair[1])
        .map(|pair| (pair[0].min(pair[1]), pair[0].max(pair[1])))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    let mut all: Vec<(u32, u32)> = (0..size.nodes as u32 - 1).map(|i| (i, i + 1)).collect();
    all.extend(edges);
    all
}

pub fn edge_triples(edges: &[(u32, u32)]) -> impl Iterator<Item = Triple> + '_ {
    let node = |i: u32| Term::iri(format!("http://bench.local/n{i}"));
    edges.iter().map(move |&(a, b)| Triple::new(node(a), Term::iri(EDGE_IRI), node(b)))
}

pub fn edge_store(edges: &[(u32, u32)]) -> TripleStore {
    let mut store = TripleStore::new();
    for t in edge_triples(edges) {
        store.insert(t);
    }
    store.commit();
    store
}

/// The graph-pattern shapes of Nguyen et al. where worst-case optimal and
/// pairwise plans diverge, over the `edge` relation.
pub const SHAPES: [(&str, &[(&str, &str)]); 5] = [
    ("triangle", &[("a", "b"), ("b", "c"), ("a", "c")]),
    ("clique4", &[("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]),
    ("cycle4", &[("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]),
    ("lollipop", &[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]),
    ("diamond", &[("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")]),
];

pub fn shape_sparql(pattern: &[(&str, &str)]) -> String {
    let mut vars: Vec<&str> = pattern.iter().flat_map(|&(a, b)| [a, b]).collect();
    vars.sort_unstable();
    vars.dedup();
    let select: Vec<String> = vars.iter().map(|v| format!("?{v}")).collect();
    let atoms: Vec<String> =
        pattern.iter().map(|(a, b)| format!("?{a} <{EDGE_IRI}> ?{b}")).collect();
    format!("SELECT {} WHERE {{ {} }}", select.join(" "), atoms.join(" . "))
}

/// One 64-triple write of `serving_mix`: fresh subjects on a bench-local
/// predicate, so the epoch moves and both caches empty while every LUBM
/// answer stays byte-identical.
pub fn touch_lines(session: usize, write: u64) -> Vec<String> {
    (0..64)
        .map(|i| {
            format!(
                "INSERT <http://bench.local/s{session}-{write}-{i}> <http://bench.local/touched> \
                 <http://bench.local/o{i}> ."
            )
        })
        .collect()
}

/// The write stream of `update_read` and `cold_open`: synthetic students
/// (never typed, so no LUBM answer changes) who take a real course, have a
/// real advisor and join a real department.
pub struct UpdateStream {
    pub seed: u64,
    pub courses: Vec<String>,
    pub professors: Vec<String>,
    pub departments: Vec<String>,
}

/// Students per batch: 16 × 3 = 48 inserts, plus 16 deletes.
const BATCH_STUDENTS: u64 = 16;

impl UpdateStream {
    /// Student `j`'s three triples: takesCourse, advisor, memberOf.
    fn student(&self, j: u64) -> [Triple; 3] {
        let mut rng = Rng::new(self.seed ^ j.wrapping_mul(0xA24B_AED4_963E_E407));
        let s = || Term::iri(format!("http://bench.local/student{j}"));
        let mut link = |p: Predicate, pool: &[String]| {
            Triple::new(s(), Term::Iri(pred_iri(p)), Term::iri(pool[rng.below(pool.len())].clone()))
        };
        [
            link(Predicate::TakesCourse, &self.courses),
            link(Predicate::Advisor, &self.professors),
            link(Predicate::MemberOf, &self.departments),
        ]
    }

    /// Batch `k`: 48 inserts (16 new students) and, after the first, 16
    /// deletes — one triple of each student of the batch before, the
    /// predicate rotating with the student number.
    pub fn batch(&self, k: u64) -> (Vec<Triple>, Vec<Triple>) {
        let students = |k: u64| k * BATCH_STUDENTS..(k + 1) * BATCH_STUDENTS;
        let inserts = students(k).flat_map(|j| self.student(j)).collect();
        let deletes = match k.checked_sub(1) {
            Some(before) => students(before).map(|j| self.deleted_of(j)).collect(),
            None => Vec::new(),
        };
        (inserts, deletes)
    }

    fn deleted_of(&self, j: u64) -> Triple {
        let [a, b, c] = self.student(j);
        [a, b, c].into_iter().nth((j % 3) as usize).expect("three triples per student")
    }

    /// The synthetic triples alive after batches `0..applied`: the model
    /// the engine's store is compared to.
    pub fn live(&self, applied: u64) -> Vec<Triple> {
        let mut out = Vec::new();
        for j in 0..applied * BATCH_STUDENTS {
            let deleted = (j / BATCH_STUDENTS + 1 < applied).then(|| self.deleted_of(j));
            out.extend(self.student(j).into_iter().filter(|t| Some(t) != deleted.as_ref()));
        }
        out
    }

    /// A query whose answer the synthetic students change: everyone in
    /// the stream's first department with a course and an advisor.
    pub fn probe_query(&self) -> String {
        format!(
            "{PREFIXES}SELECT ?S ?C ?P WHERE {{ ?S ub:takesCourse ?C . ?S ub:advisor ?P . \
             ?S ub:memberOf <{}> }}",
            self.departments[0]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eh_lubm::generate_triples;

    #[test]
    fn update_batches_are_48_in_16_out_and_the_model_follows() {
        let pool = |tag: &str| (0..9).map(|i| format!("http://x/{tag}{i}")).collect::<Vec<_>>();
        let stream = UpdateStream {
            seed: 5,
            courses: pool("c"),
            professors: pool("p"),
            departments: pool("d"),
        };
        let mut model = std::collections::BTreeSet::new();
        for k in 0..4 {
            let (inserts, deletes) = stream.batch(k);
            assert_eq!(inserts.len(), 48);
            assert_eq!(deletes.len(), if k == 0 { 0 } else { 16 });
            for t in deletes {
                assert!(model.remove(&format!("{t:?}")), "deletes hit earlier inserts");
            }
            model.extend(inserts.iter().map(|t| format!("{t:?}")));
            let live: std::collections::BTreeSet<String> =
                stream.live(k + 1).iter().map(|t| format!("{t:?}")).collect();
            assert_eq!(live, model, "after batch {k}");
        }
        assert_eq!(stream.batch(2), stream.batch(2));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let g = |seed| edge_list(seed, &GraphSize::SMOKE);
        assert_eq!(g(42), g(42));
        assert_ne!(g(42), g(43));

        let pools: Vec<Vec<String>> =
            (0..7).map(|t| (0..50).map(|i| format!("http://x/{t}/{i}")).collect()).collect();
        let r = |seed| selective_requests(seed, &pools, 70).join("\n");
        assert_eq!(r(42), r(42));
        assert_ne!(r(42), r(43));

        let lubm = |seed| generate_triples(&GeneratorConfig::tiny(1).with_seed(seed));
        assert_eq!(lubm(42), lubm(42));
        assert_ne!(lubm(42), lubm(43));
    }

    #[test]
    fn graph_is_simple_oriented_and_skewed() {
        let size = GraphSize::SMOKE;
        let edges = edge_list(7, &size);
        assert!(edges.iter().all(|&(a, b)| a < b && (b as usize) < size.nodes));
        let mut degree = vec![0usize; size.nodes];
        for &(a, b) in &edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let head: usize = degree[..size.nodes / 10].iter().sum();
        let tail: usize = degree[size.nodes - size.nodes / 10..].iter().sum();
        assert!(head > 3 * tail, "low ranks are hubs: {head} vs {tail}");
    }

    #[test]
    fn requests_are_single_lines_that_parse() {
        let store = eh_lubm::generate_store(&GeneratorConfig::tiny(1));
        let mut texts = lubm_mix();
        texts.extend(emit_queries().into_iter().map(|(_, q)| q));
        texts.extend(SELECTIVE_TEMPLATES.iter().map(|t| t.with_constant("http://x/y")));
        texts.extend(SELECTIVE_TEMPLATES.iter().map(|t| instances_query(t.class)));
        for text in &texts {
            assert!(!text.contains('\n'));
            eh_query::parse_sparql(text, &store).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
        let graph = edge_store(&edge_list(1, &GraphSize::SMOKE));
        for (name, pattern) in SHAPES {
            let q = eh_query::parse_sparql(&shape_sparql(pattern), &graph);
            assert!(q.is_ok(), "{name}");
        }
        assert_eq!(touch_lines(0, 0).len(), 64);
        assert_ne!(touch_lines(0, 1), touch_lines(1, 1));
    }

    #[test]
    fn zipf_passes_hold_the_same_ranks_in_a_seeded_order() {
        let pass = |seed| zipf_pass(12, 49, &mut Rng::new(seed));
        let counts = |pass: &[usize]| {
            let mut counts = [0usize; 12];
            for &rank in pass {
                counts[rank] += 1;
            }
            counts
        };
        assert_eq!(counts(&pass(3)), [16, 8, 5, 4, 3, 3, 2, 2, 2, 2, 1, 1]);
        assert_eq!(counts(&pass(3)), counts(&pass(4)));
        assert_eq!(pass(3), pass(3));
        assert_ne!(pass(3), pass(4));
    }
}
