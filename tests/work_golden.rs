//! The work golden: the paper's experiment queries EQ1–EQ12 (EQ11 at one
//! to four hops; five hops alone would take several seconds in a debug
//! build) on the NG, SP and RF stores of a scale-0.005 fixture, the
//! `topk` benchmark ops T1–T7 and `lookup`'s point shapes P1–P3 on NG and
//! SP, and `mixed_rw`'s reads EQ1, EQ2, EQ5 and EQ10 on monolithic NG and
//! SP stores part-way through its write window, each checked against
//! `tests/work_golden.txt` for:
//! - its EXPLAIN text;
//! - every step's actual rows and loops, profiled at threads 1 and 2;
//! - its result count (a COUNT query's count, an ASK's 1 or 0, else its
//!   rows);
//! - its peak charged memory at threads 1.
//!
//! These are exact counts, so a change that moves a plan or the work a
//! plan does fails here, whatever the timings say. A change that means to
//! move them rewrites the file and explains the diff:
//!
//! ```sh
//! BLESS=1 cargo test --test work_golden
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use pgrdf::{LoadOptions, PgRdfModel, PgRdfStore, PgVocab};
use pgrdf_bench::{Eq, Fixture};
use sparql::{ExecObserver, ExecOptions, QueryResults};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/work_golden.txt");

const QUERIES: [Eq; 15] = [
    Eq::Eq1,
    Eq::Eq2,
    Eq::Eq3,
    Eq::Eq4,
    Eq::Eq5,
    Eq::Eq6,
    Eq::Eq7,
    Eq::Eq8,
    Eq::Eq9,
    Eq::Eq10,
    Eq::Eq11(1),
    Eq::Eq11(2),
    Eq::Eq11(3),
    Eq::Eq11(4),
    Eq::Eq12,
];

/// The `topk` benchmark ops T1–T7 as `(label, dataset, text)`: result
/// tails (LIMIT, ORDER BY, DISTINCT, GROUP BY) over the whole `follows`
/// relation. The texts are `pgbench/src/workload.rs`'s, copied because the
/// workspace cannot depend on the benchmark package.
fn topk(fixture: &Fixture, model: PgRdfModel) -> Vec<(String, String, String)> {
    let names = fixture
        .store(model)
        .partition_names()
        .expect("fixture stores are partitioned");
    let p = PgVocab::twitter().prefixes();
    let edge = match model {
        PgRdfModel::SP => names.edge_kv,
        _ => names.topology_edgekv,
    };
    let t7 = match model {
        PgRdfModel::NG => "GRAPH ?e { ?x r:follows ?y . ?e k:hasTag ?t }",
        _ => "?x ?e ?y . ?e rdfs:subPropertyOf r:follows . ?e k:hasTag ?t",
    };
    let topo = &names.topology;
    [
        (
            topo,
            "SELECT ?s ?o WHERE { ?s r:follows ?o } LIMIT 10".to_string(),
        ),
        (
            topo,
            "SELECT ?s ?o WHERE { ?s r:follows ?o } ORDER BY ?o ?s LIMIT 10".into(),
        ),
        (
            topo,
            "SELECT DISTINCT ?o WHERE { ?s r:follows ?o } LIMIT 100".into(),
        ),
        (
            &names.node_kv,
            "SELECT ?n ?t WHERE { ?n k:hasTag ?t } ORDER BY DESC(?t) ?n LIMIT 10".into(),
        ),
        (topo, "SELECT ?s ?o WHERE { ?s r:follows ?o }".into()),
        (
            topo,
            "SELECT ?o (COUNT(*) AS ?c) WHERE { ?s r:follows ?o } \
             GROUP BY ?o ORDER BY DESC(?c) ?o LIMIT 10"
                .into(),
        ),
        (
            &edge,
            format!("SELECT ?x ?y ?t WHERE {{ {t7} }} ORDER BY ?t ?x ?y LIMIT 10"),
        ),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (dataset, body))| (format!("T{}", i + 1), dataset.clone(), format!("{p}{body}")))
    .collect()
}

/// The `lookup` benchmark's point shapes P1–P3 as `(label, dataset, text)`,
/// from EQ11's start vertex `v` and its first `follows` target `o`: `v`'s
/// key-value pairs, its out-neighbours and whether `v` follows `o`. The
/// texts and datasets are `pgbench/src/workload.rs`'s, copied like `topk`'s.
fn lookup(fixture: &Fixture, model: PgRdfModel) -> Vec<(String, String, String)> {
    let store = fixture.store(model);
    let names = store
        .partition_names()
        .expect("fixture stores are partitioned");
    let vocab = PgVocab::twitter();
    let p = vocab.prefixes();
    let v = fixture.start_node;
    let o = fixture
        .graph
        .out_neighbors(v, Some("follows"))
        .next()
        .expect("the start vertex follows someone");
    let (s, o) = (vocab.vertex_iri(v), vocab.vertex_iri(o));
    [
        (names.node_kv, format!("SELECT ?k ?v WHERE {{ {s} ?k ?v }}")),
        (
            names.topology,
            format!("SELECT ?o WHERE {{ {s} r:follows ?o }}"),
        ),
        (store.dataset_name(), format!("ASK {{ {s} r:follows {o} }}")),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (dataset, body))| (format!("P{}", i + 1), dataset, format!("{p}{body}")))
    .collect()
}

/// The tag `mixed_rw` writes.
const WRITE_TAG: &str = "#pgbench";
/// Edges per `mixed_rw` write batch.
const BATCH: u64 = 16;
/// Live write batches: batch `i - WINDOW` is deleted when batch `i` goes in.
const WINDOW: usize = 32;

/// `mixed_rw`'s write window over a monolithic store: round `i` inserts
/// batch `i` of 16 edges tagged `#pgbench` and then deletes batch
/// `i - WINDOW`. The batch texts are `pgbench/src/workload.rs`'s, copied
/// like `topk`'s; new edges start at the graph's vertices that follow
/// someone, in ID order.
struct Writes {
    vocab: PgVocab,
    sources: Vec<u64>,
    vertex_base: u64,
    edge_base: u64,
}

impl Writes {
    fn new(fixture: &Fixture) -> Writes {
        let graph = &fixture.graph;
        let mut sources: Vec<u64> = graph
            .vertex_ids()
            .filter(|&v| graph.out_neighbors(v, Some("follows")).next().is_some())
            .collect();
        sources.sort_unstable();
        sources.truncate(64);
        let max_vertex = graph.vertex_ids().max().expect("vertices");
        let max_edge = graph.edges().map(|(id, _)| id).max().expect("edges");
        Writes {
            vocab: PgVocab::twitter(),
            sources,
            vertex_base: (max_vertex + 1).next_multiple_of(1_000_000),
            edge_base: (max_edge + 1).next_multiple_of(1_000_000),
        }
    }

    /// The `verb DATA` text of batch `b` in `model`'s multi-quad shape: the
    /// edge, two edge KVs, and the tag on the new endpoint.
    fn text(&self, verb: &str, b: usize, model: PgRdfModel) -> String {
        let vocab = &self.vocab;
        let mut body = String::new();
        for k in b as u64 * BATCH..(b as u64 + 1) * BATCH {
            let src = self.sources[k as usize % self.sources.len()];
            let e = vocab.edge_iri(self.edge_base + k).to_string();
            let src = vocab.vertex_iri(src).to_string();
            let dst = vocab.vertex_iri(self.vertex_base + k).to_string();
            let kvs = format!("{e} k:hasTag \"{WRITE_TAG}\" . {e} k:refs \"@w{b}\" .");
            match model {
                PgRdfModel::NG => {
                    write!(body, "GRAPH {e} {{ {src} r:follows {dst} . {kvs} }} ").unwrap()
                }
                _ => write!(
                    body,
                    "{src} {e} {dst} . {e} rdfs:subPropertyOf r:follows . \
                     {src} r:follows {dst} . {kvs} "
                )
                .unwrap(),
            }
            write!(body, "{dst} k:hasTag \"{WRITE_TAG}\" . ").unwrap();
        }
        format!("{}{verb} DATA {{ {body}}}", vocab.prefixes())
    }

    /// Runs rounds `rounds` of the window on `store`.
    fn apply(&self, store: &PgRdfStore, model: PgRdfModel, rounds: std::ops::Range<usize>) {
        for i in rounds {
            store
                .update(&self.text("INSERT", i, model))
                .expect("INSERT DATA");
            if let Some(old) = i.checked_sub(WINDOW) {
                store
                    .update(&self.text("DELETE", old, model))
                    .expect("DELETE DATA");
            }
        }
    }
}

/// `mixed_rw`'s reads on a monolithic store of the fixture's graph at two
/// points of the write window: after round 35, when both stores hold an
/// uncompacted delta with removed quads (the window's first rounds were
/// folded into the base before their deletes), and after round 51, when
/// the sixteen rounds between have been enough writes for at least two
/// more compactions of a 1,024-entry delta.
fn mixed_rw(fixture: &Fixture, model: PgRdfModel, out: &mut String) {
    let store = PgRdfStore::load_with(
        &fixture.graph,
        model,
        LoadOptions {
            vocab: PgVocab::twitter(),
            ..Default::default()
        },
    )
    .expect("monolithic load");
    let writes = Writes::new(fixture);
    let qs = store.queries();
    let reads = [
        (Eq::Eq1, qs.eq1(WRITE_TAG)),
        (Eq::Eq2, qs.eq2(WRITE_TAG)),
        (Eq::Eq5, qs.eq5(WRITE_TAG)),
        (Eq::Eq10, qs.eq10()),
    ];
    let mut done = 0;
    for last in [35, 51] {
        writes.apply(&store, model, done..last + 1);
        done = last + 1;
        for (eq, text) in &reads {
            let label = format!("{}@r{last}", eq.label(model));
            record(&store, &label, &store.dataset_name(), text, model, out);
        }
    }
}

/// One query's record: EXPLAIN, the step tallies per thread count, the
/// result count and the peak memory at threads 1.
fn record(
    store: &PgRdfStore,
    label: &str,
    dataset: &str,
    text: &str,
    model: PgRdfModel,
    out: &mut String,
) {
    let view = store.store().dataset(dataset).expect("dataset");
    let query = sparql::parse_query(text).expect("parse");
    let plan = sparql::compile(&view, &query).expect("compile");
    writeln!(out, "== {label} {model}").unwrap();
    for line in sparql::explain::render(&plan).lines() {
        writeln!(out, "  {line}").unwrap();
    }
    let mut peak = 0;
    let mut count = 0;
    for threads in [1, 2] {
        let observer = Arc::new(ExecObserver::new());
        let options = ExecOptions::threads(threads).with_observer(Arc::clone(&observer));
        let (results, profile) =
            sparql::execute_profiled(&view, &plan, options).expect("profiled execution");
        let tallies: Vec<String> = sparql::explain::step_profiles(&plan, &profile)
            .iter()
            .map(|s| format!("{}:{}/{}", s.ordinal, s.actual_rows, s.loops))
            .collect();
        writeln!(out, "steps@{threads} (rows/loops): {}", tallies.join(" ")).unwrap();
        if threads == 1 {
            peak = observer.peak_mem_bytes();
            count = match results {
                QueryResults::Solutions(s) => s.scalar_i64().map_or(s.len() as i64, |n| n),
                QueryResults::Boolean(b) => i64::from(b),
                other => panic!("expected solutions, got {other:?}"),
            };
        }
    }
    writeln!(out, "results: {count}").unwrap();
    writeln!(out, "peak_mem_bytes@1: {peak}").unwrap();
}

#[test]
fn plans_and_work_match_the_golden_file() {
    let fixture = Fixture::at_scale(0.005);
    let mut got = String::new();
    for model in [PgRdfModel::NG, PgRdfModel::SP, PgRdfModel::RF] {
        for eq in QUERIES {
            let (dataset, text) = (
                fixture.dataset_for(eq, model),
                fixture.query_text(eq, model),
            );
            record(
                fixture.store(model),
                &eq.label(model),
                &dataset,
                &text,
                model,
                &mut got,
            );
        }
    }
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        for (label, dataset, text) in topk(&fixture, model) {
            record(
                fixture.store(model),
                &label,
                &dataset,
                &text,
                model,
                &mut got,
            );
        }
    }
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        for (label, dataset, text) in lookup(&fixture, model) {
            record(
                fixture.store(model),
                &label,
                &dataset,
                &text,
                model,
                &mut got,
            );
        }
    }
    for model in [PgRdfModel::NG, PgRdfModel::SP] {
        mixed_rw(&fixture, model, &mut got);
    }
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write the golden file");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("read tests/work_golden.txt");
    if let Some((i, (w, g))) = want
        .lines()
        .zip(got.lines())
        .enumerate()
        .find(|(_, (w, g))| w != g)
    {
        panic!(
            "work golden line {}:\n  want {w}\n  got  {g}\n\
             (BLESS=1 cargo test --test work_golden rewrites the file)",
            i + 1
        );
    }
    assert_eq!(
        want.lines().count(),
        got.lines().count(),
        "work golden length differs (BLESS=1 cargo test --test work_golden rewrites the file)"
    );
}
