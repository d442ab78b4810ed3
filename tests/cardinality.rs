//! Table 2 verification: the paper's cardinality formulas must equal the
//! measured counts of actual conversions — on the running example, on
//! generated Twitter data, and on randomly generated property graphs
//! (property-based).

use pgrdf::cardinality::{measure, predict, predict_subjects, resource_counts, PgCardinalities};
use pgrdf::{convert, PgRdfModel, PgVocab};
use propertygraph::PropertyGraph;
use twittergen::rng::Rng;

fn assert_table2(graph: &PropertyGraph) {
    let vocab = PgVocab::default();
    let pg = PgCardinalities::of(graph);
    for model in PgRdfModel::ALL {
        let quads = convert(graph, model, &vocab);
        let measured = measure(&quads, &vocab);
        let predicted = predict(model, &pg);
        assert_eq!(measured, predicted, "{model} on graph with E={}", pg.e);
        assert_eq!(
            resource_counts(&quads).subjects,
            predict_subjects(model, graph),
            "{model} subject prediction"
        );
    }
}

#[test]
fn figure1_graph() {
    assert_table2(&PropertyGraph::sample_figure1());
}

#[test]
fn twitter_generated_graph() {
    let graph = twittergen::generate(&twittergen::TwitterGenConfig::with_seed(0.002, 5));
    assert_table2(&graph);
}

#[test]
fn empty_graph() {
    assert_table2(&PropertyGraph::new());
}

#[test]
fn graph_with_only_isolated_vertices() {
    let mut g = PropertyGraph::new();
    g.add_vertex(1);
    g.add_vertex(2);
    // Isolated vertices produce one rdf:type triple each: obj-prop count 2,
    // which Table 2's edge formulas put at 0 — the special case is extra.
    let vocab = PgVocab::default();
    for model in PgRdfModel::ALL {
        let quads = convert(&g, model, &vocab);
        assert_eq!(quads.len(), 2);
        assert_eq!(resource_counts(&quads).subjects, 2);
    }
}

/// A random property graph with unique (src, label, dst) per edge — the
/// paper's Table 2 assumes no parallel same-label edges (their `-s-p-o`
/// triples would deduplicate).
fn rand_graph(seed: u64) -> PropertyGraph {
    let mut r = Rng::seed_from_u64(seed);
    let labels = ["follows", "knows", "likes"];
    let keys = ["age", "since", "name"];
    let mut edges = std::collections::BTreeSet::new();
    for _ in 0..r.gen_range(0..25) {
        edges.insert((
            r.gen_range(0..12) as u64,
            r.gen_range(0..3),
            r.gen_range(0..12) as u64,
        ));
    }
    let mut g = PropertyGraph::new();
    let mut edge_ids = Vec::new();
    for &(src, label, dst) in &edges {
        edge_ids.push(g.add_edge(src, labels[label], dst));
    }
    for &eid in &edge_ids {
        if r.next_u64() & 1 == 0 {
            g.add_edge_prop(eid, "since", 2007).expect("edge exists");
        }
    }
    for _ in 0..r.gen_range(0..20) {
        let (v, key, val) = (
            r.gen_range(0..12) as u64,
            r.gen_range(0..3),
            r.gen_range(0..5) as i64,
        );
        g.add_vertex(v);
        g.add_vertex_prop(v, keys[key], val).expect("vertex exists");
    }
    g
}

#[test]
fn table2_formulas_hold_for_random_graphs() {
    for case in 0..64 {
        assert_table2(&rand_graph(case));
    }
}

#[test]
fn ng_is_always_smallest_sp_middle_rf_largest() {
    for case in 0..64 {
        let graph = rand_graph(case);
        let vocab = PgVocab::default();
        let count = |model| convert(&graph, model, &vocab).len();
        let (rf, ng, sp) = (
            count(PgRdfModel::RF),
            count(PgRdfModel::NG),
            count(PgRdfModel::SP),
        );
        assert!(ng <= sp, "NG={ng} SP={sp}");
        assert!(sp <= rf, "SP={sp} RF={rf}");
        let e = graph.edge_count();
        assert_eq!(sp - ng, 2 * e);
        assert_eq!(rf - sp, e);
    }
}
