//! Lossless-ness: PG → RDF → PG is the identity for every model, on
//! hand-built, generated, and random property graphs; plus N-Quads and
//! TSV round trips of the serialized forms.

use pgrdf::{convert, roundtrip, PgRdfModel, PgVocab};
use propertygraph::{PropertyGraph, RelationalGraph};
use twittergen::rng::Rng;

/// KV collections are conceptually sets; normalise the per-key value
/// vectors to sorted lexical forms so storage order differences (e.g.
/// index-sorted scans after persistence) do not matter.
fn norm_props(
    props: &std::collections::BTreeMap<String, Vec<propertygraph::PropValue>>,
) -> std::collections::BTreeMap<String, std::collections::BTreeSet<(String, String)>> {
    props
        .iter()
        .map(|(k, vs)| {
            (
                k.clone(),
                vs.iter()
                    .map(|v| (v.type_name().to_string(), v.lexical()))
                    .collect(),
            )
        })
        .collect()
}

fn graphs_equal(a: &PropertyGraph, b: &PropertyGraph) -> bool {
    a.vertex_count() == b.vertex_count()
        && a.edge_count() == b.edge_count()
        && a.vertices().all(|(id, va)| {
            b.vertex(id)
                .is_some_and(|vb| norm_props(&va.props) == norm_props(&vb.props))
        })
        && a.edges().all(|(id, ea)| {
            b.edge(id).is_some_and(|eb| {
                ea.src == eb.src
                    && ea.dst == eb.dst
                    && ea.label == eb.label
                    && norm_props(&ea.props) == norm_props(&eb.props)
            })
        })
}

fn assert_roundtrips(graph: &PropertyGraph) {
    let vocab = PgVocab::default();
    for model in PgRdfModel::ALL {
        let quads = convert(graph, model, &vocab);
        let back = roundtrip::to_property_graph(&quads, model, &vocab).unwrap();
        assert!(graphs_equal(graph, &back), "{model} roundtrip mismatch");
    }
}

#[test]
fn figure1_roundtrips() {
    assert_roundtrips(&PropertyGraph::sample_figure1());
}

#[test]
fn twitter_sample_roundtrips() {
    let graph = twittergen::generate(&twittergen::TwitterGenConfig::with_seed(0.002, 3));
    let vocab = PgVocab::twitter();
    for model in PgRdfModel::ALL {
        let quads = convert(&graph, model, &vocab);
        let back = roundtrip::to_property_graph(&quads, model, &vocab).unwrap();
        assert!(graphs_equal(&graph, &back), "{model}");
    }
}

#[test]
fn rdf_survives_nquads_serialization() {
    // PG → RDF → N-Quads text → RDF → PG.
    let graph = PropertyGraph::sample_figure1();
    let vocab = PgVocab::default();
    for model in PgRdfModel::ALL {
        let quads = convert(&graph, model, &vocab);
        let text = rdf_model::nquads::serialize(&quads);
        let parsed = rdf_model::nquads::parse(&text).unwrap();
        assert_eq!(parsed, quads, "{model}");
        let back = roundtrip::to_property_graph(&parsed, model, &vocab).unwrap();
        assert!(graphs_equal(&graph, &back), "{model}");
    }
}

#[test]
fn relational_and_tsv_roundtrip() {
    let graph = twittergen::generate(&twittergen::TwitterGenConfig::with_seed(0.002, 4));
    let rel = RelationalGraph::from_graph(&graph);
    let back = rel.to_graph().unwrap();
    assert!(graphs_equal(&graph, &back));
    let tsv = propertygraph::csv::to_tsv(&graph);
    let back2 = propertygraph::csv::from_tsv(&tsv).unwrap();
    assert!(graphs_equal(&graph, &back2));
}

fn rand_graph(seed: u64) -> PropertyGraph {
    let mut r = Rng::seed_from_u64(seed);
    let labels = ["follows", "knows"];
    let keys = ["age", "name", "score"];
    let mut edges = std::collections::BTreeSet::new();
    for _ in 0..r.gen_range(0..15) {
        edges.insert((
            r.gen_range(0..10) as u64,
            r.gen_range(0..2),
            r.gen_range(0..10) as u64,
        ));
    }
    let mut g = PropertyGraph::new();
    let mut ids = Vec::new();
    for &(src, label, dst) in &edges {
        ids.push(g.add_edge(src, labels[label], dst));
    }
    for _ in 0..r.gen_range(0..15) {
        let (v, key, val) = (
            r.gen_range(0..10) as u64,
            r.gen_range(0..3),
            r.gen_range(0..55) as i64 - 5,
        );
        g.add_vertex(v);
        if key == 1 {
            g.add_vertex_prop(v, keys[key], format!("s{val}"))
                .expect("exists");
        } else {
            g.add_vertex_prop(v, keys[key], val).expect("exists");
        }
    }
    for _ in 0..r.gen_range(0..10) {
        let (slot, key, as_bool) = (r.gen_range(0..15), r.gen_range(0..3), r.next_u64() & 1 == 0);
        if let Some(&eid) = ids.get(slot) {
            if as_bool {
                g.add_edge_prop(eid, keys[key], true).expect("exists");
            } else {
                g.add_edge_prop(eid, keys[key], 2.5).expect("exists");
            }
        }
    }
    for _ in 0..r.gen_range(0..3) {
        g.add_vertex(50 + r.gen_range(0..10) as u64);
    }
    g
}

#[test]
fn random_graphs_roundtrip_through_all_models() {
    for case in 0..48 {
        assert_roundtrips(&rand_graph(case));
    }
}

#[test]
fn random_graphs_roundtrip_through_tsv() {
    for case in 0..48 {
        let graph = rand_graph(case);
        let tsv = propertygraph::csv::to_tsv(&graph);
        let back = propertygraph::csv::from_tsv(&tsv).unwrap();
        assert!(graphs_equal(&graph, &back), "case {case}");
    }
}

#[test]
fn store_persistence_roundtrip() {
    // PG -> RDF store -> disk -> store -> PG.
    let graph = twittergen::generate(&twittergen::TwitterGenConfig::with_seed(0.0015, 9));
    let dir = std::env::temp_dir().join(format!("pgrdf_persist_{}", std::process::id()));
    for (i, model) in PgRdfModel::ALL.iter().enumerate() {
        let store = pgrdf::PgRdfStore::load_with(
            &graph,
            *model,
            pgrdf::LoadOptions {
                vocab: PgVocab::twitter(),
                layout: if i % 2 == 0 {
                    pgrdf::PartitionLayout::Monolithic
                } else {
                    pgrdf::PartitionLayout::Partitioned
                },
                ..Default::default()
            },
        )
        .unwrap();
        store.save_to_dir(&dir).unwrap();
        let loaded = pgrdf::PgRdfStore::load_from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded.model(), *model);
        assert_eq!(loaded.layout(), store.layout());
        assert_eq!(loaded.stats().quads, store.stats().quads, "{model}");
        let back = loaded.to_property_graph().unwrap();
        assert!(graphs_equal(&graph, &back), "{model} persistence roundtrip");
    }
}

#[test]
fn turtle_publishing_roundtrip() {
    let graph = PropertyGraph::sample_figure1();
    let store = pgrdf::PgRdfStore::load(&graph, PgRdfModel::SP).unwrap();
    let ttl = pgrdf::publish::to_turtle(&store).unwrap();
    let triples = rdf_model::turtle::parse(&ttl).unwrap();
    // SP stores plain triples only, so the Turtle view is lossless and the
    // original graph is reconstructible from it.
    let quads: Vec<rdf_model::Quad> = triples
        .into_iter()
        .map(|t| t.in_graph(rdf_model::GraphName::Default))
        .collect();
    let back = pgrdf::roundtrip::to_property_graph(&quads, PgRdfModel::SP, store.vocab()).unwrap();
    assert!(graphs_equal(&graph, &back));
}
