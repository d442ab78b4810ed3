//! The three PG-as-RDF models are interchangeable: the same property-graph
//! query — formulated per model where edge-KVs are touched — returns the
//! same answers under RF, NG, and SP, monolithic or partitioned.

use pgrdf::{LoadOptions, PartitionLayout, PgRdfModel, PgRdfStore, PgVocab};
use propertygraph::PropertyGraph;

fn sample_graph(seed: u64) -> PropertyGraph {
    twittergen::generate(&twittergen::TwitterGenConfig::with_seed(0.0015, seed))
}

fn load(graph: &PropertyGraph, model: PgRdfModel, layout: PartitionLayout) -> PgRdfStore {
    PgRdfStore::load_with(
        graph,
        model,
        LoadOptions {
            vocab: PgVocab::twitter(),
            layout,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Sorted multiset of rows, for order-insensitive comparison.
fn canon(sols: &sparql::Solutions) -> Vec<String> {
    let mut rows: Vec<String> = sols
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|t| t.as_ref().map(|t| t.to_string()).unwrap_or_default())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn edge_kv_free_queries_are_identical_across_models() {
    let graph = sample_graph(11);
    let stores: Vec<PgRdfStore> = PgRdfModel::ALL
        .iter()
        .map(|&m| load(&graph, m, PartitionLayout::Monolithic))
        .collect();
    // Q1-style (edge-label bound) and EQ2-style queries: same SPARQL text
    // for every model (§2.3 rule 1a).
    let queries = [
        "PREFIX r: <http://pg/r/> SELECT ?x ?y WHERE { ?x r:knows ?y }",
        "PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE { ?x r:follows ?y . ?y r:follows ?x }",
    ];
    for q in queries {
        let reference = canon(&stores[0].select(q).unwrap());
        for (store, model) in stores.iter().zip(PgRdfModel::ALL).skip(1) {
            assert_eq!(canon(&store.select(q).unwrap()), reference, "{model}: {q}");
        }
    }
}

#[test]
fn q2_model_specific_formulations_agree() {
    let graph = sample_graph(12);
    let mut results = Vec::new();
    for model in PgRdfModel::ALL {
        let store = load(&graph, model, PartitionLayout::Monolithic);
        let sols = store.select(&store.queries().q2_edge_kvs()).unwrap();
        results.push((model, canon(&sols)));
    }
    assert_eq!(results[0].1, results[1].1, "RF vs NG");
    assert_eq!(results[1].1, results[2].1, "NG vs SP");
}

#[test]
fn partitioned_equals_monolithic_per_model() {
    let graph = sample_graph(13);
    for model in PgRdfModel::ALL {
        let mono = load(&graph, model, PartitionLayout::Monolithic);
        let part = load(&graph, model, PartitionLayout::Partitioned);
        for q in [
            mono.queries().q2_edge_kvs(),
            mono.queries().q4_all_edges(),
            mono.queries().eq9(),
        ] {
            let a = canon(&mono.select(&q).unwrap());
            let b = canon(&part.select(&q).unwrap());
            assert_eq!(a, b, "{model}: {q}");
        }
    }
}

#[test]
fn single_triple_optimization_preserves_topology_answers() {
    // §2.3: KV-less edges can be stored as a single -s-p-o triple; the
    // topology queries must not notice.
    let graph = sample_graph(14);
    let q = "PREFIX r: <http://pg/r/> SELECT (COUNT(*) AS ?c) WHERE { ?x r:follows ?y }";
    for model in PgRdfModel::ALL {
        let plain = load(&graph, model, PartitionLayout::Monolithic);
        let optimized = PgRdfStore::load_with(
            &graph,
            model,
            LoadOptions {
                vocab: PgVocab::twitter(),
                convert: pgrdf::ConvertOptions {
                    single_triple_for_kvless_edges: true,
                    assert_spo: true,
                },
                ..Default::default()
            },
        )
        .unwrap();
        assert!(optimized.stats().quads <= plain.stats().quads);
        assert_eq!(
            plain.select(q).unwrap().scalar_i64(),
            optimized.select(q).unwrap().scalar_i64(),
            "{model}"
        );
    }
}

#[test]
fn random_seeds_keep_models_equivalent() {
    for seed in [0u64, 17, 42, 99, 123, 200, 256, 311, 365, 404, 451, 499] {
        let graph = twittergen::generate(&twittergen::TwitterGenConfig::with_seed(0.001, seed));
        let q = "PREFIX r: <http://pg/r/>\
                 SELECT (COUNT(*) AS ?c) WHERE { ?x r:follows ?y . ?y r:knows ?z }";
        let mut counts = Vec::new();
        for model in PgRdfModel::ALL {
            let store = load(&graph, model, PartitionLayout::Monolithic);
            counts.push(store.select(q).unwrap().scalar_i64());
        }
        assert_eq!(counts[0], counts[1], "seed {seed}");
        assert_eq!(counts[1], counts[2], "seed {seed}");
    }
}
