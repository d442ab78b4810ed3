//! Cardinality formulas of Table 2 ("Property graph vs RDF cardinalities")
//! plus measurement against actual conversions — the Table 2/7/8 machinery.

use std::collections::BTreeSet;

use propertygraph::PropertyGraph;
use rdf_model::{GraphName, Quad, Term};

use crate::convert::PgRdfModel;
use crate::vocab::PgVocab;

/// Property-graph cardinalities (the top half of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PgCardinalities {
    /// `E` — edges.
    pub e: usize,
    /// `E1` — edges with >= 1 edge-KV.
    pub e1: usize,
    /// `V` — vertices.
    pub v: usize,
    /// `eKV` — edge key/value pairs.
    pub ekv: usize,
    /// `nKV` — node key/value pairs.
    pub nkv: usize,
    /// `eL` — distinct edge labels.
    pub el: usize,
    /// `eK` — distinct edge-KV keys.
    pub ek: usize,
    /// `nK` — distinct node-KV keys.
    pub nk: usize,
    /// Distinct keys overall (`distinct(eK UNION nK)`).
    pub distinct_keys: usize,
}

impl PgCardinalities {
    /// Measures a property graph.
    pub fn of(graph: &PropertyGraph) -> Self {
        let edge_keys = graph.edge_keys();
        let node_keys = graph.node_keys();
        let mut all_keys: BTreeSet<&String> = edge_keys.iter().collect();
        all_keys.extend(node_keys.iter());
        PgCardinalities {
            e: graph.edge_count(),
            e1: graph.edges_with_kvs(),
            v: graph.vertex_count(),
            ekv: graph.edge_kv_count(),
            nkv: graph.node_kv_count(),
            el: graph.edge_labels().len(),
            ek: edge_keys.len(),
            nk: node_keys.len(),
            distinct_keys: all_keys.len(),
        }
    }
}

/// RDF cardinalities of one PG-as-RDF model (the bottom half of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdfCardinalities {
    /// Distinct named graphs.
    pub named_graphs: usize,
    /// Object-property triples/quads (topology encoding).
    pub obj_prop: usize,
    /// Data-property triples/quads (KVs).
    pub data_prop: usize,
    /// Distinct object-properties (predicates whose range is resources).
    pub distinct_obj_properties: usize,
    /// Distinct data-properties.
    pub distinct_data_properties: usize,
}

/// Predicts the Table 2 row for a model from PG cardinalities.
///
/// The predictions assume, like the paper, that no two parallel edges
/// share `(source, label, destination)` — otherwise the asserted `-s-p-o`
/// triples of RF/SP deduplicate and the counts drop below the formulas.
pub fn predict(model: PgRdfModel, pg: &PgCardinalities) -> RdfCardinalities {
    // Table 2 writes the fixed predicate contributions (the 3 reification
    // predicates of RF, the rdfs:subPropertyOf of SP) unconditionally;
    // they only materialise when at least one edge exists.
    let has_edges = pg.e > 0;
    match model {
        PgRdfModel::RF => RdfCardinalities {
            named_graphs: 0,
            obj_prop: 4 * pg.e,
            data_prop: pg.ekv + pg.nkv,
            distinct_obj_properties: pg.el + if has_edges { 3 } else { 0 },
            distinct_data_properties: pg.distinct_keys,
        },
        PgRdfModel::NG => RdfCardinalities {
            named_graphs: pg.e,
            obj_prop: pg.e,
            data_prop: pg.ekv + pg.nkv,
            distinct_obj_properties: pg.el,
            distinct_data_properties: pg.distinct_keys,
        },
        PgRdfModel::SP => RdfCardinalities {
            named_graphs: 0,
            obj_prop: 3 * pg.e,
            data_prop: pg.ekv + pg.nkv,
            distinct_obj_properties: pg.el + pg.e + if has_edges { 1 } else { 0 },
            distinct_data_properties: pg.distinct_keys,
        },
    }
}

/// Measures the actual cardinalities of a converted quad set.
pub fn measure(quads: &[Quad], vocab: &PgVocab) -> RdfCardinalities {
    let mut named_graphs = BTreeSet::new();
    let mut obj_prop = 0usize;
    let mut data_prop = 0usize;
    let mut obj_props = BTreeSet::new();
    let mut data_props = BTreeSet::new();
    for quad in quads {
        if let GraphName::Named(g) = &quad.graph {
            named_graphs.insert(g.clone());
        }
        let is_kv = match &quad.predicate {
            Term::Iri(p) => vocab.key_of(p).is_some(),
            _ => false,
        };
        if is_kv && quad.object.is_literal() {
            data_prop += 1;
            data_props.insert(quad.predicate.clone());
        } else {
            obj_prop += 1;
            obj_props.insert(quad.predicate.clone());
        }
    }
    RdfCardinalities {
        named_graphs: named_graphs.len(),
        obj_prop,
        data_prop,
        distinct_obj_properties: obj_props.len(),
        distinct_data_properties: data_props.len(),
    }
}

/// Resource-count measurements for Table 8 (distinct subjects, predicates,
/// objects, named graphs), over term-level quads. Re-exported from the
/// quadstore statistics layer.
pub use quadstore::ResourceCounts;

/// Measures Table 8 resource counts over a quad set (delegates to
/// [`quadstore::resource_counts`]).
pub fn resource_counts(quads: &[Quad]) -> ResourceCounts {
    quadstore::resource_counts(quads)
}

/// Predicted Table 8 counts: the paper's decomposition
/// `subjects(NG) = V_subj + E1`, `subjects(SP) = V_subj + E`,
/// `predicates(SP) = base + 1 + E`, where `V_subj` is the number of
/// vertices occurring as subjects (having node-KVs or outbound edges).
pub fn predict_subjects(model: PgRdfModel, graph: &PropertyGraph) -> usize {
    let v_subj = graph
        .vertices()
        .filter(|(_, v)| !v.props.is_empty() || !v.out_edges.is_empty())
        .count();
    let pg = PgCardinalities::of(graph);
    match model {
        PgRdfModel::NG => v_subj + pg.e1,
        PgRdfModel::SP | PgRdfModel::RF => v_subj + pg.e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;

    fn fig1() -> (PropertyGraph, PgCardinalities) {
        let g = PropertyGraph::sample_figure1();
        let c = PgCardinalities::of(&g);
        (g, c)
    }

    #[test]
    fn figure1_pg_cardinalities() {
        let (_, c) = fig1();
        assert_eq!(c.e, 2);
        assert_eq!(c.e1, 2);
        assert_eq!(c.v, 2);
        assert_eq!(c.ekv, 2);
        assert_eq!(c.nkv, 4);
        assert_eq!(c.el, 2);
        assert_eq!(c.ek, 2);
        assert_eq!(c.nk, 2);
        assert_eq!(c.distinct_keys, 4);
    }

    #[test]
    fn predictions_match_measurements_on_figure1() {
        let (g, c) = fig1();
        let vocab = PgVocab::default();
        for model in PgRdfModel::ALL {
            let quads = convert(&g, model, &vocab);
            let measured = measure(&quads, &vocab);
            let predicted = predict(model, &c);
            assert_eq!(measured, predicted, "{model}");
        }
    }

    #[test]
    fn ng_has_one_named_graph_per_edge() {
        let (g, c) = fig1();
        let quads = convert(&g, PgRdfModel::NG, &PgVocab::default());
        assert_eq!(resource_counts(&quads).named_graphs, c.e);
    }

    #[test]
    fn subject_predictions() {
        let (g, _) = fig1();
        let vocab = PgVocab::default();
        for model in PgRdfModel::ALL {
            let quads = convert(&g, model, &vocab);
            assert_eq!(
                resource_counts(&quads).subjects,
                predict_subjects(model, &g),
                "{model}"
            );
        }
    }

    #[test]
    fn sp_predicate_count_includes_edges() {
        let (g, c) = fig1();
        let quads = convert(&g, PgRdfModel::SP, &PgVocab::default());
        let counts = resource_counts(&quads);
        // labels(2) + keys(4 merged... here node/edge keys distinct: age,
        // name, since, firstMetAt) + subPropertyOf + E edge predicates.
        assert_eq!(counts.predicates, c.el + c.distinct_keys + 1 + c.e);
    }
}
