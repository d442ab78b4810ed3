//! PG-to-RDF conversion under the three models of §2.3 (Table 1).
//!
//! | model | topology edge `b-i-r-d`                       | edge KV   | node KV  |
//! |-------|-----------------------------------------------|-----------|----------|
//! | RF    | `-e-rdf:subject-s`, `-e-rdf:predicate-p`, `-e-rdf:object-o`, `-s-p-o` | `-e-K-V` | `-n-K-V` |
//! | NG    | `e-s-p-o` (one quad)                          | `e-e-K-V` | `-n-K-V` |
//! | SP    | `-s-e-o`, `-e-rdfs:subPropertyOf-p`, `-s-p-o` | `-e-K-V`  | `-n-K-V` |
//!
//! Special case: a vertex with no KVs and no edges becomes
//! `-v-rdf:type-rdfs:Resource` in every model.

pub mod ng;
pub mod rf;
pub mod sp;

use propertygraph::PropertyGraph;
use rdf_model::vocab::{rdf, rdfs};
use rdf_model::{Quad, Term};

use crate::vocab::PgVocab;

/// The three PG-as-RDF models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PgRdfModel {
    /// (Extended) reification based.
    RF,
    /// Named-graph based.
    NG,
    /// Subproperty based.
    SP,
}

impl PgRdfModel {
    /// All three models.
    pub const ALL: [PgRdfModel; 3] = [PgRdfModel::RF, PgRdfModel::NG, PgRdfModel::SP];

    /// Short display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PgRdfModel::RF => "RF",
            PgRdfModel::NG => "NG",
            PgRdfModel::SP => "SP",
        }
    }
}

impl std::fmt::Display for PgRdfModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Conversion options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertOptions {
    /// The §2.3 optimization the paper mentions but does **not** apply:
    /// "if a property graph edge does not have any edge-KVs, then it is
    /// possible to represent it in RDF using just a single `-s-p-o`
    /// triple. We have not accounted for this optimization." Off by
    /// default (paper behaviour); exposed for the ablation bench.
    pub single_triple_for_kvless_edges: bool,
    /// Whether RF/SP emit the derivable `-s-p-o` triple. The paper argues
    /// for asserting it explicitly ("Discussion", §2); turning it off is
    /// an ablation that forces subproperty reasoning for Q1-style queries.
    pub assert_spo: bool,
}

impl Default for ConvertOptions {
    fn default() -> Self {
        ConvertOptions {
            single_triple_for_kvless_edges: false,
            assert_spo: true,
        }
    }
}

/// Converts a property graph to RDF quads under the chosen model.
///
/// ```
/// use pgrdf::{convert, PgRdfModel, PgVocab};
/// use propertygraph::PropertyGraph;
///
/// let graph = PropertyGraph::sample_figure1(); // 2 edges, 2 edge KVs, 4 node KVs
/// let ng = convert(&graph, PgRdfModel::NG, &PgVocab::default());
/// assert_eq!(ng.len(), 2 + 2 + 4); // one quad per edge + KVs (Table 2)
/// let sp = convert(&graph, PgRdfModel::SP, &PgVocab::default());
/// assert_eq!(sp.len(), 3 * 2 + 2 + 4); // three triples per edge
/// ```
pub fn convert(graph: &PropertyGraph, model: PgRdfModel, vocab: &PgVocab) -> Vec<Quad> {
    convert_with(graph, model, vocab, ConvertOptions::default())
}

/// [`convert`] with explicit options.
pub fn convert_with(
    graph: &PropertyGraph,
    model: PgRdfModel,
    vocab: &PgVocab,
    options: ConvertOptions,
) -> Vec<Quad> {
    let mut quads = Vec::new();
    match model {
        PgRdfModel::RF => rf::convert_edges(graph, vocab, options, &mut quads),
        PgRdfModel::NG => ng::convert_edges(graph, vocab, options, &mut quads),
        PgRdfModel::SP => sp::convert_edges(graph, vocab, options, &mut quads),
    }
    convert_node_kvs(graph, vocab, &mut quads);
    convert_isolated_vertices(graph, vocab, &mut quads);
    quads
}

/// Node KVs are `-n-K-V` triples in every model.
fn convert_node_kvs(graph: &PropertyGraph, vocab: &PgVocab, out: &mut Vec<Quad>) {
    for (id, vertex) in graph.vertices() {
        let n = Term::Iri(vocab.vertex_iri(id));
        for (key, values) in &vertex.props {
            let k = Term::Iri(vocab.key_iri(key));
            for value in values {
                out.push(Quad::new_unchecked(
                    n.clone(),
                    k.clone(),
                    vocab.value_term(value),
                    rdf_model::GraphName::Default,
                ));
            }
        }
    }
}

/// `-v-rdf:type-rdfs:Resource` for isolated vertices (§2.3 special case).
fn convert_isolated_vertices(graph: &PropertyGraph, vocab: &PgVocab, out: &mut Vec<Quad>) {
    for (id, vertex) in graph.vertices() {
        if vertex.props.is_empty() && vertex.out_edges.is_empty() && vertex.in_edges.is_empty() {
            out.push(Quad::new_unchecked(
                Term::Iri(vocab.vertex_iri(id)),
                Term::iri(rdf::TYPE),
                Term::iri(rdfs::RESOURCE),
                rdf_model::GraphName::Default,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::GraphName;

    fn fig1() -> PropertyGraph {
        PropertyGraph::sample_figure1()
    }

    #[test]
    fn quad_counts_follow_table_2() {
        let g = fig1();
        let vocab = PgVocab::default();
        // E=2, eKV=2, nKV=4, no isolated vertices.
        let rf = convert(&g, PgRdfModel::RF, &vocab);
        assert_eq!(rf.len(), 4 * 2 + 2 + 4);
        let ng = convert(&g, PgRdfModel::NG, &vocab);
        assert_eq!(ng.len(), 2 + 2 + 4);
        let sp = convert(&g, PgRdfModel::SP, &vocab);
        assert_eq!(sp.len(), 3 * 2 + 2 + 4);
    }

    #[test]
    fn ng_uses_named_graphs_only_for_edges() {
        let g = fig1();
        let quads = convert(&g, PgRdfModel::NG, &PgVocab::default());
        let named: Vec<_> = quads.iter().filter(|q| !q.graph.is_default()).collect();
        // edge quad + edge-KV quad per edge.
        assert_eq!(named.len(), 4);
        // Node KVs stay in the default graph.
        assert!(quads
            .iter()
            .filter(|q| q.subject == Term::iri("http://pg/v1")
                && matches!(&q.predicate, Term::Iri(p) if p.as_str().starts_with("http://pg/k/")))
            .all(|q| q.graph.is_default()));
    }

    #[test]
    fn ng_edge_quad_matches_paper_example() {
        let g = fig1();
        let quads = convert(&g, PgRdfModel::NG, &PgVocab::default());
        let expected = Quad::new(
            Term::iri("http://pg/v1"),
            Term::iri("http://pg/r/follows"),
            Term::iri("http://pg/v2"),
            GraphName::iri("http://pg/e3"),
        )
        .unwrap();
        assert!(quads.contains(&expected), "missing e-s-p-o quad");
        let kv = Quad::new(
            Term::iri("http://pg/e3"),
            Term::iri("http://pg/k/since"),
            Term::int(2007),
            GraphName::iri("http://pg/e3"),
        )
        .unwrap();
        assert!(
            quads.contains(&kv),
            "edge KVs clustered in the edge's named graph"
        );
    }

    #[test]
    fn rf_emits_reification_plus_spo() {
        let g = fig1();
        let quads = convert(&g, PgRdfModel::RF, &PgVocab::default());
        let e3 = Term::iri("http://pg/e3");
        assert!(quads.iter().any(|q| q.subject == e3
            && q.predicate == Term::iri(rdf::SUBJECT)
            && q.object == Term::iri("http://pg/v1")));
        assert!(quads.iter().any(|q| q.subject == e3
            && q.predicate == Term::iri(rdf::PREDICATE)
            && q.object == Term::iri("http://pg/r/follows")));
        assert!(quads.iter().any(|q| q.subject == e3
            && q.predicate == Term::iri(rdf::OBJECT)
            && q.object == Term::iri("http://pg/v2")));
        // explicit -s-p-o
        assert!(quads.iter().any(|q| q.subject == Term::iri("http://pg/v1")
            && q.predicate == Term::iri("http://pg/r/follows")
            && q.object == Term::iri("http://pg/v2")));
    }

    #[test]
    fn sp_emits_edge_predicate_and_subproperty_anchor() {
        let g = fig1();
        let quads = convert(&g, PgRdfModel::SP, &PgVocab::default());
        let e3 = Term::iri("http://pg/e3");
        // -s-e-o
        assert!(quads.iter().any(|q| q.subject == Term::iri("http://pg/v1")
            && q.predicate == e3
            && q.object == Term::iri("http://pg/v2")));
        // -e-sPO-p anchor
        assert!(quads.iter().any(|q| q.subject == e3
            && q.predicate == Term::iri(rdfs::SUB_PROPERTY_OF)
            && q.object == Term::iri("http://pg/r/follows")));
        // everything in the default graph
        assert!(quads.iter().all(|q| q.graph.is_default()));
    }

    #[test]
    fn isolated_vertex_special_case() {
        let mut g = fig1();
        g.add_vertex(42);
        for model in PgRdfModel::ALL {
            let quads = convert(&g, model, &PgVocab::default());
            assert!(quads.iter().any(|q| {
                q.subject == Term::iri("http://pg/v42")
                    && q.predicate == Term::iri(rdf::TYPE)
                    && q.object == Term::iri(rdfs::RESOURCE)
            }));
        }
    }

    #[test]
    fn kvless_edge_optimization() {
        let mut g = PropertyGraph::new();
        g.add_edge_with_id(3, 1, "follows", 2).unwrap();
        let opts = ConvertOptions {
            single_triple_for_kvless_edges: true,
            assert_spo: true,
        };
        for model in PgRdfModel::ALL {
            let quads = convert_with(&g, model, &PgVocab::default(), opts);
            assert_eq!(quads.len(), 1, "{model}: single -s-p-o triple");
            assert!(quads[0].graph.is_default());
        }
    }

    #[test]
    fn no_spo_ablation() {
        let g = fig1();
        let opts = ConvertOptions {
            single_triple_for_kvless_edges: false,
            assert_spo: false,
        };
        let sp = convert_with(&g, PgRdfModel::SP, &PgVocab::default(), opts);
        // 2 triples per edge instead of 3.
        assert_eq!(sp.len(), 2 * 2 + 2 + 4);
        let rf = convert_with(&g, PgRdfModel::RF, &PgVocab::default(), opts);
        assert_eq!(rf.len(), 3 * 2 + 2 + 4);
    }
}
