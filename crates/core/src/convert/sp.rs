//! The subproperty model (SP).
//!
//! Each edge gets "a unique RDF property ... to represent the edge id",
//! an RDF triple `-s-e-o` with that property as predicate, the anchor
//! triple `-e-rdfs:subPropertyOf-p` tying it to the label property, and
//! (by default) the derivable `-s-p-o` triple (§2, §2.3).

use propertygraph::PropertyGraph;
use rdf_model::vocab::rdfs;
use rdf_model::{GraphName, Iri, Quad, Term};

use super::ConvertOptions;
use crate::vocab::PgVocab;

pub(super) fn convert_edges(
    graph: &PropertyGraph,
    vocab: &PgVocab,
    options: ConvertOptions,
    out: &mut Vec<Quad>,
) {
    let sub_property_of = Term::Iri(Iri::from_text(rdfs::SUB_PROPERTY_OF));
    for (id, edge) in graph.edges() {
        let s = Term::Iri(vocab.vertex_iri(edge.src));
        let p = Term::Iri(vocab.label_iri(&edge.label));
        let o = Term::Iri(vocab.vertex_iri(edge.dst));
        if options.single_triple_for_kvless_edges && edge.props.is_empty() {
            out.push(Quad::new_unchecked(s, p, o, GraphName::Default));
            continue;
        }
        let e = Term::Iri(vocab.edge_iri(id));
        // -s-e-o: the edge IRI used as a predicate.
        out.push(Quad::new_unchecked(
            s.clone(),
            e.clone(),
            o.clone(),
            GraphName::Default,
        ));
        // -e-sPO-p anchor.
        out.push(Quad::new_unchecked(
            e.clone(),
            sub_property_of.clone(),
            p.clone(),
            GraphName::Default,
        ));
        if options.assert_spo {
            out.push(Quad::new_unchecked(s, p, o, GraphName::Default));
        }
        for (key, values) in &edge.props {
            let k = Term::Iri(vocab.key_iri(key));
            for value in values {
                out.push(Quad::new_unchecked(
                    e.clone(),
                    k.clone(),
                    vocab.value_term(value),
                    GraphName::Default,
                ));
            }
        }
    }
}
