//! The (extended) reification model (RF).
//!
//! "Reification in RDF can create a new resource `pg:e3` ... the subject
//! of three triples, with predicates `rdf:subject`, `rdf:predicate` and
//! `rdf:object`" (§2), extended with the explicit `-s-p-o` assertion and
//! *excluding* the `rdf:type rdf:Statement` triple (§2.3).

use propertygraph::PropertyGraph;
use rdf_model::vocab::rdf;
use rdf_model::{GraphName, Iri, Quad, Term};

use super::ConvertOptions;
use crate::vocab::PgVocab;

pub(super) fn convert_edges(
    graph: &PropertyGraph,
    vocab: &PgVocab,
    options: ConvertOptions,
    out: &mut Vec<Quad>,
) {
    let [subject, predicate, object] =
        [rdf::SUBJECT, rdf::PREDICATE, rdf::OBJECT].map(|iri| Term::Iri(Iri::from_text(iri)));
    for (id, edge) in graph.edges() {
        let s = Term::Iri(vocab.vertex_iri(edge.src));
        let p = Term::Iri(vocab.label_iri(&edge.label));
        let o = Term::Iri(vocab.vertex_iri(edge.dst));
        if options.single_triple_for_kvless_edges && edge.props.is_empty() {
            out.push(Quad::new_unchecked(s, p, o, GraphName::Default));
            continue;
        }
        let e = Term::Iri(vocab.edge_iri(id));
        out.push(Quad::new_unchecked(
            e.clone(),
            subject.clone(),
            s.clone(),
            GraphName::Default,
        ));
        out.push(Quad::new_unchecked(
            e.clone(),
            predicate.clone(),
            p.clone(),
            GraphName::Default,
        ));
        out.push(Quad::new_unchecked(
            e.clone(),
            object.clone(),
            o.clone(),
            GraphName::Default,
        ));
        if options.assert_spo {
            out.push(Quad::new_unchecked(s, p, o, GraphName::Default));
        }
        // Edge KVs: -e-K-V.
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
