//! RDF-to-PG reconstruction: the inverse of [`crate::convert`](mod@crate::convert), showing
//! the transformations are lossless (an RDF store really can serve as
//! "backend storage for large property graph datasets", §1).

use propertygraph::PropertyGraph;
use rdf_model::vocab::{rdf, rdfs};
use rdf_model::{GraphName, Quad, Term};

use crate::convert::PgRdfModel;
use crate::error::CoreError;
use crate::vocab::PgVocab;

/// Reconstructs a property graph from quads produced by
/// [`crate::convert::convert`] under the same model and vocabulary.
///
/// Quads that do not belong to the encoding (e.g. extra ontology triples
/// merged in later) are ignored, so reconstruction also works on enriched
/// datasets.
pub fn to_property_graph(
    quads: &[Quad],
    model: PgRdfModel,
    vocab: &PgVocab,
) -> Result<PropertyGraph, CoreError> {
    let mut graph = PropertyGraph::new();

    // Pass 1: edges (so edge-KV attachment succeeds in pass 2).
    match model {
        PgRdfModel::NG => reconstruct_ng_edges(quads, vocab, &mut graph)?,
        PgRdfModel::SP => reconstruct_sp_edges(quads, vocab, &mut graph)?,
        PgRdfModel::RF => reconstruct_rf_edges(quads, vocab, &mut graph)?,
    }

    // Pass 2: KVs and isolated vertices.
    for quad in quads {
        let Term::Iri(pred) = &quad.predicate else { continue };
        if let Some(key) = vocab.key_of(pred) {
            let Term::Iri(subj) = &quad.subject else { continue };
            let Some(value) = vocab.term_value(&quad.object) else { continue };
            if let Some(vid) = vocab.vertex_id(subj) {
                graph.add_vertex(vid);
                graph
                    .add_vertex_prop(vid, key, value)
                    .expect("vertex just ensured");
            } else if let Some(eid) = vocab.edge_id(subj) {
                // Edge KVs can only attach to known edges; unknown edge
                // IRIs indicate foreign data and are skipped.
                let _ = graph.add_edge_prop(eid, key, value);
            }
        } else if pred.as_str() == rdf::TYPE && quad.object == Term::iri(rdfs::RESOURCE) {
            if let Term::Iri(subj) = &quad.subject {
                if let Some(vid) = vocab.vertex_id(subj) {
                    graph.add_vertex(vid);
                }
            }
        }
    }
    Ok(graph)
}

fn reconstruct_ng_edges(
    quads: &[Quad],
    vocab: &PgVocab,
    graph: &mut PropertyGraph,
) -> Result<(), CoreError> {
    for quad in quads {
        let GraphName::Named(Term::Iri(g)) = &quad.graph else { continue };
        let Some(eid) = vocab.edge_id(g) else { continue };
        let Term::Iri(pred) = &quad.predicate else { continue };
        let Some(label) = vocab.label_of(pred) else { continue };
        let (Term::Iri(s), Term::Iri(o)) = (&quad.subject, &quad.object) else { continue };
        let (Some(src), Some(dst)) = (vocab.vertex_id(s), vocab.vertex_id(o)) else { continue };
        graph
            .add_edge_with_id(eid, src, label, dst)
            .map_err(|e| CoreError::Roundtrip(e.to_string()))?;
    }
    Ok(())
}

fn reconstruct_sp_edges(
    quads: &[Quad],
    vocab: &PgVocab,
    graph: &mut PropertyGraph,
) -> Result<(), CoreError> {
    // Anchors first: edge id -> label.
    let mut labels = std::collections::HashMap::new();
    for quad in quads {
        if quad.predicate == Term::iri(rdfs::SUB_PROPERTY_OF) {
            let (Term::Iri(e), Term::Iri(p)) = (&quad.subject, &quad.object) else { continue };
            if let (Some(eid), Some(label)) = (vocab.edge_id(e), vocab.label_of(p)) {
                labels.insert(eid, label.to_string());
            }
        }
    }
    // Then -s-e-o triples.
    for quad in quads {
        let Term::Iri(pred) = &quad.predicate else { continue };
        let Some(eid) = vocab.edge_id(pred) else { continue };
        let Some(label) = labels.get(&eid) else {
            return Err(CoreError::Roundtrip(format!(
                "SP edge {eid} has no rdfs:subPropertyOf anchor"
            )));
        };
        let (Term::Iri(s), Term::Iri(o)) = (&quad.subject, &quad.object) else { continue };
        let (Some(src), Some(dst)) = (vocab.vertex_id(s), vocab.vertex_id(o)) else { continue };
        graph
            .add_edge_with_id(eid, src, label, dst)
            .map_err(|e| CoreError::Roundtrip(e.to_string()))?;
    }
    Ok(())
}

fn reconstruct_rf_edges(
    quads: &[Quad],
    vocab: &PgVocab,
    graph: &mut PropertyGraph,
) -> Result<(), CoreError> {
    #[derive(Default)]
    struct Parts {
        s: Option<u64>,
        p: Option<String>,
        o: Option<u64>,
    }
    let mut parts: std::collections::HashMap<u64, Parts> = std::collections::HashMap::new();
    for quad in quads {
        let Term::Iri(subj) = &quad.subject else { continue };
        let Some(eid) = vocab.edge_id(subj) else { continue };
        let Term::Iri(pred) = &quad.predicate else { continue };
        match pred.as_str() {
            p if p == rdf::SUBJECT => {
                if let Term::Iri(o) = &quad.object {
                    parts.entry(eid).or_default().s = vocab.vertex_id(o);
                }
            }
            p if p == rdf::PREDICATE => {
                if let Term::Iri(o) = &quad.object {
                    parts.entry(eid).or_default().p = vocab.label_of(o).map(String::from);
                }
            }
            p if p == rdf::OBJECT => {
                if let Term::Iri(o) = &quad.object {
                    parts.entry(eid).or_default().o = vocab.vertex_id(o);
                }
            }
            _ => {}
        }
    }
    let mut ids: Vec<u64> = parts.keys().copied().collect();
    ids.sort_unstable();
    for eid in ids {
        let part = &parts[&eid];
        match (&part.s, &part.p, &part.o) {
            (Some(s), Some(p), Some(o)) => {
                graph
                    .add_edge_with_id(eid, *s, p, *o)
                    .map_err(|e| CoreError::Roundtrip(e.to_string()))?;
            }
            _ => {
                return Err(CoreError::Roundtrip(format!(
                    "RF edge {eid} is missing reification components"
                )))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;

    fn graphs_equal(a: &PropertyGraph, b: &PropertyGraph) -> bool {
        if a.vertex_count() != b.vertex_count() || a.edge_count() != b.edge_count() {
            return false;
        }
        for (id, va) in a.vertices() {
            match b.vertex(id) {
                Some(vb) if va.props == vb.props => {}
                _ => return false,
            }
        }
        for (id, ea) in a.edges() {
            match b.edge(id) {
                Some(eb)
                    if ea.src == eb.src
                        && ea.dst == eb.dst
                        && ea.label == eb.label
                        && ea.props == eb.props => {}
                _ => return false,
            }
        }
        true
    }

    #[test]
    fn all_models_roundtrip_figure1() {
        let mut g = PropertyGraph::sample_figure1();
        g.add_vertex(42); // isolated vertex special case
        let vocab = PgVocab::default();
        for model in PgRdfModel::ALL {
            let quads = convert(&g, model, &vocab);
            let g2 = to_property_graph(&quads, model, &vocab).unwrap();
            assert!(graphs_equal(&g, &g2), "{model} roundtrip mismatch");
        }
    }

    #[test]
    fn foreign_quads_are_ignored() {
        let g = PropertyGraph::sample_figure1();
        let vocab = PgVocab::default();
        let mut quads = convert(&g, PgRdfModel::NG, &vocab);
        quads.push(
            Quad::triple(
                Term::iri("http://other/x"),
                Term::iri("http://other/p"),
                Term::string("y"),
            )
            .unwrap(),
        );
        let g2 = to_property_graph(&quads, PgRdfModel::NG, &vocab).unwrap();
        assert!(graphs_equal(&g, &g2));
    }

    #[test]
    fn sp_missing_anchor_is_an_error() {
        let vocab = PgVocab::default();
        let quads = vec![Quad::triple(
            Term::Iri(vocab.vertex_iri(1)),
            Term::Iri(vocab.edge_iri(3)),
            Term::Iri(vocab.vertex_iri(2)),
        )
        .unwrap()];
        assert!(to_property_graph(&quads, PgRdfModel::SP, &vocab).is_err());
    }

    #[test]
    fn rf_incomplete_reification_is_an_error() {
        let vocab = PgVocab::default();
        let quads = vec![Quad::triple(
            Term::Iri(vocab.edge_iri(3)),
            Term::iri(rdf::SUBJECT),
            Term::Iri(vocab.vertex_iri(1)),
        )
        .unwrap()];
        assert!(to_property_graph(&quads, PgRdfModel::RF, &vocab).is_err());
    }
}
