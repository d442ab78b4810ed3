//! Publishing property-graph data as linked data (§1 benefit 3: "property
//! graph data can easily be published as RDF linked data on the web").
//!
//! * [`to_nquads`] — the full dataset, named graphs included (the NG
//!   encoding round-trips exactly).
//! * [`to_turtle`] — the linked-data view: named-graph components are
//!   flattened to triples (Turtle cannot express quads), so an NG-encoded
//!   graph publishes the same triples an SP/RF one would.

use rdf_model::turtle::{self, Prefixes};
use rdf_model::{GraphName, Quad};

use crate::error::CoreError;
use crate::store::PgRdfStore;

/// Serializes every stored quad as N-Quads (lossless; reload with
/// `quadstore::bulk::load_nquads`).
pub fn to_nquads(store: &PgRdfStore) -> String {
    let quads = store.quads();
    rdf_model::nquads::serialize(&quads)
}

/// Serializes the dataset as Turtle with the paper's prefixes, flattening
/// named-graph quads into default-graph triples and deduplicating.
pub fn to_turtle(store: &PgRdfStore) -> Result<String, CoreError> {
    let mut flattened: Vec<Quad> = store
        .quads()
        .into_iter()
        .map(|q| Quad {
            graph: GraphName::Default,
            ..q
        })
        .collect();
    flattened.sort();
    flattened.dedup();
    let mut prefixes = Prefixes::paper_defaults();
    prefixes.add("pg", &store.vocab().base);
    prefixes.add("rel", &store.vocab().rel_ns);
    prefixes.add("key", &store.vocab().key_ns);
    turtle::serialize(&flattened, &prefixes).map_err(|e| CoreError::Roundtrip(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::PgRdfModel;
    use propertygraph::PropertyGraph;

    #[test]
    fn nquads_export_reloads() {
        let graph = PropertyGraph::sample_figure1();
        let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
        let text = to_nquads(&store);
        let quads = rdf_model::nquads::parse(&text).unwrap();
        assert_eq!(quads.len(), store.stats().quads);
    }

    #[test]
    fn turtle_export_flattens_ng_quads() {
        let graph = PropertyGraph::sample_figure1();
        let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
        let ttl = to_turtle(&store).unwrap();
        assert!(ttl.contains("@prefix rel: <http://pg/r/> ."));
        assert!(ttl.contains("rel:follows pg:v2"));
        assert!(ttl.contains("key:since"));
        // Parses back as triples.
        let triples = rdf_model::turtle::parse(&ttl).unwrap();
        assert_eq!(
            triples.len(),
            store.stats().quads,
            "one triple per quad (no dups here)"
        );
    }

    #[test]
    fn turtle_export_same_triples_for_ng_and_sp_topology() {
        let graph = PropertyGraph::sample_figure1();
        let ng = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
        let sp = PgRdfStore::load(&graph, PgRdfModel::SP).unwrap();
        let ng_ttl = to_turtle(&ng).unwrap();
        let sp_ttl = to_turtle(&sp).unwrap();
        // Both publish the asserted topology triple.
        assert!(ng_ttl.contains("rel:follows pg:v2"));
        assert!(sp_ttl.contains("rel:follows pg:v2"));
    }
}
