//! Partitioned storage for the generated RDF (§3.2).
//!
//! "One possible configuration could be to create three separate
//! partitions: 1) edge quads or triples partition, 2) node-KV triples
//! partition, and 3) the edge-KV triples (for SP, this would include the
//! `-s-e-o` and `-e-sPO-p` triples as well)." Each partition is a
//! semantic model; queries that span partitions go through a virtual
//! model (the UNION of the three).

use rdf_model::vocab::rdfs;
use rdf_model::{Quad, Term};

use crate::convert::PgRdfModel;
use crate::vocab::PgVocab;

/// The three §3.2 partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuadClass {
    /// Topology: `e-s-p-o` / `-s-p-o` / reification triples.
    Topology,
    /// Node-KV triples `-n-K-V`.
    NodeKv,
    /// Edge-KV triples/quads, plus (for SP) `-s-e-o` and `-e-sPO-p`.
    EdgeKv,
}

impl QuadClass {
    /// Partition-name suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            QuadClass::Topology => "topology",
            QuadClass::NodeKv => "nodekv",
            QuadClass::EdgeKv => "edgekv",
        }
    }

    /// All classes.
    pub const ALL: [QuadClass; 3] = [QuadClass::Topology, QuadClass::NodeKv, QuadClass::EdgeKv];
}

/// Classifies a generated quad into its §3.2 partition.
pub fn classify(quad: &Quad, vocab: &PgVocab, _model: PgRdfModel) -> QuadClass {
    if let Term::Iri(pred) = &quad.predicate {
        if vocab.key_of(pred).is_some() {
            // -n-K-V vs -e-K-V / e-e-K-V: decide by the subject's ID space.
            if let Term::Iri(subj) = &quad.subject {
                if vocab.edge_id(subj).is_some() {
                    return QuadClass::EdgeKv;
                }
            }
            return QuadClass::NodeKv;
        }
        // SP anchor triples live with the edge KVs (§3.2).
        if pred.as_str() == rdfs::SUB_PROPERTY_OF {
            return QuadClass::EdgeKv;
        }
        // -s-e-o: edge IRI used as predicate (SP) — also edge-KV partition.
        if vocab.edge_id(pred).is_some() {
            return QuadClass::EdgeKv;
        }
    }
    // rel: predicates, reification triples, rdf:type Resource.
    QuadClass::Topology
}

/// Names of the partition models derived from a base name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionNames {
    /// Topology partition model name.
    pub topology: String,
    /// Node-KV partition model name.
    pub node_kv: String,
    /// Edge-KV partition model name.
    pub edge_kv: String,
    /// The virtual model unioning all three.
    pub all: String,
    /// Virtual model: topology + node-KV (EQ2/EQ3 routing, Table 4).
    pub topology_nodekv: String,
    /// Virtual model: topology + edge-KV (NG edge-KV queries, Table 4).
    pub topology_edgekv: String,
}

impl PartitionNames {
    /// Derives partition names from a base.
    pub fn new(base: &str) -> Self {
        PartitionNames {
            topology: format!("{base}.topology"),
            node_kv: format!("{base}.nodekv"),
            edge_kv: format!("{base}.edgekv"),
            all: format!("{base}.all"),
            topology_nodekv: format!("{base}.tn"),
            topology_edgekv: format!("{base}.te"),
        }
    }

    /// The model name of a class.
    pub fn of(&self, class: QuadClass) -> &str {
        match class {
            QuadClass::Topology => &self.topology,
            QuadClass::NodeKv => &self.node_kv,
            QuadClass::EdgeKv => &self.edge_kv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{convert, PgRdfModel};
    use propertygraph::PropertyGraph;

    #[test]
    fn ng_classification() {
        let g = PropertyGraph::sample_figure1();
        let vocab = PgVocab::default();
        let quads = convert(&g, PgRdfModel::NG, &vocab);
        let counts = count_classes(&quads, &vocab, PgRdfModel::NG);
        assert_eq!(counts, (2, 4, 2)); // topology, node-KV, edge-KV
    }

    #[test]
    fn sp_classification_includes_anchors_in_edgekv() {
        let g = PropertyGraph::sample_figure1();
        let vocab = PgVocab::default();
        let quads = convert(&g, PgRdfModel::SP, &vocab);
        let counts = count_classes(&quads, &vocab, PgRdfModel::SP);
        // topology: 2 × -s-p-o; edge-KV: 2 × (-s-e-o + anchor + KV) = 6.
        assert_eq!(counts, (2, 4, 6));
    }

    #[test]
    fn rf_classification() {
        let g = PropertyGraph::sample_figure1();
        let vocab = PgVocab::default();
        let quads = convert(&g, PgRdfModel::RF, &vocab);
        let counts = count_classes(&quads, &vocab, PgRdfModel::RF);
        // topology: 2 × (3 reification + -s-p-o) = 8; edge-KV: 2.
        assert_eq!(counts, (8, 4, 2));
    }

    fn count_classes(quads: &[Quad], vocab: &PgVocab, model: PgRdfModel) -> (usize, usize, usize) {
        let mut t = 0;
        let mut n = 0;
        let mut e = 0;
        for q in quads {
            match classify(q, vocab, model) {
                QuadClass::Topology => t += 1,
                QuadClass::NodeKv => n += 1,
                QuadClass::EdgeKv => e += 1,
            }
        }
        (t, n, e)
    }

    #[test]
    fn partition_names() {
        let names = PartitionNames::new("pg");
        assert_eq!(names.topology, "pg.topology");
        assert_eq!(names.of(QuadClass::EdgeKv), "pg.edgekv");
        assert_eq!(names.all, "pg.all");
    }
}
