//! IRI generation for the PG-to-RDF transformation (§2.2).
//!
//! "Vertex 1 maps to `<http://pg/v1>` and edge 3 maps to `<http://pg/e3>`.
//! Similarly, labels and keys get mapped to predicate IRIs ... label
//! `follows` maps to `<http://pg/r/follows>` and key `age` maps to
//! `<http://pg/k/age>`. ... The value component is mapped to an RDF
//! literal by taking the data type into account."
//!
//! The vertex prefix is configurable because the paper's Twitter
//! experiments use `n` (`<http://pg/n6160742>`, EQ11) while the running
//! example uses `v`.

use propertygraph::PropValue;
use rdf_model::vocab::pg;
use rdf_model::{Iri, Literal, Term};

/// The IRI-generation vocabulary for one property graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgVocab {
    /// Base namespace (`http://pg/`).
    pub base: String,
    /// Relationship namespace (`http://pg/r/`, prefix `rel:`/`r:`).
    pub rel_ns: String,
    /// Key namespace (`http://pg/k/`, prefix `key:`/`k:`).
    pub key_ns: String,
    /// Vertex IRI prefix within `base` (`v`, or `n` for the Twitter data).
    pub vertex_prefix: String,
    /// Edge IRI prefix within `base` (`e`).
    pub edge_prefix: String,
}

impl Default for PgVocab {
    fn default() -> Self {
        PgVocab {
            base: pg::NS.to_string(),
            rel_ns: pg::REL_NS.to_string(),
            key_ns: pg::KEY_NS.to_string(),
            vertex_prefix: "v".to_string(),
            edge_prefix: "e".to_string(),
        }
    }
}

impl PgVocab {
    /// The vocabulary used by the paper's Twitter experiments (`n`-prefixed
    /// vertex IRIs).
    pub fn twitter() -> Self {
        PgVocab {
            vertex_prefix: "n".to_string(),
            ..PgVocab::default()
        }
    }

    /// IRI of a vertex.
    pub fn vertex_iri(&self, id: u64) -> Iri {
        Iri::formatted(format_args!("{}{}{}", self.base, self.vertex_prefix, id))
    }

    /// IRI of an edge (the *edge-IRI* at the heart of all three models).
    pub fn edge_iri(&self, id: u64) -> Iri {
        Iri::formatted(format_args!("{}{}{}", self.base, self.edge_prefix, id))
    }

    /// Predicate IRI of an edge label.
    pub fn label_iri(&self, label: &str) -> Iri {
        Iri::formatted(format_args!("{}{}", self.rel_ns, label))
    }

    /// Predicate IRI of a KV key ("No distinction is made between edge and
    /// node keys", §2.2).
    pub fn key_iri(&self, key: &str) -> Iri {
        Iri::formatted(format_args!("{}{}", self.key_ns, key))
    }

    /// Maps a property value to an RDF literal, "taking the data type into
    /// account (e.g., value 23 mapped to `"23"^^xsd:int`)".
    pub fn value_term(&self, value: &PropValue) -> Term {
        match value {
            PropValue::Str(s) => Term::Literal(Literal::from_text(s.as_str(), None, None)),
            PropValue::Int(i) => {
                if let Ok(small) = i32::try_from(*i) {
                    Term::Literal(Literal::int(small))
                } else {
                    Term::Literal(Literal::typed(
                        i.to_string(),
                        Iri::new(rdf_model::vocab::xsd::LONG),
                    ))
                }
            }
            PropValue::Double(d) => Term::Literal(Literal::double(*d)),
            PropValue::Bool(b) => Term::Literal(Literal::boolean(*b)),
        }
    }

    /// Inverse of [`Self::value_term`] for literals our converter emits.
    pub fn term_value(&self, term: &Term) -> Option<PropValue> {
        let lit = term.as_literal()?;
        if let Some(i) = lit.as_i64() {
            return Some(PropValue::Int(i));
        }
        if let Some(b) = lit.as_bool() {
            return Some(PropValue::Bool(b));
        }
        if lit.effective_datatype() == rdf_model::vocab::xsd::DOUBLE
            || lit.effective_datatype() == rdf_model::vocab::xsd::FLOAT
        {
            return lit.as_f64().map(PropValue::Double);
        }
        Some(PropValue::Str(lit.lexical().to_string()))
    }

    /// Extracts the vertex ID from a vertex IRI.
    pub fn vertex_id(&self, iri: &Iri) -> Option<u64> {
        let local = iri.as_str().strip_prefix(&self.base)?;
        // Guard against the rel:/key: namespaces which share the base.
        if local.contains('/') {
            return None;
        }
        local.strip_prefix(&self.vertex_prefix)?.parse().ok()
    }

    /// Extracts the edge ID from an edge IRI.
    pub fn edge_id(&self, iri: &Iri) -> Option<u64> {
        let local = iri.as_str().strip_prefix(&self.base)?;
        if local.contains('/') {
            return None;
        }
        local.strip_prefix(&self.edge_prefix)?.parse().ok()
    }

    /// Extracts the label from a relationship predicate IRI.
    pub fn label_of<'a>(&self, iri: &'a Iri) -> Option<&'a str> {
        iri.as_str().strip_prefix(self.rel_ns.as_str())
    }

    /// Extracts the key from a key predicate IRI.
    pub fn key_of<'a>(&self, iri: &'a Iri) -> Option<&'a str> {
        iri.as_str().strip_prefix(self.key_ns.as_str())
    }

    /// A PREFIX header declaring the paper's prefixes (`rel:`/`r:`,
    /// `key:`/`k:`, `rdf:`, `rdfs:`, `pg:`) for use in queries.
    pub fn prefixes(&self) -> String {
        format!(
            "PREFIX pg: <{}>\nPREFIX rel: <{}>\nPREFIX r: <{}>\nPREFIX key: <{}>\nPREFIX k: <{}>\nPREFIX rdf: <{}>\nPREFIX rdfs: <{}>\n",
            self.base,
            self.rel_ns,
            self.rel_ns,
            self.key_ns,
            self.key_ns,
            rdf_model::vocab::rdf::NS,
            rdf_model::vocab::rdfs::NS,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_examples() {
        let v = PgVocab::default();
        assert_eq!(v.vertex_iri(1).as_str(), "http://pg/v1");
        assert_eq!(v.edge_iri(3).as_str(), "http://pg/e3");
        assert_eq!(v.label_iri("follows").as_str(), "http://pg/r/follows");
        assert_eq!(v.key_iri("age").as_str(), "http://pg/k/age");
        assert_eq!(
            v.value_term(&PropValue::Int(23)).to_string(),
            "\"23\"^^<http://www.w3.org/2001/XMLSchema#int>"
        );
    }

    #[test]
    fn twitter_vertex_prefix() {
        let v = PgVocab::twitter();
        assert_eq!(v.vertex_iri(6160742).as_str(), "http://pg/n6160742");
    }

    #[test]
    fn id_extraction_roundtrips() {
        let v = PgVocab::default();
        assert_eq!(v.vertex_id(&v.vertex_iri(17)), Some(17));
        assert_eq!(v.edge_id(&v.edge_iri(99)), Some(99));
        // cross-kind extraction fails
        assert_eq!(v.vertex_id(&v.edge_iri(99)), None);
        assert_eq!(v.edge_id(&v.vertex_iri(17)), None);
        // namespaced predicates are not vertices
        assert_eq!(v.vertex_id(&v.label_iri("v1")), None);
    }

    #[test]
    fn label_and_key_extraction() {
        let v = PgVocab::default();
        assert_eq!(v.label_of(&v.label_iri("follows")), Some("follows"));
        assert_eq!(v.key_of(&v.key_iri("since")), Some("since"));
        assert_eq!(v.label_of(&v.key_iri("since")), None);
    }

    #[test]
    fn value_term_roundtrips() {
        let v = PgVocab::default();
        for val in [
            PropValue::Str("MIT".into()),
            PropValue::Int(2007),
            PropValue::Int(i64::MAX),
            PropValue::Double(1.5),
            PropValue::Bool(true),
        ] {
            let term = v.value_term(&val);
            assert_eq!(v.term_value(&term), Some(val));
        }
        assert_eq!(v.term_value(&Term::iri("http://x")), None);
    }

    #[test]
    fn prefixes_parse_in_queries() {
        let v = PgVocab::default();
        let q = format!("{} SELECT ?x WHERE {{ ?x rel:follows ?y }}", v.prefixes());
        assert!(sparql::parse_query(&q).is_ok());
    }
}
