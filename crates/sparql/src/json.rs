//! W3C "SPARQL 1.1 Query Results JSON Format" writer.
//!
//! Lets downstream tooling consume results without linking this crate —
//! the interchange story that makes an RDF store usable as a service.
//! Hand-rolled JSON emission (the workspace deliberately avoids a JSON
//! dependency); escaping covers the JSON string grammar.

use std::fmt::Write as _;

use rdf_model::Term;

use crate::exec::QueryResults;
use crate::results::Solutions;

/// Serializes query results in the standard JSON results format
/// (`application/sparql-results+json`). CONSTRUCT results are not
/// covered by that spec and render as an N-Quads string payload under a
/// `"quads"` key.
pub fn to_json(results: &QueryResults) -> String {
    match results {
        QueryResults::Boolean(b) => {
            format!("{{\"head\":{{}},\"boolean\":{b}}}")
        }
        QueryResults::Solutions(s) => solutions_to_json(s),
        QueryResults::Graph(quads) => {
            let text = rdf_model::nquads::serialize(quads);
            format!("{{\"quads\":\"{}\"}}", escape(&text))
        }
    }
}

fn solutions_to_json(solutions: &Solutions) -> String {
    let mut out = String::from("{\"head\":{\"vars\":[");
    for (i, var) in solutions.vars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", escape(var));
    }
    out.push_str("]},\"results\":{\"bindings\":[");
    for (i, row) in solutions.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        let mut first = true;
        for (var, term) in solutions.vars.iter().zip(row) {
            let Some(term) = term else { continue };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":{}", escape(var), term_to_json(term));
        }
        out.push('}');
    }
    out.push_str("]}}");
    out
}

fn term_to_json(term: &Term) -> String {
    match term {
        Term::Iri(iri) => {
            format!(
                "{{\"type\":\"uri\",\"value\":\"{}\"}}",
                escape(iri.as_str())
            )
        }
        Term::Blank(b) => {
            format!(
                "{{\"type\":\"bnode\",\"value\":\"{}\"}}",
                escape(b.as_str())
            )
        }
        Term::Literal(lit) => {
            let mut out = format!(
                "{{\"type\":\"literal\",\"value\":\"{}\"",
                escape(lit.lexical())
            );
            if let Some(lang) = lit.lang() {
                let _ = write!(out, ",\"xml:lang\":\"{}\"", escape(lang));
            } else if let Some(dt) = lit.datatype_iri() {
                let _ = write!(out, ",\"datatype\":\"{}\"", escape(dt.as_str()));
            }
            out.push('}');
            out
        }
    }
}

/// JSON string escaping per RFC 8259.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Literal;

    #[test]
    fn boolean_results() {
        assert_eq!(
            to_json(&QueryResults::Boolean(true)),
            "{\"head\":{},\"boolean\":true}"
        );
    }

    #[test]
    fn bindings_cover_term_kinds() {
        let s = Solutions {
            vars: vec!["x".into(), "v".into(), "missing".into()],
            rows: vec![vec![
                Some(Term::iri("http://pg/v1")),
                Some(Term::Literal(Literal::lang_string("zug", "de"))),
                None,
            ]],
        };
        let json = to_json(&QueryResults::Solutions(s));
        assert!(json.contains("\"vars\":[\"x\",\"v\",\"missing\"]"));
        assert!(json.contains("\"type\":\"uri\",\"value\":\"http://pg/v1\""));
        assert!(json.contains("\"xml:lang\":\"de\""));
        assert!(!json.contains("missing\":"), "unbound columns are omitted");
    }

    #[test]
    fn typed_literal_datatype() {
        let s = Solutions {
            vars: vec!["n".into()],
            rows: vec![vec![Some(Term::int(23))]],
        };
        let json = to_json(&QueryResults::Solutions(s));
        assert!(json.contains("\"datatype\":\"http://www.w3.org/2001/XMLSchema#int\""));
    }

    #[test]
    fn escaping() {
        let s = Solutions {
            vars: vec!["v".into()],
            rows: vec![vec![Some(Term::string("a\"b\\c\nd\u{1}"))]],
        };
        let json = to_json(&QueryResults::Solutions(s));
        assert!(json.contains("a\\\"b\\\\c\\nd\\u0001"));
    }

    #[test]
    fn construct_results_embed_nquads() {
        let quad = rdf_model::Quad::triple(
            Term::iri("http://s"),
            Term::iri("http://p"),
            Term::iri("http://o"),
        )
        .unwrap();
        let json = to_json(&QueryResults::Graph(vec![quad]));
        assert!(json.starts_with("{\"quads\":\""));
        assert!(json.contains("<http://s> <http://p> <http://o> .\\n"));
    }
}
