//! Turtle serialization (and a compatible parser subset).
//!
//! The paper's third benefit of PG-as-RDF is that "property graph data can
//! easily be published as RDF linked data on the web" (§1) — Turtle is the
//! lingua franca for that. The writer emits `@prefix` declarations,
//! groups triples by subject with `;` / `,` abbreviations, and uses
//! prefixed names where a namespace matches. Named-graph quads are not
//! expressible in Turtle and are rejected; use N-Quads for datasets.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::ModelError;
use crate::term::{BlankNode, Iri, Literal, Term};
use crate::triple::{GraphName, Quad, Triple};

/// A prefix table for compact output.
#[derive(Debug, Clone, Default)]
pub struct Prefixes {
    /// prefix -> namespace IRI, sorted for deterministic output.
    map: BTreeMap<String, String>,
}

impl Prefixes {
    /// An empty table.
    pub fn new() -> Self {
        Prefixes::default()
    }

    /// The paper's prefixes (`pg:`, `rel:`, `key:`) plus `rdf:`/`rdfs:`/`xsd:`.
    pub fn paper_defaults() -> Self {
        let mut p = Prefixes::new();
        p.add("pg", crate::vocab::pg::NS);
        p.add("rel", crate::vocab::pg::REL_NS);
        p.add("key", crate::vocab::pg::KEY_NS);
        p.add("rdf", crate::vocab::rdf::NS);
        p.add("rdfs", crate::vocab::rdfs::NS);
        p.add("xsd", crate::vocab::xsd::NS);
        p
    }

    /// Registers a prefix.
    pub fn add(&mut self, prefix: &str, namespace: &str) {
        self.map.insert(prefix.to_string(), namespace.to_string());
    }

    /// Renders an IRI as a prefixed name when a namespace matches and the
    /// local part is a simple name, else as `<iri>`.
    fn render(&self, iri: &Iri) -> String {
        // Longest-namespace match wins (rel:/key: share the pg: base).
        let mut best: Option<(&str, &str)> = None;
        for (prefix, ns) in &self.map {
            if let Some(local) = iri.as_str().strip_prefix(ns.as_str()) {
                if local.chars().all(is_local_char)
                    && best.map(|(_, b)| ns.len() > b.len()).unwrap_or(true)
                {
                    best = Some((prefix, ns));
                }
            }
        }
        match best {
            Some((prefix, ns)) => {
                format!("{prefix}:{}", &iri.as_str()[ns.len()..])
            }
            None => format!("{iri}"),
        }
    }

    /// Resolves a prefixed name.
    fn resolve(&self, prefix: &str, local: &str) -> Option<Iri> {
        self.map
            .get(prefix)
            .map(|ns| Iri::formatted(format_args!("{ns}{local}")))
    }
}

fn is_local_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-' || c == '.'
}

/// The byte offset where the run of characters of `s` from `start` that
/// `keep(char, next char)` accepts ends: always a char boundary, so a
/// multi-byte character is kept or left whole.
fn scan_while(s: &str, start: usize, keep: impl Fn(char, Option<char>) -> bool) -> usize {
    let mut chars = s[start..].char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        if !keep(c, chars.peek().map(|&(_, next)| next)) {
            return start + at;
        }
    }
    s.len()
}

fn render_term(term: &Term, prefixes: &Prefixes) -> String {
    match term {
        Term::Iri(iri) => prefixes.render(iri),
        Term::Blank(b) => format!("_:{}", b.as_str()),
        Term::Literal(lit) => render_literal(lit, prefixes),
    }
}

fn render_literal(lit: &Literal, prefixes: &Prefixes) -> String {
    let mut out = format!("\"{}\"", crate::nquads::escape(lit.lexical()));
    if let Some(lang) = lit.lang() {
        let _ = write!(out, "@{lang}");
    } else if let Some(dt) = lit.datatype_iri() {
        if dt.as_str() != crate::vocab::xsd::STRING {
            let _ = write!(out, "^^{}", prefixes.render(dt));
        }
    }
    out
}

/// Serializes triples as Turtle. Rejects quads in named graphs.
pub fn serialize<'a>(
    quads: impl IntoIterator<Item = &'a Quad>,
    prefixes: &Prefixes,
) -> Result<String, ModelError> {
    // Group by subject, then predicate, preserving sort order.
    let mut by_subject: BTreeMap<Term, BTreeMap<Term, Vec<Term>>> = BTreeMap::new();
    for quad in quads {
        if !matches!(quad.graph, GraphName::Default) {
            return Err(ModelError::Syntax(
                "Turtle cannot express named-graph quads; use N-Quads".into(),
            ));
        }
        by_subject
            .entry(quad.subject.clone())
            .or_default()
            .entry(quad.predicate.clone())
            .or_default()
            .push(quad.object.clone());
    }

    let mut out = String::new();
    for (prefix, ns) in &prefixes.map {
        let _ = writeln!(out, "@prefix {prefix}: <{ns}> .");
    }
    if !prefixes.map.is_empty() && !by_subject.is_empty() {
        out.push('\n');
    }
    for (subject, predicates) in by_subject {
        let _ = write!(out, "{}", render_term(&subject, prefixes));
        let n_preds = predicates.len();
        for (i, (predicate, mut objects)) in predicates.into_iter().enumerate() {
            objects.sort();
            objects.dedup();
            let pred_text =
                if predicate.is_iri() && predicate.str_value() == crate::vocab::rdf::TYPE {
                    "a".to_string()
                } else {
                    render_term(&predicate, prefixes)
                };
            let obj_text: Vec<String> = objects.iter().map(|o| render_term(o, prefixes)).collect();
            let _ = write!(out, " {pred_text} {}", obj_text.join(", "));
            out.push_str(if i + 1 == n_preds { " .\n" } else { " ;\n   " });
        }
    }
    Ok(out)
}

/// Parses the Turtle subset our serializer emits (plus plain statements):
/// `@prefix` declarations, prefixed names, `a`, `;`/`,` abbreviations,
/// IRIs, blank nodes, and literals with language tags or datatypes.
pub fn parse(input: &str) -> Result<Vec<Triple>, ModelError> {
    let mut prefixes = Prefixes::new();
    let mut triples = Vec::new();
    let tokens = tokenize(input)?;
    let mut pos = 0usize;

    while pos < tokens.len() {
        if tokens[pos] == Tok::AtPrefix {
            // @prefix pfx: <ns> .
            let Some(Tok::PName(prefix, local)) = tokens.get(pos + 1) else {
                return Err(ModelError::Syntax("expected prefix name".into()));
            };
            if !local.is_empty() {
                return Err(ModelError::Syntax("malformed @prefix".into()));
            }
            let Some(Tok::IriRef(ns)) = tokens.get(pos + 2) else {
                return Err(ModelError::Syntax("expected namespace IRI".into()));
            };
            if tokens.get(pos + 3) != Some(&Tok::Dot) {
                return Err(ModelError::Syntax("@prefix must end with '.'".into()));
            }
            prefixes.add(prefix, ns);
            pos += 4;
            continue;
        }
        // subject predicateObjectList .
        let subject = parse_term(&tokens, &mut pos, &prefixes)?;
        loop {
            let predicate = if tokens.get(pos) == Some(&Tok::A) {
                pos += 1;
                Term::iri(crate::vocab::rdf::TYPE)
            } else {
                parse_term(&tokens, &mut pos, &prefixes)?
            };
            loop {
                let object = parse_term(&tokens, &mut pos, &prefixes)?;
                triples.push(Triple::new(subject.clone(), predicate.clone(), object)?);
                if tokens.get(pos) == Some(&Tok::Comma) {
                    pos += 1;
                } else {
                    break;
                }
            }
            if tokens.get(pos) == Some(&Tok::Semicolon) {
                pos += 1;
                // allow trailing ';' before '.'
                if tokens.get(pos) == Some(&Tok::Dot) {
                    break;
                }
            } else {
                break;
            }
        }
        if tokens.get(pos) != Some(&Tok::Dot) {
            return Err(ModelError::Syntax(format!(
                "expected '.', found {:?}",
                tokens.get(pos)
            )));
        }
        pos += 1;
    }
    Ok(triples)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    AtPrefix,
    IriRef(Arc<str>),
    PName(String, String),
    Blank(Arc<str>),
    Literal(Literal),
    A,
    Dot,
    Semicolon,
    Comma,
}

fn tokenize(input: &str) -> Result<Vec<Tok>, ModelError> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '@' => {
                if input[i..].starts_with("@prefix") {
                    out.push(Tok::AtPrefix);
                    i += "@prefix".len();
                } else {
                    return Err(ModelError::Syntax("unexpected '@'".into()));
                }
            }
            '<' => {
                let end = input[i + 1..]
                    .find('>')
                    .ok_or_else(|| ModelError::Syntax("unterminated IRI".into()))?;
                out.push(Tok::IriRef(Arc::from(&input[i + 1..i + 1 + end])));
                i += end + 2;
            }
            '.' => {
                out.push(Tok::Dot);
                i += 1;
            }
            ';' => {
                out.push(Tok::Semicolon);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '"' => {
                // literal with escapes, then optional @lang or ^^dt; text
                // without an escape is copied once, straight from the input
                let mut j = i + 1;
                let mut value = String::new();
                let mut copied = j;
                loop {
                    if j >= bytes.len() {
                        return Err(ModelError::Syntax("unterminated literal".into()));
                    }
                    match bytes[j] {
                        b'\\' => {
                            value.push_str(&input[copied..j]);
                            let escaped = input[j + 1..].chars().next().map_or(0, char::len_utf8);
                            let chunk = &input[j..j + 1 + escaped];
                            value.push_str(&crate::nquads::unescape(chunk)?);
                            j += 1 + escaped;
                            copied = j;
                        }
                        b'"' => break,
                        _ => j += 1,
                    }
                }
                let value: Arc<str> = if copied == i + 1 {
                    Arc::from(&input[copied..j])
                } else {
                    value.push_str(&input[copied..j]);
                    Arc::from(value)
                };
                j += 1;
                if input[j..].starts_with('@') {
                    let start = j + 1;
                    let mut k = start;
                    while k < bytes.len() && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'-')
                    {
                        k += 1;
                    }
                    let tag = Some(&input[start..k]);
                    out.push(Tok::Literal(Literal::from_text(value, None, tag)));
                    i = k;
                } else if input[j..].starts_with("^^") {
                    // datatype: IRI or pname, resolved by the parser later —
                    // tokenise as separate tokens for simplicity: emit the
                    // plain literal and let parse_term combine. To keep the
                    // tokenizer single-pass, resolve here for IRI refs only.
                    if input[j + 2..].starts_with('<') {
                        let end = input[j + 3..]
                            .find('>')
                            .ok_or_else(|| ModelError::Syntax("unterminated datatype".into()))?;
                        let dt = &input[j + 3..j + 3 + end];
                        let dt = Some(Iri::from_text(dt));
                        out.push(Tok::Literal(Literal::from_text(value, dt, None)));
                        i = j + 3 + end + 1;
                    } else {
                        // prefixed datatype: read the pname
                        let rest = &input[j + 2..];
                        let colon = rest
                            .find(':')
                            .ok_or_else(|| ModelError::Syntax("bad datatype pname".into()))?;
                        let prefix = &rest[..colon];
                        let k = scan_while(rest, colon + 1, |c, _| is_local_char(c));
                        // Trailing '.' is a statement terminator.
                        let local_end = colon + 1 + rest[colon + 1..k].trim_end_matches('.').len();
                        let local = &rest[colon + 1..local_end];
                        let dt = Iri::formatted(format_args!("{{pending:{prefix}}}{local}"));
                        out.push(Tok::Literal(Literal::from_text(value, Some(dt), None)));
                        i = j + 2 + local_end;
                    }
                } else {
                    out.push(Tok::Literal(Literal::from_text(value, None, None)));
                    i = j;
                }
            }
            '_' if bytes.get(i + 1) == Some(&b':') => {
                let start = i + 2;
                let k = scan_while(input, start, |c, _| is_local_char(c) && c != '.');
                out.push(Tok::Blank(Arc::from(&input[start..k])));
                i = k;
            }
            _ => {
                // keyword 'a' or prefixed name
                let start = i;
                // A '.' before whitespace or the end ends the statement.
                let k = scan_while(input, start, |c, next| {
                    (is_local_char(c) || c == ':')
                        && !(c == '.' && next.is_none_or(char::is_whitespace))
                });
                let word = &input[start..k];
                if word == "a" {
                    out.push(Tok::A);
                } else if let Some(colon) = word.find(':') {
                    out.push(Tok::PName(
                        word[..colon].to_string(),
                        word[colon + 1..].to_string(),
                    ));
                } else {
                    return Err(ModelError::Syntax(format!("unexpected token {word:?}")));
                }
                i = k;
            }
        }
    }
    Ok(out)
}

fn parse_term(tokens: &[Tok], pos: &mut usize, prefixes: &Prefixes) -> Result<Term, ModelError> {
    let tok = tokens
        .get(*pos)
        .ok_or_else(|| ModelError::Syntax("unexpected end of input".into()))?;
    *pos += 1;
    match tok {
        Tok::IriRef(iri) => Ok(Term::Iri(Iri::from_text(Arc::clone(iri)))),
        Tok::PName(prefix, local) => prefixes
            .resolve(prefix, local)
            .map(Term::Iri)
            .ok_or_else(|| ModelError::Syntax(format!("undeclared prefix: {prefix}:"))),
        Tok::Blank(label) => Ok(Term::Blank(BlankNode::from_text(Arc::clone(label)))),
        Tok::Literal(lit) => {
            // Resolve pending prefixed datatypes.
            if let Some(dt) = lit.datatype_iri() {
                if let Some(rest) = dt.as_str().strip_prefix("{pending:") {
                    let (prefix, local) = rest
                        .split_once('}')
                        .ok_or_else(|| ModelError::Syntax("bad pending datatype".into()))?;
                    let resolved = prefixes.resolve(prefix, local).ok_or_else(|| {
                        ModelError::Syntax(format!("undeclared prefix: {prefix}:"))
                    })?;
                    return Ok(Term::Literal(Literal::from_text(
                        lit.lexical(),
                        Some(resolved),
                        None,
                    )));
                }
            }
            Ok(Term::Literal(lit.clone()))
        }
        other => Err(ModelError::Syntax(format!(
            "expected term, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_triples() -> Vec<Quad> {
        vec![
            Quad::triple(
                Term::iri("http://pg/v1"),
                Term::iri("http://pg/k/name"),
                Term::string("Amy"),
            )
            .unwrap(),
            Quad::triple(
                Term::iri("http://pg/v1"),
                Term::iri("http://pg/k/age"),
                Term::int(23),
            )
            .unwrap(),
            Quad::triple(
                Term::iri("http://pg/v1"),
                Term::iri("http://pg/r/follows"),
                Term::iri("http://pg/v2"),
            )
            .unwrap(),
            Quad::triple(
                Term::iri("http://pg/v1"),
                Term::iri(crate::vocab::rdf::TYPE),
                Term::iri("http://schema/Person"),
            )
            .unwrap(),
        ]
    }

    #[test]
    fn serializes_with_prefixes_and_abbreviations() {
        let ttl = serialize(&sample_triples(), &Prefixes::paper_defaults()).unwrap();
        assert!(ttl.contains("@prefix pg: <http://pg/> ."));
        assert!(ttl.contains("pg:v1"));
        assert!(ttl.contains("key:name \"Amy\""));
        assert!(ttl.contains("rel:follows pg:v2"));
        assert!(ttl.contains("\"23\"^^xsd:int"));
        assert!(ttl.contains(" a <http://schema/Person>"));
        // Subject appears exactly once (grouped with ';').
        assert_eq!(ttl.matches("pg:v1").count(), 1);
    }

    #[test]
    fn rejects_named_graphs() {
        let quad = Quad::new(
            Term::iri("http://s"),
            Term::iri("http://p"),
            Term::iri("http://o"),
            GraphName::iri("http://g"),
        )
        .unwrap();
        assert!(serialize(&[quad], &Prefixes::new()).is_err());
    }

    #[test]
    fn roundtrip_through_parser() {
        let prefixes = Prefixes::paper_defaults();
        let original = sample_triples();
        let ttl = serialize(&original, &prefixes).unwrap();
        let parsed = parse(&ttl).unwrap();
        let mut expected: Vec<Triple> = original.into_iter().map(|q| q.into_triple()).collect();
        let mut got = parsed;
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn parses_handwritten_turtle() {
        let ttl = r#"
            @prefix rel: <http://pg/r/> .
            @prefix key: <http://pg/k/> .
            <http://pg/v1> rel:follows <http://pg/v2>, <http://pg/v3> ;
                key:name "Amy" .
            _:b1 key:note "a\nb" .
        "#;
        let triples = parse(ttl).unwrap();
        assert_eq!(triples.len(), 4);
        assert!(triples
            .iter()
            .any(|t| t.object == Term::iri("http://pg/v3")));
        assert!(triples
            .iter()
            .any(|t| t.subject == Term::blank("b1") && t.object == Term::string("a\nb")));
    }

    #[test]
    fn parses_typed_literals_with_prefixed_datatype() {
        let ttl = "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
                   <http://s> <http://p> \"5\"^^xsd:int .";
        let triples = parse(ttl).unwrap();
        assert_eq!(triples[0].object, Term::int(5));
    }

    #[test]
    fn undeclared_prefix_errors() {
        assert!(parse("<http://s> foo:bar <http://o> .").is_err());
    }

    /// A truncated `@prefix` is a syntax error, not an out-of-bounds read.
    #[test]
    fn truncated_prefix_is_a_syntax_error() {
        for ttl in ["@prefix", "@prefix ex:", "@prefix ex: <http://x/>"] {
            assert!(
                matches!(parse(ttl), Err(ModelError::Syntax(_))),
                "{ttl}: {:?}",
                parse(ttl)
            );
        }
    }

    /// Names, blank labels and escapes holding multi-byte characters are
    /// cut on character boundaries: an undeclared prefix or a bad escape
    /// is a syntax error, and declared names and blank labels parse.
    #[test]
    fn multibyte_names_split_on_char_boundaries() {
        for ttl in [
            "éx:a <http://a/p> <http://a/o> .",
            "<http://a/s> <http://a/p> \"\\é\" .",
            "<http://a/s> <http://a/p> \"5\"^^éx:t .",
        ] {
            assert!(
                matches!(parse(ttl), Err(ModelError::Syntax(_))),
                "{ttl}: {:?}",
                parse(ttl)
            );
        }
        let ttl = "@prefix éx: <http://a/> .\néx:sé <http://a/p> _:bé .";
        let triples = parse(ttl).unwrap();
        assert_eq!(triples[0].subject, Term::iri("http://a/sé"));
        assert_eq!(triples[0].object, Term::blank("bé"));
    }
}
