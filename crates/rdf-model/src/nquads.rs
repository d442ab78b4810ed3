//! N-Triples / N-Quads concrete syntax: serialization and a line-based
//! parser. This is the bulk-load interchange format of the store (Oracle
//! "supports fast bulk load of RDF data supplied in N-Quads format", §3.1).

use std::fmt::Write as _;
use std::sync::Arc;

use crate::error::ModelError;
use crate::term::{BlankNode, Iri, Literal, Term};
use crate::triple::{GraphName, Quad};

/// Escapes a literal lexical form for N-Triples output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`].
pub fn unescape(s: &str) -> Result<String, ModelError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let cp = u32::from_str_radix(&hex, 16)
                    .map_err(|_| ModelError::Syntax(format!("bad \\u escape: {hex}")))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| ModelError::Syntax(format!("bad codepoint {cp}")))?,
                );
            }
            Some('U') => {
                let hex: String = chars.by_ref().take(8).collect();
                let cp = u32::from_str_radix(&hex, 16)
                    .map_err(|_| ModelError::Syntax(format!("bad \\U escape: {hex}")))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| ModelError::Syntax(format!("bad codepoint {cp}")))?,
                );
            }
            other => {
                return Err(ModelError::Syntax(format!("bad escape: \\{:?}", other)));
            }
        }
    }
    Ok(out)
}

/// [`unescape`] into shared text: one allocation, copied straight from
/// `s` when it holds no escape.
pub(crate) fn unescape_text(s: &str) -> Result<Arc<str>, ModelError> {
    if s.contains('\\') {
        unescape(s).map(Arc::from)
    } else {
        Ok(Arc::from(s))
    }
}

/// Serializes quads as N-Quads text (one statement per line).
pub fn serialize<'a>(quads: impl IntoIterator<Item = &'a Quad>) -> String {
    let mut out = String::new();
    for quad in quads {
        let _ = writeln!(out, "{quad}");
    }
    out
}

/// Parses an N-Quads document. Blank lines and `#` comment lines are
/// skipped. Errors carry the 1-based line number.
pub fn parse(input: &str) -> Result<Vec<Quad>, ModelError> {
    let mut quads = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let quad = parse_line(line)
            .map_err(|e| ModelError::Syntax(format!("line {}: {e}", lineno + 1)))?;
        quads.push(quad);
    }
    Ok(quads)
}

/// Parses a single N-Quads statement (with or without trailing `.`).
pub fn parse_line(line: &str) -> Result<Quad, ModelError> {
    let mut cursor = Cursor::new(line);
    let subject = cursor.parse_term()?;
    let predicate = cursor.parse_term()?;
    let object = cursor.parse_term()?;
    cursor.skip_ws();
    let graph = if cursor.peek() == Some('.') || cursor.at_end() {
        GraphName::Default
    } else {
        let g = cursor.parse_term()?;
        GraphName::Named(g)
    };
    cursor.skip_ws();
    if cursor.peek() == Some('.') {
        cursor.bump();
    }
    cursor.skip_ws();
    if !cursor.at_end() {
        return Err(ModelError::Syntax(format!(
            "trailing content: {:?}",
            cursor.rest()
        )));
    }
    Quad::new(subject, predicate, object, graph)
}

struct Cursor<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Cursor { input, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn parse_term(&mut self) -> Result<Term, ModelError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => self.parse_iri().map(Term::Iri),
            Some('_') => self.parse_blank().map(Term::Blank),
            Some('"') => self.parse_literal().map(Term::Literal),
            other => Err(ModelError::Syntax(format!(
                "expected term, found {other:?}"
            ))),
        }
    }

    fn parse_iri(&mut self) -> Result<Iri, ModelError> {
        if self.peek() != Some('<') {
            return Err(ModelError::Syntax(format!(
                "expected '<', found {:?}",
                self.peek()
            )));
        }
        self.bump();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '>' {
                let iri = Iri::from_text(&self.input[start..self.pos]);
                self.bump();
                if !iri.is_plausible() {
                    return Err(ModelError::Syntax(format!("implausible IRI: {iri}")));
                }
                return Ok(iri);
            }
            self.bump();
        }
        Err(ModelError::Syntax("unterminated IRI".into()))
    }

    fn parse_blank(&mut self) -> Result<BlankNode, ModelError> {
        self.bump(); // '_'
        if self.peek() != Some(':') {
            return Err(ModelError::Syntax("expected _: blank node".into()));
        }
        self.bump();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_' || c == '-' || c == '.')
        {
            self.bump();
        }
        // A blank label may not end with '.'; back off if it does (the '.'
        // is the statement terminator).
        let mut end = self.pos;
        while end > start && self.input.as_bytes()[end - 1] == b'.' {
            end -= 1;
        }
        self.pos = end;
        if end == start {
            return Err(ModelError::Syntax("empty blank node label".into()));
        }
        Ok(BlankNode::from_text(&self.input[start..end]))
    }

    fn parse_literal(&mut self) -> Result<Literal, ModelError> {
        debug_assert_eq!(self.peek(), Some('"'));
        self.bump();
        let start = self.pos;
        loop {
            match self.peek() {
                Some('\\') => {
                    self.bump();
                    self.bump();
                }
                Some('"') => break,
                Some(_) => {
                    self.bump();
                }
                None => return Err(ModelError::Syntax("unterminated literal".into())),
            }
        }
        let raw = &self.input[start..self.pos];
        self.bump(); // closing quote
        let lexical = unescape_text(raw)?;
        match self.peek() {
            Some('@') => {
                self.bump();
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
                    self.bump();
                }
                if self.pos == start {
                    return Err(ModelError::Syntax("empty language tag".into()));
                }
                let tag = &self.input[start..self.pos];
                Ok(Literal::from_text(lexical, None, Some(tag)))
            }
            Some('^') => {
                self.bump();
                if self.peek() != Some('^') {
                    return Err(ModelError::Syntax("expected ^^ datatype".into()));
                }
                self.bump();
                let dt = self.parse_iri()?;
                Ok(Literal::from_text(lexical, Some(dt), None))
            }
            _ => Ok(Literal::from_text(lexical, None, None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::xsd;

    #[test]
    fn escape_roundtrip() {
        let original = "line1\nline2\t\"quoted\" back\\slash";
        assert_eq!(unescape(&escape(original)).unwrap(), original);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(unescape("caf\\u00e9").unwrap(), "café");
        assert_eq!(unescape("\\U0001F600").unwrap(), "😀");
        assert!(unescape("\\uZZZZ").is_err());
    }

    #[test]
    fn parse_triple_line() {
        let q = parse_line("<http://pg/v1> <http://pg/r/follows> <http://pg/v2> .").unwrap();
        assert_eq!(q.graph, GraphName::Default);
        assert_eq!(q.subject, Term::iri("http://pg/v1"));
    }

    #[test]
    fn parse_quad_line() {
        let q = parse_line("<http://pg/v1> <http://pg/r/follows> <http://pg/v2> <http://pg/e3> .")
            .unwrap();
        assert_eq!(q.graph, GraphName::iri("http://pg/e3"));
    }

    /// A datatype must be an IRI in angle brackets: the parser used to
    /// skip whatever character stood in place of the '<'.
    #[test]
    fn datatype_without_angle_bracket_is_a_syntax_error() {
        let line = "<http://a/s> <http://a/p> \"5\"^^http://x> .";
        assert!(
            matches!(parse_line(line), Err(ModelError::Syntax(_))),
            "{:?}",
            parse_line(line)
        );
    }

    #[test]
    fn parse_typed_literal() {
        let q = parse_line(&format!(
            "<http://pg/v1> <http://pg/k/age> \"23\"^^<{}> .",
            xsd::INT
        ))
        .unwrap();
        assert_eq!(q.object, Term::int(23));
    }

    #[test]
    fn parse_lang_literal() {
        let q = parse_line("<http://s> <http://p> \"train\"@en-US .").unwrap();
        let lit = q.object.as_literal().unwrap();
        assert_eq!(lit.lexical(), "train");
        assert_eq!(lit.lang(), Some("en-us"));
    }

    #[test]
    fn parse_blank_nodes() {
        let q = parse_line("_:b1 <http://p> _:b2 .").unwrap();
        assert_eq!(q.subject, Term::blank("b1"));
        assert_eq!(q.object, Term::blank("b2"));
    }

    #[test]
    fn parse_escaped_literal() {
        let q = parse_line("<http://s> <http://p> \"a\\\"b\\nc\" .").unwrap();
        assert_eq!(q.object.as_literal().unwrap().lexical(), "a\"b\nc");
    }

    #[test]
    fn parse_document_skips_comments_and_blank_lines() {
        let doc = "# header\n\n<http://s> <http://p> \"v\" .\n<http://s> <http://p2> <http://o> <http://g> .\n";
        let quads = parse(doc).unwrap();
        assert_eq!(quads.len(), 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let doc = "<http://s> <http://p> \"v\" .\nnot a statement\n";
        let err = parse(doc).unwrap_err().to_string();
        assert!(err.contains("line 2"), "error was: {err}");
    }

    #[test]
    fn rejects_literal_subject() {
        assert!(parse_line("\"lit\" <http://p> <http://o> .").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_line("<http://s> <http://p> <http://o> . extra").is_err());
    }

    #[test]
    fn serialize_then_parse_roundtrips() {
        let quads = vec![
            Quad::triple(
                Term::iri("http://s"),
                Term::iri("http://p"),
                Term::string("v\n2"),
            )
            .unwrap(),
            Quad::new(
                Term::blank("b"),
                Term::iri("http://p"),
                Term::int(23),
                GraphName::iri("http://g"),
            )
            .unwrap(),
        ];
        let text = serialize(&quads);
        assert_eq!(parse(&text).unwrap(), quads);
    }
}
