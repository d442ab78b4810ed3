//! RDF terms: IRIs, blank nodes, and literals.
//!
//! An RDF term occupies one of the four positions of a [`crate::Quad`].
//! The RDF 1.1 restrictions on which term kinds may appear in which
//! position are enforced by [`crate::Triple::new`] / [`crate::Quad::new`].

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::vocab::xsd;

/// An Internationalized Resource Identifier.
///
/// Stored as the bare IRI string (without the `<` `>` delimiters used by
/// the N-Triples concrete syntax), in shared text: a clone bumps a
/// reference count, and equality, hashing and order see only the text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Arc<str>);

impl Iri {
    /// Creates an IRI from any string-like value.
    ///
    /// No syntactic validation beyond "non-empty, no angle brackets or
    /// whitespace" is performed; the store treats IRIs as opaque keys, as
    /// RDF stores generally do for performance.
    pub fn new(iri: impl Into<String>) -> Self {
        Iri(iri.into().into())
    }

    /// An IRI over `text` as one allocation: a `&str` is copied once, an
    /// `Arc<str>` is shared as it is. Parsers build terms through this
    /// rather than through a `String` that [`Iri::new`] would copy again.
    pub fn from_text(text: impl Into<Arc<str>>) -> Self {
        Iri(text.into())
    }

    /// An IRI formatted from `args` in one allocation, e.g.
    /// `Iri::formatted(format_args!("{ns}v{id}"))`: short text is formatted
    /// on the stack and copied once, where `Iri::new(format!(..))` copies
    /// a `String` again.
    pub fn formatted(args: fmt::Arguments<'_>) -> Self {
        Iri(format_text(args))
    }

    /// The bare IRI string.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if the IRI is syntactically plausible (non-empty, free of
    /// whitespace and angle brackets). Used by the strict N-Quads parser.
    pub fn is_plausible(&self) -> bool {
        !self.0.is_empty()
            && !self
                .0
                .chars()
                .any(|c| c.is_whitespace() || c == '<' || c == '>' || c == '"')
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::from_text(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri::new(s)
    }
}

/// A blank node, identified by a store-local label.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    /// Creates a blank node with the given label (without the `_:` prefix).
    pub fn new(label: impl Into<String>) -> Self {
        BlankNode(label.into().into())
    }

    /// A blank node over `label` as one allocation, like [`Iri::from_text`].
    pub fn from_text(label: impl Into<Arc<str>>) -> Self {
        BlankNode(label.into())
    }

    /// The label without the `_:` prefix.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// An RDF literal: a lexical form plus either a language tag or a datatype.
///
/// Following RDF 1.1, a literal without an explicit datatype or language tag
/// has datatype `xsd:string`; a language-tagged literal has datatype
/// `rdf:langString` (we record just the tag). Each part is shared text,
/// as in [`Iri`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Arc<str>,
    /// `None` means plain `xsd:string` (or language-tagged when `lang` is set).
    datatype: Option<Iri>,
    lang: Option<Arc<str>>,
}

impl Literal {
    /// A plain string literal (`xsd:string`).
    pub fn string(value: impl Into<String>) -> Self {
        Literal::from_text(value.into(), None, None)
    }

    /// A language-tagged string, e.g. `"train"@en-us`.
    pub fn lang_string(value: impl Into<String>, lang: impl Into<String>) -> Self {
        Literal::from_text(value.into(), None, Some(&lang.into()))
    }

    /// A typed literal with an explicit datatype IRI.
    pub fn typed(value: impl Into<String>, datatype: Iri) -> Self {
        Literal::from_text(value.into(), Some(datatype), None)
    }

    /// A literal over `lexical` as one allocation, like [`Iri::from_text`]:
    /// language-tagged when `lang` is given (lowercased; `datatype` is then
    /// ignored), else typed when `datatype` is, else a plain string.
    pub fn from_text(
        lexical: impl Into<Arc<str>>,
        datatype: Option<Iri>,
        lang: Option<&str>,
    ) -> Self {
        let lang = lang.map(|tag| {
            if tag.bytes().any(|b| b.is_ascii_uppercase()) {
                Arc::from(tag.to_ascii_lowercase())
            } else {
                Arc::from(tag)
            }
        });
        Literal {
            lexical: lexical.into(),
            datatype: datatype.filter(|_| lang.is_none()),
            lang,
        }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::of_xsd(format_text(format_args!("{value}")), xsd::INTEGER)
    }

    /// An `xsd:int` literal (the paper maps property-graph NUMBER values
    /// through `xsd:int`, e.g. `"23"^^<...#int>`).
    pub fn int(value: i32) -> Self {
        Literal::of_xsd(format_text(format_args!("{value}")), xsd::INT)
    }

    /// An `xsd:double` literal.
    pub fn double(value: f64) -> Self {
        Literal::of_xsd(format_double(value), xsd::DOUBLE)
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal::of_xsd(
            Arc::from(if value { "true" } else { "false" }),
            xsd::BOOLEAN,
        )
    }

    fn of_xsd(lexical: Arc<str>, datatype: &str) -> Self {
        Literal::from_text(lexical, Some(Iri::from_text(datatype)), None)
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The explicit datatype IRI, if any. Plain and language-tagged strings
    /// return `None`.
    pub fn datatype_iri(&self) -> Option<&Iri> {
        self.datatype.as_ref()
    }

    /// The effective datatype IRI string: explicit datatype, or
    /// `rdf:langString` for tagged literals, or `xsd:string`.
    pub fn effective_datatype(&self) -> &str {
        if let Some(dt) = &self.datatype {
            dt.as_str()
        } else if self.lang.is_some() {
            crate::vocab::rdf::LANG_STRING
        } else {
            xsd::STRING
        }
    }

    /// The language tag, lowercased, if any.
    pub fn lang(&self) -> Option<&str> {
        self.lang.as_deref()
    }

    /// Attempts a numeric interpretation of the literal.
    pub fn as_f64(&self) -> Option<f64> {
        match self.effective_datatype() {
            xsd::INT | xsd::INTEGER | xsd::LONG | xsd::DECIMAL | xsd::DOUBLE | xsd::FLOAT => {
                self.lexical.trim().parse::<f64>().ok()
            }
            _ => None,
        }
    }

    /// Attempts an integer interpretation of the literal.
    pub fn as_i64(&self) -> Option<i64> {
        match self.effective_datatype() {
            xsd::INT | xsd::INTEGER | xsd::LONG => self.lexical.trim().parse::<i64>().ok(),
            _ => None,
        }
    }

    /// Attempts a boolean interpretation.
    pub fn as_bool(&self) -> Option<bool> {
        if self.effective_datatype() == xsd::BOOLEAN {
            match &*self.lexical {
                "true" | "1" => Some(true),
                "false" | "0" => Some(false),
                _ => None,
            }
        } else {
            None
        }
    }

    /// Returns the canonicalised form of this literal: numeric literals with
    /// equal values map to the same canonical literal (this is what makes the
    /// store's "canonical object" C column canonical, mirroring Oracle's
    /// value canonicalisation).
    pub fn canonical(&self) -> Cow<'_, Literal> {
        match self.effective_datatype() {
            xsd::INT | xsd::INTEGER | xsd::LONG => {
                if let Ok(v) = self.lexical.trim().parse::<i64>() {
                    let lex = v.to_string();
                    if *lex == *self.lexical && self.datatype.is_some() {
                        Cow::Borrowed(self)
                    } else {
                        Cow::Owned(Literal::typed(
                            lex,
                            self.datatype
                                .clone()
                                .unwrap_or_else(|| Iri::new(xsd::INTEGER)),
                        ))
                    }
                } else {
                    Cow::Borrowed(self)
                }
            }
            xsd::DOUBLE | xsd::FLOAT => {
                if let Ok(v) = self.lexical.trim().parse::<f64>() {
                    let lex = format_double(v);
                    if *lex == *self.lexical {
                        Cow::Borrowed(self)
                    } else {
                        Cow::Owned(Literal::from_text(lex, self.datatype.clone(), None))
                    }
                } else {
                    Cow::Borrowed(self)
                }
            }
            _ => Cow::Borrowed(self),
        }
    }
}

fn format_double(value: f64) -> Arc<str> {
    // A stable lexical form: integral doubles keep one decimal place so the
    // datatype stays visually distinct from integers.
    if value == value.trunc() && value.is_finite() && value.abs() < 1e15 {
        format_text(format_args!("{:.1}", value))
    } else {
        format_text(format_args!("{}", value))
    }
}

/// Shared text formatted from `args` in one allocation: text of up to
/// [`STACK_TEXT`] bytes is formatted into a stack buffer and copied once;
/// longer text goes through a `String`.
fn format_text(args: fmt::Arguments<'_>) -> Arc<str> {
    if let Some(text) = args.as_str() {
        return Arc::from(text);
    }
    let mut stack = StackText {
        buf: [0; STACK_TEXT],
        len: 0,
    };
    match fmt::write(&mut stack, args) {
        Ok(()) => Arc::from(stack.as_str()),
        Err(_) => Arc::from(fmt::format(args)),
    }
}

/// Bytes [`format_text`] formats on the stack.
const STACK_TEXT: usize = 128;

/// A fixed stack buffer that fails a write once it is full.
struct StackText {
    buf: [u8; STACK_TEXT],
    len: usize,
}

impl StackText {
    fn as_str(&self) -> &str {
        // Only whole `&str` pieces were appended.
        std::str::from_utf8(&self.buf[..self.len]).expect("appended whole strs")
    }
}

impl fmt::Write for StackText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let dst = self.buf.get_mut(self.len..end).ok_or(fmt::Error)?;
        dst.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", crate::nquads::escape(&self.lexical))?;
        if let Some(lang) = &self.lang {
            write!(f, "@{}", lang)
        } else if let Some(dt) = &self.datatype {
            write!(f, "^^{}", dt)
        } else {
            Ok(())
        }
    }
}

/// Any RDF term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference.
    Iri(Iri),
    /// A blank node.
    Blank(BlankNode),
    /// A literal value.
    Literal(Literal),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl Into<String>) -> Self {
        Term::Iri(Iri::new(iri))
    }

    /// Convenience constructor for a blank-node term.
    pub fn blank(label: impl Into<String>) -> Self {
        Term::Blank(BlankNode::new(label))
    }

    /// Convenience constructor for a plain string literal.
    pub fn string(value: impl Into<String>) -> Self {
        Term::Literal(Literal::string(value))
    }

    /// Convenience constructor for an `xsd:int` literal.
    pub fn int(value: i32) -> Self {
        Term::Literal(Literal::int(value))
    }

    /// True for [`Term::Iri`]; this is what SPARQL's `isIRI()` tests.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True for [`Term::Blank`].
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// True for [`Term::Literal`]; this is what SPARQL's `isLiteral()` tests.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The literal if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(lit) => Some(lit),
            _ => None,
        }
    }

    /// SPARQL `STR()`: the lexical form for literals, the IRI string for
    /// IRIs, the label for blank nodes.
    pub fn str_value(&self) -> &str {
        match self {
            Term::Iri(iri) => iri.as_str(),
            Term::Blank(b) => b.as_str(),
            Term::Literal(lit) => lit.lexical(),
        }
    }

    /// A copy of this term whose text shares no allocation with `self`:
    /// one fresh allocation per text part. The dictionaries intern through
    /// it, so a stored term never keeps a caller's allocation alive.
    pub(crate) fn unshared(&self) -> Term {
        let text = |t: &str| Arc::<str>::from(t);
        match self {
            Term::Iri(iri) => Term::Iri(Iri(text(iri.as_str()))),
            Term::Blank(b) => Term::Blank(BlankNode(text(b.as_str()))),
            Term::Literal(lit) => Term::Literal(Literal {
                lexical: text(&lit.lexical),
                datatype: lit.datatype.as_ref().map(|d| Iri(text(d.as_str()))),
                lang: lit.lang.as_deref().map(text),
            }),
        }
    }

    /// Whether this term is allowed in the subject position.
    pub fn valid_as_subject(&self) -> bool {
        !self.is_literal()
    }

    /// Whether this term is allowed in the predicate position.
    pub fn valid_as_predicate(&self) -> bool {
        self.is_iri()
    }

    /// Whether this term is allowed as a graph name.
    pub fn valid_as_graph(&self) -> bool {
        !self.is_literal()
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(iri) => iri.fmt(f),
            Term::Blank(b) => b.fmt(f),
            Term::Literal(lit) => lit.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(iri: Iri) -> Self {
        Term::Iri(iri)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(lit: Literal) -> Self {
        Term::Literal(lit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_uses_angle_brackets() {
        assert_eq!(Iri::new("http://pg/v1").to_string(), "<http://pg/v1>");
    }

    #[test]
    fn iri_plausibility() {
        assert!(Iri::new("http://pg/v1").is_plausible());
        assert!(!Iri::new("").is_plausible());
        assert!(!Iri::new("has space").is_plausible());
        assert!(!Iri::new("has<bracket").is_plausible());
    }

    #[test]
    fn blank_node_display() {
        assert_eq!(BlankNode::new("b0").to_string(), "_:b0");
    }

    #[test]
    fn plain_literal_display() {
        assert_eq!(Literal::string("Amy").to_string(), "\"Amy\"");
    }

    #[test]
    fn typed_literal_display() {
        assert_eq!(
            Literal::int(23).to_string(),
            "\"23\"^^<http://www.w3.org/2001/XMLSchema#int>"
        );
    }

    #[test]
    fn lang_literal_display_and_tag_lowercased() {
        let lit = Literal::lang_string("train", "EN-US");
        assert_eq!(lit.to_string(), "\"train\"@en-us");
        assert_eq!(lit.lang(), Some("en-us"));
    }

    #[test]
    fn literal_escaping_in_display() {
        assert_eq!(
            Literal::string("a\"b\\c\nd").to_string(),
            "\"a\\\"b\\\\c\\nd\""
        );
    }

    #[test]
    fn effective_datatype_defaults() {
        assert_eq!(Literal::string("x").effective_datatype(), xsd::STRING);
        assert_eq!(
            Literal::lang_string("x", "en").effective_datatype(),
            crate::vocab::rdf::LANG_STRING
        );
        assert_eq!(Literal::int(1).effective_datatype(), xsd::INT);
    }

    #[test]
    fn numeric_interpretation() {
        assert_eq!(Literal::int(23).as_i64(), Some(23));
        assert_eq!(Literal::int(23).as_f64(), Some(23.0));
        assert_eq!(Literal::double(1.5).as_f64(), Some(1.5));
        assert_eq!(Literal::string("23").as_i64(), None);
    }

    #[test]
    fn boolean_interpretation() {
        assert_eq!(Literal::boolean(true).as_bool(), Some(true));
        assert_eq!(Literal::boolean(false).as_bool(), Some(false));
        assert_eq!(Literal::string("true").as_bool(), None);
    }

    #[test]
    fn canonicalisation_merges_equal_numbers() {
        let a = Literal::typed("023", Iri::new(xsd::INT));
        let b = Literal::typed("23", Iri::new(xsd::INT));
        assert_eq!(a.canonical().into_owned(), b.canonical().into_owned());
    }

    #[test]
    fn canonicalisation_is_identity_for_strings() {
        let a = Literal::string("023");
        assert_eq!(a.canonical().as_ref(), &a);
    }

    #[test]
    fn double_formatting_keeps_decimal_point() {
        assert_eq!(Literal::double(2.0).lexical(), "2.0");
        assert_eq!(Literal::double(2.5).lexical(), "2.5");
    }

    #[test]
    fn term_kind_predicates() {
        assert!(Term::iri("http://x").is_iri());
        assert!(Term::blank("b").is_blank());
        assert!(Term::string("s").is_literal());
        assert!(!Term::string("s").is_iri());
    }

    #[test]
    fn term_position_validity() {
        assert!(Term::iri("http://x").valid_as_subject());
        assert!(Term::blank("b").valid_as_subject());
        assert!(!Term::string("s").valid_as_subject());
        assert!(Term::iri("http://x").valid_as_predicate());
        assert!(!Term::blank("b").valid_as_predicate());
        assert!(!Term::string("s").valid_as_graph());
    }

    #[test]
    fn str_value_matches_sparql_str() {
        assert_eq!(Term::iri("http://x").str_value(), "http://x");
        assert_eq!(Term::string("abc").str_value(), "abc");
        assert_eq!(Term::blank("b1").str_value(), "b1");
    }
}
