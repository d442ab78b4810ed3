//! Tokenizer for the SPARQL subset.
//!
//! One span-based core finds and checks every lexeme without allocating.
//! [`tokenize`] turns its lexemes into [`Token`]s for the parser, which
//! allocate only the text a term keeps;
//! `shape` walks the same lexemes to lift a query's constants out of
//! its text, which is what the plan cache keys on.

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::SparqlError;

/// A lexical token. A token that becomes a term's text owns it as shared
/// text, so the parser moves it into the term without a copy; the others
/// borrow their text from the input and allocate nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `<...>` IRI reference (content without brackets).
    IriRef(Arc<str>),
    /// Prefixed name `pfx:local` (either part may be empty).
    PName(&'a str, &'a str),
    /// `?name` / `$name`.
    Var(&'a str),
    /// Blank node label `_:b`.
    BlankLabel(Arc<str>),
    /// String literal content (unescaped), with optional language tag or
    /// datatype recorded by the parser from following tokens.
    String(Arc<str>),
    /// Language tag from `@en-us`.
    LangTag(&'a str),
    /// Integer literal.
    Integer(i64),
    /// Decimal/double literal.
    Double(f64),
    /// Bare keyword or identifier (uppercased for keywords at parse time).
    Word(&'a str),
    /// `a` is also a Word; punctuation below.
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `/`
    Slash,
    /// `|`
    Pipe,
    /// `^` (path inverse)
    Caret,
    /// `^^` (datatype)
    CaretCaret,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `?` as path modifier is indistinguishable from an empty var at lex
    /// time; a lone `?` with no name lexes to `QuestionMark`.
    QuestionMark,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
}

/// A lexeme of the span-based core: a token whose text is still a span
/// of the input, so finding and checking it allocates nothing.
enum Lexeme {
    /// A token that owns no text: punctuation, operators and numbers.
    Plain(Token<'static>),
    /// `<...>`: the span between the brackets.
    Iri(usize, usize),
    /// `pfx:local`: the prefix span and the local span.
    PName(usize, usize, usize, usize),
    /// `?name` / `$name`: the name span.
    Var(usize, usize),
    /// `_:label`: the label span.
    Blank(usize, usize),
    /// A quoted string: the span between the quotes, escapes undecoded
    /// (but already checked).
    Str(usize, usize),
    /// `@tag`: the tag span.
    Lang(usize, usize),
    /// A bare word.
    Word(usize, usize),
}

impl Lexeme {
    fn into_token(self, input: &str) -> Token<'_> {
        let text = |a: usize, b: usize| &input[a..b];
        match self {
            Lexeme::Plain(token) => token,
            Lexeme::Iri(a, b) => Token::IriRef(Arc::from(text(a, b))),
            Lexeme::PName(a, b, c, d) => Token::PName(text(a, b), text(c, d)),
            Lexeme::Var(a, b) => Token::Var(text(a, b)),
            Lexeme::Blank(a, b) => Token::BlankLabel(Arc::from(text(a, b))),
            Lexeme::Str(a, b) => Token::String(Arc::from(unescape(text(a, b)))),
            Lexeme::Lang(a, b) => Token::LangTag(text(a, b)),
            Lexeme::Word(a, b) => Token::Word(text(a, b)),
        }
    }
}

/// The span-based core both [`tokenize`] and [`shape`] walk.
struct Scanner<'a> {
    input: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(input: &'a str) -> Self {
        Scanner { input, pos: 0 }
    }

    /// The next lexeme and the byte offset its source text starts at
    /// (it ends at `self.pos`), or `None` at the end of the input.
    fn next(&mut self) -> Result<Option<(Lexeme, usize)>, SparqlError> {
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b if (b as char).is_whitespace() => self.pos += 1,
                b'#' => {
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => {
                    let start = self.pos;
                    let (lexeme, end) = self.lexeme(start)?;
                    self.pos = end;
                    return Ok(Some((lexeme, start)));
                }
            }
        }
        Ok(None)
    }

    /// The lexeme starting at `i` (not whitespace or a comment) and the
    /// offset just past it.
    fn lexeme(&self, i: usize) -> Result<(Lexeme, usize), SparqlError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let next = bytes.get(i + 1).copied();
        let plain = |token: Token<'static>, len: usize| Ok((Lexeme::Plain(token), i + len));
        match bytes[i] as char {
            '{' => plain(Token::LBrace, 1),
            '}' => plain(Token::RBrace, 1),
            '(' => plain(Token::LParen, 1),
            ')' => plain(Token::RParen, 1),
            ';' => plain(Token::Semicolon, 1),
            ',' => plain(Token::Comma, 1),
            '/' => plain(Token::Slash, 1),
            '*' => plain(Token::Star, 1),
            '+' => plain(Token::Plus, 1),
            '-' => plain(Token::Minus, 1),
            '=' => plain(Token::Eq, 1),
            '.' => plain(Token::Dot, 1),
            '|' if next == Some(b'|') => plain(Token::OrOr, 2),
            '|' => plain(Token::Pipe, 1),
            '&' if next == Some(b'&') => plain(Token::AndAnd, 2),
            '&' => Err(SparqlError::Parse(format!("stray '&' at byte {i}"))),
            '^' if next == Some(b'^') => plain(Token::CaretCaret, 2),
            '^' => plain(Token::Caret, 1),
            '!' if next == Some(b'=') => plain(Token::Ne, 2),
            '!' => plain(Token::Bang, 1),
            '>' if next == Some(b'=') => plain(Token::Ge, 2),
            '>' => plain(Token::Gt, 1),
            // Either an IRIREF or a comparison. An IRIREF closes with '>'
            // before any whitespace or quote.
            '<' => match scan_iri_end(bytes, i + 1) {
                Some(end) => Ok((Lexeme::Iri(i + 1, end), end + 1)),
                None if next == Some(b'=') => plain(Token::Le, 2),
                None => plain(Token::Lt, 1),
            },
            '?' | '$' => {
                let end = name_end(bytes, i + 1);
                if end == i + 1 {
                    plain(Token::QuestionMark, 1)
                } else {
                    Ok((Lexeme::Var(i + 1, end), end))
                }
            }
            '"' | '\'' => {
                let end = scan_string_end(bytes, i)?;
                Ok((Lexeme::Str(i + 1, end - 1), end))
            }
            '@' => {
                let mut end = i + 1;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'-')
                {
                    end += 1;
                }
                if end == i + 1 {
                    return Err(SparqlError::Parse("empty language tag".into()));
                }
                Ok((Lexeme::Lang(i + 1, end), end))
            }
            '_' if next == Some(b':') => {
                let end = name_end(bytes, i + 2);
                Ok((Lexeme::Blank(i + 2, end), end))
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                let mut is_double = false;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && bytes.get(j + 1).is_some_and(|b| b.is_ascii_digit())
                {
                    is_double = true;
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                    is_double = true;
                    j += 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                let text = &input[i..j];
                let bad = || SparqlError::Parse(format!("bad number {text}"));
                let token = if is_double {
                    Token::Double(text.parse().map_err(|_| bad())?)
                } else {
                    Token::Integer(text.parse().map_err(|_| bad())?)
                };
                Ok((Lexeme::Plain(token), j))
            }
            c if c.is_alphabetic() || c == '_' => {
                let end = name_end(bytes, i);
                // Prefixed name? `pfx:local` (local may be empty or start
                // with '#'/digits etc. — we accept name chars and '#').
                if end < bytes.len() && bytes[end] == b':' {
                    let local_end = local_end(bytes, end + 1);
                    Ok((Lexeme::PName(i, end, end + 1, local_end), local_end))
                } else {
                    Ok((Lexeme::Word(i, end), end))
                }
            }
            // Default-prefix name `:local`.
            ':' => {
                let end = local_end(bytes, i + 1);
                Ok((Lexeme::PName(i, i, i + 1, end), end))
            }
            other => Err(SparqlError::Parse(format!(
                "unexpected character {other:?} at byte {i}"
            ))),
        }
    }
}

/// Tokenizes a query string.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>, SparqlError> {
    let mut scanner = Scanner::new(input);
    let mut tokens = Vec::new();
    while let Some((lexeme, _)) = scanner.next()? {
        tokens.push(lexeme.into_token(input));
    }
    Ok(tokens)
}

/// What a lifted constant was in the text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) enum ParamKind {
    /// An `<...>` IRI reference.
    #[default]
    Iri,
    /// A plain `"..."` string (no language tag, no datatype).
    Str,
}

/// A constant [`shape`] lifted out of a query text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Param {
    /// IRI or plain string.
    pub kind: ParamKind,
    /// Index of the constant's token in `tokenize(text)`.
    pub token: usize,
    /// Span of its content in the text (escapes undecoded).
    start: usize,
    end: usize,
}

/// Params a [`Shape`] holds without allocating.
const INLINE_PARAMS: usize = 8;

/// A query text split into its shape and the constants lifted out of it.
#[derive(Debug, Clone)]
pub(crate) struct Shape<'a> {
    /// The text with every lifted constant emptied in place: `<>` for an
    /// IRI, `""` for a string. It tokenizes exactly like the text with
    /// those constants emptied, so two texts with the same key differ in
    /// the values of their lifted constants and nothing else.
    pub key: String,
    text: &'a str,
    inline: [Param; INLINE_PARAMS],
    len: usize,
    /// Every param, once there are more than fit inline.
    spilled: Vec<Param>,
}

impl<'a> Shape<'a> {
    fn new(text: &'a str, key: String) -> Self {
        Shape {
            key,
            text,
            inline: [Param::default(); INLINE_PARAMS],
            len: 0,
            spilled: Vec::new(),
        }
    }

    fn push(&mut self, param: Param) {
        if self.len < INLINE_PARAMS {
            self.inline[self.len] = param;
        } else {
            if self.spilled.is_empty() {
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.push(param);
        }
        self.len += 1;
    }

    /// The lifted constants, in text order.
    pub fn params(&self) -> &[Param] {
        if self.len <= INLINE_PARAMS {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }

    /// A param's value: the IRI's content or the string's unescaped
    /// content, exactly as [`tokenize`] decodes it; borrowed from the text
    /// unless it holds escapes.
    pub fn value(&self, param: &Param) -> Cow<'a, str> {
        let content = &self.text[param.start..param.end];
        match param.kind {
            ParamKind::Iri => Cow::Borrowed(content),
            ParamKind::Str => unescape(content),
        }
    }
}

/// Where [`shape`] is in the PREFIX/BASE prologue, whose IRIs are never
/// lifted.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Prologue {
    /// Expecting `PREFIX`, `BASE` or the end of the prologue.
    Keyword,
    /// After `PREFIX`.
    PrefixName,
    /// After `PREFIX pfx:`.
    PrefixIri,
    /// After a prefix declaration, which may end with `.`.
    PrefixDot,
    /// After `BASE`.
    Base,
    /// Past the prologue.
    Body,
}

impl Prologue {
    fn next(self, lexeme: &Lexeme, input: &str) -> Prologue {
        match self {
            Prologue::Body => Prologue::Body,
            Prologue::PrefixName => Prologue::PrefixIri,
            Prologue::PrefixIri => Prologue::PrefixDot,
            Prologue::Base => Prologue::Keyword,
            Prologue::PrefixDot if matches!(lexeme, Lexeme::Plain(Token::Dot)) => Prologue::Keyword,
            Prologue::Keyword | Prologue::PrefixDot => match lexeme {
                Lexeme::Word(a, b) if input[*a..*b].eq_ignore_ascii_case("PREFIX") => {
                    Prologue::PrefixName
                }
                Lexeme::Word(a, b) if input[*a..*b].eq_ignore_ascii_case("BASE") => Prologue::Base,
                _ => Prologue::Body,
            },
        }
    }
}

/// Lifts a query's constants out of its text, walking the same lexemes
/// as [`tokenize`] without allocating per token. Lifted, outside the
/// PREFIX/BASE prologue: `<...>` IRI references (except a literal's
/// `^^` datatype) and plain strings not followed by `@lang` or `^^`.
/// Prefixed names, numbers, and typed or language-tagged literals stay in
/// the shape. A query with a `BASE` is its own shape, with no params.
pub(crate) fn shape(text: &str) -> Result<Shape<'_>, SparqlError> {
    let mut scanner = Scanner::new(text);
    let mut shape = Shape::new(text, String::with_capacity(text.len()));
    // `text[..copied]` is in the key already.
    let mut copied = 0;
    let mut lift = |kind, token, (start, end): (usize, usize), (a, b): (usize, usize)| {
        shape.key.push_str(&text[copied..start]);
        shape
            .key
            .push_str(if kind == ParamKind::Iri { "<>" } else { "\"\"" });
        copied = end;
        shape.push(Param {
            kind,
            token,
            start: a,
            end: b,
        });
    };
    let mut prologue = Prologue::Keyword;
    let mut based = false;
    let mut after_datatype_mark = false;
    // A string waits for the next lexeme, which says whether it is plain:
    // (token index, source span, content span).
    let mut pending: Option<(usize, usize, usize, usize, usize)> = None;
    let mut index = 0;
    while let Some((lexeme, start)) = scanner.next()? {
        if let Some((token, s, e, a, b)) = pending.take() {
            if !matches!(lexeme, Lexeme::Lang(..) | Lexeme::Plain(Token::CaretCaret)) {
                lift(ParamKind::Str, token, (s, e), (a, b));
            }
        }
        prologue = prologue.next(&lexeme, text);
        based |= prologue == Prologue::Base;
        if prologue == Prologue::Body {
            match lexeme {
                Lexeme::Iri(a, b) if !after_datatype_mark => {
                    lift(ParamKind::Iri, index, (start, scanner.pos), (a, b))
                }
                Lexeme::Str(a, b) => pending = Some((index, start, scanner.pos, a, b)),
                _ => {}
            }
        }
        after_datatype_mark = matches!(lexeme, Lexeme::Plain(Token::CaretCaret));
        index += 1;
    }
    if let Some((token, s, e, a, b)) = pending {
        lift(ParamKind::Str, token, (s, e), (a, b));
    }
    if based {
        return Ok(Shape::new(text, text.to_string()));
    }
    shape.key.push_str(&text[copied..]);
    Ok(shape)
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// The character a string escape `\b` stands for.
fn escape_char(b: u8) -> Result<char, SparqlError> {
    Ok(match b {
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'\\' => '\\',
        b'"' => '"',
        b'\'' => '\'',
        other => {
            return Err(SparqlError::Parse(format!(
                "bad escape \\{}",
                other as char
            )))
        }
    })
}

/// Offset just past the string starting with the quote at `start`,
/// checking every escape on the way.
fn scan_string_end(bytes: &[u8], start: usize) -> Result<usize, SparqlError> {
    let quote = bytes[start];
    let mut j = start + 1;
    loop {
        match bytes.get(j) {
            None => return Err(SparqlError::Parse("unterminated string".into())),
            Some(b'\\') => {
                let esc = bytes
                    .get(j + 1)
                    .ok_or_else(|| SparqlError::Parse("dangling escape".into()))?;
                escape_char(*esc)?;
                j += 2;
            }
            Some(&q) if q == quote => return Ok(j + 1),
            // Multi-byte UTF-8 sequences are skipped whole.
            Some(&b) => j += utf8_len(b),
        }
    }
}

/// A string's value from its content span, whose escapes
/// [`scan_string_end`] already checked.
fn unescape(content: &str) -> Cow<'_, str> {
    if !content.contains('\\') {
        return Cow::Borrowed(content);
    }
    let mut value = String::with_capacity(content.len());
    let mut chars = content.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                let esc = chars.next().expect("escapes were checked") as u8;
                value.push(escape_char(esc).expect("escapes were checked"));
            }
            c => value.push(c),
        }
    }
    Cow::Owned(value)
}

fn name_end(bytes: &[u8], mut j: usize) -> usize {
    while j < bytes.len() && is_name_char(bytes[j]) {
        j += 1;
    }
    j
}

fn local_end(bytes: &[u8], mut j: usize) -> usize {
    while j < bytes.len() && is_local_char(bytes[j]) {
        j += 1;
    }
    j
}

fn scan_iri_end(bytes: &[u8], start: usize) -> Option<usize> {
    let mut j = start;
    while j < bytes.len() {
        match bytes[j] {
            b'>' => return Some(j),
            b' ' | b'\t' | b'\n' | b'\r' | b'"' | b'{' | b'}' => return None,
            _ => j += 1,
        }
    }
    None
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn is_local_char(b: u8) -> bool {
    is_name_char(b) || b == b'-' || b == b'.' || b == b'#'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_vs_less_than() {
        let toks = tokenize("?x < <http://pg/v1>").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Var("x"),
                Token::Lt,
                Token::IriRef("http://pg/v1".into())
            ]
        );
    }

    #[test]
    fn pname_with_hash_local() {
        let toks = tokenize("?n k:hasTag \"#webseries\"").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Var("n"),
                Token::PName("k", "hasTag"),
                Token::String("#webseries".into())
            ]
        );
    }

    #[test]
    fn default_prefix_pname() {
        let toks = tokenize(":MIT").unwrap();
        assert_eq!(toks, vec![Token::PName("", "MIT")]);
    }

    #[test]
    fn operators() {
        let toks = tokenize("<= >= != = && || ! ^^ ^").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Le,
                Token::Ge,
                Token::Ne,
                Token::Eq,
                Token::AndAnd,
                Token::OrOr,
                Token::Bang,
                Token::CaretCaret,
                Token::Caret
            ]
        );
    }

    #[test]
    fn numbers() {
        let toks = tokenize("42 3.25 1e3").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Integer(42),
                Token::Double(3.25),
                Token::Double(1000.0)
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let toks = tokenize(r#""a\"b\nc""#).unwrap();
        assert_eq!(toks, vec![Token::String("a\"b\nc".into())]);
    }

    #[test]
    fn lang_tag() {
        let toks = tokenize("\"train\"@en-us").unwrap();
        assert_eq!(
            toks,
            vec![Token::String("train".into()), Token::LangTag("en-us")]
        );
    }

    #[test]
    fn typed_literal_tokens() {
        let toks = tokenize("\"23\"^^<http://www.w3.org/2001/XMLSchema#int>").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::String("23".into()),
                Token::CaretCaret,
                Token::IriRef("http://www.w3.org/2001/XMLSchema#int".into())
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT # comment\n ?x").unwrap();
        assert_eq!(toks, vec![Token::Word("SELECT"), Token::Var("x")]);
    }

    #[test]
    fn path_tokens() {
        let toks = tokenize("(r:knows|r:follows)+").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::LParen,
                Token::PName("r", "knows"),
                Token::Pipe,
                Token::PName("r", "follows"),
                Token::RParen,
                Token::Plus
            ]
        );
    }

    #[test]
    fn blank_label() {
        let toks = tokenize("_:b1").unwrap();
        assert_eq!(toks, vec![Token::BlankLabel("b1".into())]);
    }

    #[test]
    fn utf8_in_strings() {
        let toks = tokenize("\"café 😀\"").unwrap();
        assert_eq!(toks, vec![Token::String("café 😀".into())]);
    }

    fn lifted(text: &str) -> (String, Vec<(ParamKind, String, usize)>) {
        let s = shape(text).unwrap();
        let param = |p: &Param| (p.kind, s.value(p).into_owned(), p.token);
        let params = s.params().iter().map(param).collect();
        (s.key, params)
    }

    #[test]
    fn shape_lifts_body_iris_and_plain_strings() {
        let text =
            "PREFIX k: <http://pg/k/>\nSELECT ?n WHERE { <http://pg/v1> k:hasTag 'a\\'b', \"#x\" }";
        let (key, params) = lifted(text);
        assert_eq!(
            key,
            "PREFIX k: <http://pg/k/>\nSELECT ?n WHERE { <> k:hasTag \"\", \"\" }"
        );
        assert_eq!(
            params,
            vec![
                (ParamKind::Iri, "http://pg/v1".into(), 7),
                (ParamKind::Str, "a'b".into(), 9),
                (ParamKind::Str, "#x".into(), 11),
            ]
        );
        // Each param's token index names its token in `tokenize`.
        let toks = tokenize(text).unwrap();
        assert_eq!(toks[7], Token::IriRef("http://pg/v1".into()));
        assert_eq!(toks[9], Token::String("a'b".into()));
    }

    #[test]
    fn shape_keeps_tagged_and_typed_literals_and_comparisons() {
        let text = "SELECT * WHERE { ?x ?p \"en\"@en, \"1\"^^<http://t> FILTER(?x < 3 && ?x > 1) }";
        let (key, params) = lifted(text);
        assert_eq!(key, text);
        assert!(params.is_empty());
    }

    #[test]
    fn shape_of_a_based_query_is_its_text() {
        let text = "BASE <http://b/> SELECT * WHERE { <x> ?p \"v\" }";
        assert_eq!(lifted(text), (text.to_string(), Vec::new()));
    }

    #[test]
    fn shape_spills_past_the_inline_params() {
        let text: String = (0..20).map(|i| format!("<x{i}> ")).collect();
        let (key, params) = lifted(&text);
        assert_eq!(key, "<> ".repeat(20));
        assert_eq!(params.len(), 20);
        assert_eq!(params[19], (ParamKind::Iri, "x19".into(), 19));
    }

    #[test]
    fn shape_reports_lexer_errors() {
        assert!(shape("SELECT * WHERE { ?x ?p \"open }").is_err());
        assert!(shape("SELECT * WHERE { ?x ?p \"\\q\" }").is_err());
    }
}
