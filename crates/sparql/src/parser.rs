//! Recursive-descent parser for the SPARQL subset.

use std::collections::HashMap;

use rdf_model::vocab::{rdf, xsd};
use rdf_model::{BlankNode, Iri, Literal, Term};

use crate::ast::*;
use crate::error::SparqlError;
use crate::lexer::{tokenize, Token};

/// Parses a SPARQL query (`SELECT` or `ASK`, with an optional prologue).
pub fn parse_query(text: &str) -> Result<Query, SparqlError> {
    Parser::new(tokenize(text)?).parse_query()
}

/// A constant term token of a parsed query.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConstToken {
    /// Index of the token in `tokenize(text)`.
    pub token: usize,
    /// The term it parsed to (`a` parses to `rdf:type`).
    pub term: Term,
    /// True when it was consumed as a triple pattern's subject or object.
    pub subject_or_object: bool,
}

/// [`parse_query`] that also reports every constant term the query
/// names: IRIs, prefixed names, literals and `a`, each with its token
/// index and whether it is a triple pattern's subject or object.
pub(crate) fn parse_query_constants(text: &str) -> Result<(Query, Vec<ConstToken>), SparqlError> {
    let mut p = Parser::new(tokenize(text)?);
    p.consts = Some(Vec::new());
    let query = p.parse_query()?;
    Ok((query, p.consts.unwrap_or_default()))
}

/// Parses a SPARQL 1.1 Update request.
pub fn parse_update(text: &str) -> Result<Update, SparqlError> {
    let tokens = tokenize(text)?;
    let mut p = Parser::new(tokens);
    p.parse_prologue()?;
    let update = p.parse_update_op()?;
    // Optional trailing ';'
    if p.peek() == Some(&Token::Semicolon) {
        p.bump();
    }
    p.expect_end()?;
    Ok(update)
}

/// The deepest nesting the parser descends into: `{ }` groups, the
/// parentheses of expressions and paths, function arguments and unary
/// operators each count a level. Past it a query is a
/// [`SparqlError::Parse`], so hostile nesting is refused before the
/// recursive descent could exhaust a thread's stack.
pub(crate) const MAX_NESTING: usize = 64;

/// The most links a flat chain may have: the operators of `a + b + …`
/// (and of `-`, `*`, `/`, `&&` and `||`), the `UNION`s of a union chain,
/// the `/`s or `|`s of a path and a group's successive `OPTIONAL`s. The
/// parser builds each chain as a left-deep tree as deep as the chain is
/// long, which every later pass recurses through, so a longer chain is a
/// [`SparqlError::Parse`] before it could exhaust a thread's stack.
pub(crate) const MAX_CHAIN: usize = 256;

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    prefixes: HashMap<String, String>,
    /// Constant terms in the order they were consumed, when recording.
    consts: Option<Vec<ConstToken>>,
    /// Nesting levels entered ([`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token<'a>>) -> Self {
        Parser {
            tokens,
            pos: 0,
            prefixes: HashMap::new(),
            consts: None,
            depth: 0,
        }
    }

    /// Runs `parse` one nesting level deeper, or refuses the query past
    /// [`MAX_NESTING`] levels.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, SparqlError>,
    ) -> Result<T, SparqlError> {
        if self.depth >= MAX_NESTING {
            return Err(SparqlError::Parse(format!(
                "nesting deeper than {MAX_NESTING} levels at token {}",
                self.pos
            )));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    /// Counts one more link of a flat chain, or refuses the query past
    /// [`MAX_CHAIN`] links.
    fn link(&self, links: &mut usize) -> Result<(), SparqlError> {
        *links += 1;
        if *links > MAX_CHAIN {
            return Err(SparqlError::Parse(format!(
                "a chain longer than {MAX_CHAIN} links at token {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn parse_query(&mut self) -> Result<Query, SparqlError> {
        self.parse_prologue()?;
        let query = if self.peek_keyword("SELECT") {
            Query::Select(self.parse_select()?)
        } else if self.peek_keyword("ASK") {
            self.bump();
            self.expect_optional_keyword("WHERE");
            Query::Ask(self.parse_group_graph_pattern()?)
        } else if self.peek_keyword("CONSTRUCT") {
            self.bump();
            let template = self.parse_quad_data()?;
            self.expect_keyword("WHERE")?;
            let pattern = self.parse_group_graph_pattern()?;
            let inner = SelectQuery {
                distinct: false,
                projection: Vec::new(),
                pattern,
                group_by: Vec::new(),
                having: Vec::new(),
                order_by: Vec::new(),
                limit: self.parse_trailing_limit()?,
                offset: None,
            };
            Query::Construct(template, Box::new(inner))
        } else {
            return Err(SparqlError::Parse(
                "expected SELECT or ASK after prologue".into(),
            ));
        };
        self.expect_end()?;
        Ok(query)
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    /// Consumes the current token. The parser never looks back, so the
    /// token is moved out rather than cloned.
    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self
            .tokens
            .get_mut(self.pos)
            .map(|t| std::mem::replace(t, Token::Dot));
        self.pos += 1;
        t
    }

    /// Records the constant parsed from the token at `token`.
    fn note(&mut self, token: usize, term: impl FnOnce() -> Term) {
        if let Some(consts) = &mut self.consts {
            consts.push(ConstToken {
                token,
                term: term(),
                subject_or_object: false,
            });
        }
    }

    /// Marks the constant parsed from the token at `token`, if any, as a
    /// triple pattern's subject or object.
    fn note_subject_or_object(&mut self, token: usize) {
        if let Some(c) = self
            .consts
            .iter_mut()
            .flatten()
            .rev()
            .find(|c| c.token == token)
        {
            c.subject_or_object = true;
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SparqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SparqlError::Parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_optional_keyword(&mut self, kw: &str) {
        let _ = self.eat_keyword(kw);
    }

    fn expect(&mut self, token: Token) -> Result<(), SparqlError> {
        if self.peek() == Some(&token) {
            self.bump();
            Ok(())
        } else {
            Err(SparqlError::Parse(format!(
                "expected {token:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_end(&self) -> Result<(), SparqlError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(SparqlError::Parse(format!(
                "trailing tokens starting at {:?}",
                self.peek()
            )))
        }
    }

    fn parse_prologue(&mut self) -> Result<(), SparqlError> {
        loop {
            if self.eat_keyword("PREFIX") {
                let (prefix, local) = match self.bump() {
                    Some(Token::PName(p, l)) => (p, l),
                    other => {
                        return Err(SparqlError::Parse(format!(
                            "expected prefix name, found {other:?}"
                        )))
                    }
                };
                if !local.is_empty() {
                    return Err(SparqlError::Parse(format!(
                        "bad prefix declaration: {prefix}:{local}"
                    )));
                }
                let iri = match self.bump() {
                    Some(Token::IriRef(iri)) => iri,
                    other => {
                        return Err(SparqlError::Parse(format!(
                            "expected IRI after PREFIX, found {other:?}"
                        )))
                    }
                };
                self.prefixes.insert(prefix.to_string(), iri.to_string());
                // Some dialects allow a '.' after prologue lines.
                if self.peek() == Some(&Token::Dot) {
                    self.bump();
                }
            } else if self.eat_keyword("BASE") {
                match self.bump() {
                    Some(Token::IriRef(_)) => {}
                    other => {
                        return Err(SparqlError::Parse(format!(
                            "expected IRI after BASE, found {other:?}"
                        )))
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn resolve_pname(&self, prefix: &str, local: &str) -> Result<Iri, SparqlError> {
        let ns = self
            .prefixes
            .get(prefix)
            .ok_or_else(|| SparqlError::Parse(format!("undeclared prefix: {prefix}:")))?;
        Ok(Iri::formatted(format_args!("{ns}{local}")))
    }

    // ---- SELECT ----

    fn parse_select(&mut self) -> Result<SelectQuery, SparqlError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let _ = self.eat_keyword("REDUCED");
        let mut projection = Vec::new();
        if self.peek() == Some(&Token::Star) {
            self.bump();
        } else {
            loop {
                match self.peek() {
                    Some(Token::Var(_)) => {
                        if let Some(Token::Var(v)) = self.bump() {
                            projection.push(Projection::Var(v.to_string()));
                        }
                    }
                    Some(Token::LParen) => {
                        self.bump();
                        let expr = self.parse_expression()?;
                        self.expect_keyword("AS")?;
                        let var = self.parse_var()?;
                        self.expect(Token::RParen)?;
                        projection.push(Projection::Expr(expr, var));
                    }
                    _ => break,
                }
            }
            if projection.is_empty() {
                return Err(SparqlError::Parse("empty SELECT projection".into()));
            }
        }
        self.expect_optional_keyword("WHERE");
        let pattern = self.parse_group_graph_pattern()?;

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            while let Some(Token::Var(_)) = self.peek() {
                if let Some(Token::Var(v)) = self.bump() {
                    group_by.push(v.to_string());
                }
            }
            if group_by.is_empty() {
                return Err(SparqlError::Parse("GROUP BY needs variables".into()));
            }
        }

        let mut having = Vec::new();
        if self.eat_keyword("HAVING") {
            loop {
                self.expect(Token::LParen)?;
                having.push(self.parse_expression()?);
                self.expect(Token::RParen)?;
                if self.peek() != Some(&Token::LParen) {
                    break;
                }
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                if self.eat_keyword("DESC") {
                    self.expect(Token::LParen)?;
                    let expr = self.parse_expression()?;
                    self.expect(Token::RParen)?;
                    order_by.push(OrderKey {
                        expr,
                        descending: true,
                    });
                } else if self.eat_keyword("ASC") {
                    self.expect(Token::LParen)?;
                    let expr = self.parse_expression()?;
                    self.expect(Token::RParen)?;
                    order_by.push(OrderKey {
                        expr,
                        descending: false,
                    });
                } else if let Some(Token::Var(_)) = self.peek() {
                    let var = self.parse_var()?;
                    order_by.push(OrderKey {
                        expr: Expression::Var(var),
                        descending: false,
                    });
                } else {
                    break;
                }
            }
            if order_by.is_empty() {
                return Err(SparqlError::Parse("ORDER BY needs keys".into()));
            }
        }

        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("LIMIT") {
                limit = Some(self.parse_usize()?);
            } else if self.eat_keyword("OFFSET") {
                offset = Some(self.parse_usize()?);
            } else {
                break;
            }
        }

        Ok(SelectQuery {
            distinct,
            projection,
            pattern,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_trailing_limit(&mut self) -> Result<Option<usize>, SparqlError> {
        if self.eat_keyword("LIMIT") {
            Ok(Some(self.parse_usize()?))
        } else {
            Ok(None)
        }
    }

    fn parse_usize(&mut self) -> Result<usize, SparqlError> {
        match self.bump() {
            Some(Token::Integer(n)) if n >= 0 => Ok(n as usize),
            other => Err(SparqlError::Parse(format!(
                "expected non-negative integer, found {other:?}"
            ))),
        }
    }

    fn parse_var(&mut self) -> Result<Var, SparqlError> {
        match self.bump() {
            Some(Token::Var(v)) => Ok(v.to_string()),
            other => Err(SparqlError::Parse(format!(
                "expected variable, found {other:?}"
            ))),
        }
    }

    // ---- Graph patterns ----

    fn parse_group_graph_pattern(&mut self) -> Result<GraphPattern, SparqlError> {
        self.nested(Self::group_graph_pattern)
    }

    fn group_graph_pattern(&mut self) -> Result<GraphPattern, SparqlError> {
        self.expect(Token::LBrace)?;
        // Sub-select?
        if self.peek_keyword("SELECT") {
            let inner = self.parse_select()?;
            self.expect(Token::RBrace)?;
            return Ok(GraphPattern::SubSelect(Box::new(inner)));
        }
        let mut members: Vec<GraphPattern> = Vec::new();
        let mut optionals = 0;
        let mut filters: Vec<Expression> = Vec::new();
        let mut triples: Vec<TriplePattern> = Vec::new();

        macro_rules! flush_triples {
            () => {
                if !triples.is_empty() {
                    members.push(GraphPattern::Bgp(std::mem::take(&mut triples)));
                }
            };
        }

        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    break;
                }
                None => return Err(SparqlError::Parse("unterminated group pattern".into())),
                Some(Token::LBrace) => {
                    flush_triples!();
                    let mut left = self.parse_group_graph_pattern()?;
                    let mut links = 0;
                    while self.eat_keyword("UNION") {
                        self.link(&mut links)?;
                        let right = self.parse_group_graph_pattern()?;
                        left = GraphPattern::Union(Box::new(left), Box::new(right));
                    }
                    members.push(left);
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("FILTER") => {
                    self.bump();
                    // FILTER(expr), FILTER builtin(...), FILTER [NOT] EXISTS {..}
                    let expr = if self.eat_keyword("EXISTS") {
                        let inner = self.parse_group_graph_pattern()?;
                        Expression::Exists(Box::new(inner), false)
                    } else if self.eat_keyword("NOT") {
                        self.expect_keyword("EXISTS")?;
                        let inner = self.parse_group_graph_pattern()?;
                        Expression::Exists(Box::new(inner), true)
                    } else if self.peek() == Some(&Token::LParen) {
                        self.bump();
                        let e = self.parse_expression()?;
                        self.expect(Token::RParen)?;
                        e
                    } else {
                        self.parse_primary_expression()?
                    };
                    filters.push(expr);
                    if self.peek() == Some(&Token::Dot) {
                        self.bump();
                    }
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("BIND") => {
                    flush_triples!();
                    self.bump();
                    self.expect(Token::LParen)?;
                    let expr = self.parse_expression()?;
                    self.expect_keyword("AS")?;
                    let var = self.parse_var()?;
                    self.expect(Token::RParen)?;
                    members.push(GraphPattern::Bind(expr, var));
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("MINUS") => {
                    flush_triples!();
                    self.bump();
                    let inner = self.parse_group_graph_pattern()?;
                    members.push(GraphPattern::Minus(Box::new(inner)));
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("GRAPH") => {
                    flush_triples!();
                    self.bump();
                    let graph = match self.peek() {
                        Some(Token::Var(_)) => VarOrTerm::Var(self.parse_var()?),
                        _ => VarOrTerm::Term(Term::Iri(self.parse_iri()?)),
                    };
                    let inner = self.parse_group_graph_pattern()?;
                    members.push(GraphPattern::Graph(graph, Box::new(inner)));
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.link(&mut optionals)?;
                    self.bump();
                    let right = self.parse_group_graph_pattern()?;
                    flush_triples!();
                    let left = if members.is_empty() {
                        GraphPattern::Bgp(Vec::new())
                    } else if members.len() == 1 {
                        members.pop().expect("one member")
                    } else {
                        GraphPattern::Group(std::mem::take(&mut members), Vec::new())
                    };
                    members.push(GraphPattern::Optional(Box::new(left), Box::new(right)));
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("VALUES") => {
                    flush_triples!();
                    self.bump();
                    members.push(self.parse_values()?);
                }
                Some(Token::Dot) => {
                    self.bump();
                }
                _ => {
                    self.parse_triples_same_subject(&mut triples)?;
                    if self.peek() == Some(&Token::Dot) {
                        self.bump();
                    }
                }
            }
        }
        flush_triples!();

        if members.len() == 1 && filters.is_empty() {
            Ok(members.pop().expect("one member"))
        } else {
            Ok(GraphPattern::Group(members, filters))
        }
    }

    fn parse_values(&mut self) -> Result<GraphPattern, SparqlError> {
        let mut vars = Vec::new();
        let mut rows = Vec::new();
        if self.peek() == Some(&Token::LParen) {
            self.bump();
            while let Some(Token::Var(_)) = self.peek() {
                vars.push(self.parse_var()?);
            }
            self.expect(Token::RParen)?;
            self.expect(Token::LBrace)?;
            while self.peek() == Some(&Token::LParen) {
                self.bump();
                let mut row = Vec::new();
                for _ in 0..vars.len() {
                    if self.peek_keyword("UNDEF") {
                        self.bump();
                        row.push(None);
                    } else {
                        row.push(Some(self.parse_term()?));
                    }
                }
                self.expect(Token::RParen)?;
                rows.push(row);
            }
            self.expect(Token::RBrace)?;
        } else {
            let var = self.parse_var()?;
            vars.push(var);
            self.expect(Token::LBrace)?;
            while self.peek() != Some(&Token::RBrace) {
                if self.peek_keyword("UNDEF") {
                    self.bump();
                    rows.push(vec![None]);
                } else {
                    rows.push(vec![Some(self.parse_term()?)]);
                }
            }
            self.expect(Token::RBrace)?;
        }
        Ok(GraphPattern::Values(vars, rows))
    }

    fn parse_triples_same_subject(
        &mut self,
        out: &mut Vec<TriplePattern>,
    ) -> Result<(), SparqlError> {
        let at = self.pos;
        let subject = self.parse_var_or_term()?;
        self.note_subject_or_object(at);
        loop {
            let predicate = self.parse_verb()?;
            loop {
                let at = self.pos;
                let object = self.parse_var_or_term()?;
                self.note_subject_or_object(at);
                out.push(TriplePattern {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                if self.peek() == Some(&Token::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            if self.peek() == Some(&Token::Semicolon) {
                self.bump();
                // allow trailing ';' before '.' or '}'
                if matches!(self.peek(), Some(Token::Dot) | Some(Token::RBrace) | None) {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(())
    }

    fn parse_verb(&mut self) -> Result<PredicatePattern, SparqlError> {
        match self.peek() {
            Some(Token::Var(_)) => Ok(PredicatePattern::Var(self.parse_var()?)),
            Some(Token::Word(w)) if *w == "a" => {
                self.note(self.pos, || Term::Iri(Iri::from_text(rdf::TYPE)));
                self.bump();
                Ok(PredicatePattern::Path(PropertyPath::Iri(Iri::from_text(
                    rdf::TYPE,
                ))))
            }
            _ => Ok(PredicatePattern::Path(self.parse_path()?)),
        }
    }

    // ---- Property paths ----

    fn parse_path(&mut self) -> Result<PropertyPath, SparqlError> {
        self.nested(Self::parse_path_alternative)
    }

    fn parse_path_alternative(&mut self) -> Result<PropertyPath, SparqlError> {
        let (mut left, mut links) = (self.parse_path_sequence()?, 0);
        while self.peek() == Some(&Token::Pipe) {
            self.link(&mut links)?;
            self.bump();
            let right = self.parse_path_sequence()?;
            left = PropertyPath::Alternative(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_path_sequence(&mut self) -> Result<PropertyPath, SparqlError> {
        let (mut left, mut links) = (self.parse_path_elt_or_inverse()?, 0);
        while self.peek() == Some(&Token::Slash) {
            self.link(&mut links)?;
            self.bump();
            let right = self.parse_path_elt_or_inverse()?;
            left = PropertyPath::Sequence(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_path_elt_or_inverse(&mut self) -> Result<PropertyPath, SparqlError> {
        if self.peek() == Some(&Token::Caret) {
            self.bump();
            let inner = self.parse_path_elt()?;
            Ok(PropertyPath::Inverse(Box::new(inner)))
        } else {
            self.parse_path_elt()
        }
    }

    fn parse_path_elt(&mut self) -> Result<PropertyPath, SparqlError> {
        let primary = match self.peek() {
            Some(Token::LParen) => {
                self.bump();
                let inner = self.parse_path()?;
                self.expect(Token::RParen)?;
                inner
            }
            _ => PropertyPath::Iri(self.parse_iri()?),
        };
        match self.peek() {
            Some(Token::Star) => {
                self.bump();
                Ok(PropertyPath::ZeroOrMore(Box::new(primary)))
            }
            Some(Token::Plus) => {
                self.bump();
                Ok(PropertyPath::OneOrMore(Box::new(primary)))
            }
            Some(Token::QuestionMark) => {
                self.bump();
                Ok(PropertyPath::ZeroOrOne(Box::new(primary)))
            }
            _ => Ok(primary),
        }
    }

    // ---- Terms ----

    fn parse_iri(&mut self) -> Result<Iri, SparqlError> {
        let at = self.pos;
        let iri = match self.bump() {
            Some(Token::IriRef(iri)) => Iri::from_text(iri),
            Some(Token::PName(p, l)) => self.resolve_pname(p, l)?,
            other => return Err(SparqlError::Parse(format!("expected IRI, found {other:?}"))),
        };
        self.note(at, || Term::Iri(iri.clone()));
        Ok(iri)
    }

    fn parse_var_or_term(&mut self) -> Result<VarOrTerm, SparqlError> {
        match self.peek() {
            Some(Token::Var(_)) => Ok(VarOrTerm::Var(self.parse_var()?)),
            _ => Ok(VarOrTerm::Term(self.parse_term()?)),
        }
    }

    fn parse_term(&mut self) -> Result<Term, SparqlError> {
        let at = self.pos;
        let term = match self.bump() {
            Some(Token::IriRef(iri)) => Term::Iri(Iri::from_text(iri)),
            Some(Token::PName(p, l)) => Term::Iri(self.resolve_pname(p, l)?),
            Some(Token::BlankLabel(label)) => Term::Blank(BlankNode::from_text(label)),
            Some(Token::Integer(n)) => Term::Literal(Literal::integer(n)),
            Some(Token::Double(d)) => {
                Term::Literal(Literal::typed(d.to_string(), Iri::from_text(xsd::DOUBLE)))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("true") => {
                Term::Literal(Literal::boolean(true))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("false") => {
                Term::Literal(Literal::boolean(false))
            }
            Some(Token::String(s)) => match self.peek() {
                Some(Token::LangTag(_)) => {
                    let Some(Token::LangTag(tag)) = self.bump() else {
                        unreachable!("peeked LangTag")
                    };
                    Term::Literal(Literal::from_text(s, None, Some(tag)))
                }
                Some(Token::CaretCaret) => {
                    self.bump();
                    let dt = self.parse_iri()?;
                    Term::Literal(Literal::from_text(s, Some(dt), None))
                }
                _ => Term::Literal(Literal::from_text(s, None, None)),
            },
            other => {
                return Err(SparqlError::Parse(format!(
                    "expected term, found {other:?}"
                )))
            }
        };
        self.note(at, || term.clone());
        Ok(term)
    }

    // ---- Expressions ----

    fn parse_expression(&mut self) -> Result<Expression, SparqlError> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expression, SparqlError> {
        let (mut left, mut links) = (self.parse_and()?, 0);
        while self.peek() == Some(&Token::OrOr) {
            self.link(&mut links)?;
            self.bump();
            let right = self.parse_and()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expression, SparqlError> {
        let (mut left, mut links) = (self.parse_relational()?, 0);
        while self.peek() == Some(&Token::AndAnd) {
            self.link(&mut links)?;
            self.bump();
            let right = self.parse_relational()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_relational(&mut self) -> Result<Expression, SparqlError> {
        let left = self.parse_additive()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(CompareOp::Eq),
            Some(Token::Ne) => Some(CompareOp::Ne),
            Some(Token::Lt) => Some(CompareOp::Lt),
            Some(Token::Le) => Some(CompareOp::Le),
            Some(Token::Gt) => Some(CompareOp::Gt),
            Some(Token::Ge) => Some(CompareOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            Ok(Expression::Compare(op, Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn parse_additive(&mut self) -> Result<Expression, SparqlError> {
        let (mut left, mut links) = (self.parse_multiplicative()?, 0);
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.link(&mut links)?;
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expression::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expression, SparqlError> {
        let (mut left, mut links) = (self.parse_unary()?, 0);
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.link(&mut links)?;
            self.bump();
            let right = self.parse_unary()?;
            left = Expression::Arith(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expression, SparqlError> {
        match self.peek() {
            Some(Token::Bang) => {
                self.bump();
                Ok(Expression::Not(Box::new(self.nested(Self::parse_unary)?)))
            }
            Some(Token::Minus) => {
                self.bump();
                Ok(Expression::Neg(Box::new(self.nested(Self::parse_unary)?)))
            }
            _ => self.parse_primary_expression(),
        }
    }

    fn parse_primary_expression(&mut self) -> Result<Expression, SparqlError> {
        match self.peek() {
            Some(Token::LParen) => {
                self.bump();
                let e = self.parse_expression()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Var(_)) => Ok(Expression::Var(self.parse_var()?)),
            Some(Token::Word(_)) => {
                let at = self.pos;
                let Some(Token::Word(w)) = self.bump() else {
                    unreachable!("peeked a word")
                };
                if w.eq_ignore_ascii_case("EXISTS") {
                    let inner = self.parse_group_graph_pattern()?;
                    return Ok(Expression::Exists(Box::new(inner), false));
                }
                if w.eq_ignore_ascii_case("NOT") {
                    self.expect_keyword("EXISTS")?;
                    let inner = self.parse_group_graph_pattern()?;
                    return Ok(Expression::Exists(Box::new(inner), true));
                }
                if let Some(func) = builtin_function(w) {
                    let args = self.parse_arg_list()?;
                    check_arity(func, args.len())?;
                    Ok(Expression::Call(func, args))
                } else if let Some(agg) = self.try_parse_aggregate(w)? {
                    Ok(Expression::Aggregate(Box::new(agg)))
                } else if w.eq_ignore_ascii_case("true") || w.eq_ignore_ascii_case("false") {
                    let term = Term::Literal(Literal::boolean(w.eq_ignore_ascii_case("true")));
                    self.note(at, || term.clone());
                    Ok(Expression::Constant(term))
                } else {
                    Err(SparqlError::Parse(format!(
                        "unknown function or keyword: {w}"
                    )))
                }
            }
            Some(
                Token::IriRef(_)
                | Token::PName(_, _)
                | Token::String(_)
                | Token::Integer(_)
                | Token::Double(_),
            ) => Ok(Expression::Constant(self.parse_term()?)),
            other => Err(SparqlError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }

    /// An aggregate call whose name `word` has just been consumed.
    fn try_parse_aggregate(&mut self, word: &str) -> Result<Option<Aggregate>, SparqlError> {
        let kind = word.to_ascii_uppercase();
        let agg = match kind.as_str() {
            "COUNT" => {
                self.expect(Token::LParen)?;
                if self.peek() == Some(&Token::Star) {
                    self.bump();
                    self.expect(Token::RParen)?;
                    Aggregate::CountAll
                } else {
                    let distinct = self.eat_keyword("DISTINCT");
                    let expr = self.parse_expression()?;
                    self.expect(Token::RParen)?;
                    Aggregate::Count { distinct, expr }
                }
            }
            "SUM" | "AVG" | "MIN" | "MAX" => {
                self.expect(Token::LParen)?;
                let _ = self.eat_keyword("DISTINCT");
                let expr = self.parse_expression()?;
                self.expect(Token::RParen)?;
                match kind.as_str() {
                    "SUM" => Aggregate::Sum(expr),
                    "AVG" => Aggregate::Avg(expr),
                    "MIN" => Aggregate::Min(expr),
                    _ => Aggregate::Max(expr),
                }
            }
            _ => return Ok(None),
        };
        Ok(Some(agg))
    }

    fn parse_arg_list(&mut self) -> Result<Vec<Expression>, SparqlError> {
        self.expect(Token::LParen)?;
        let mut args = Vec::new();
        if self.peek() != Some(&Token::RParen) {
            loop {
                args.push(self.parse_expression()?);
                if self.peek() == Some(&Token::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Token::RParen)?;
        Ok(args)
    }

    // ---- Update ----

    fn parse_update_op(&mut self) -> Result<Update, SparqlError> {
        if self.eat_keyword("INSERT") {
            if self.eat_keyword("DATA") {
                return Ok(Update::InsertData(self.parse_quad_data()?));
            }
            // INSERT { tmpl } WHERE { pattern }
            let insert = self.parse_quad_data()?;
            self.expect_keyword("WHERE")?;
            let pattern = self.parse_group_graph_pattern()?;
            return Ok(Update::Modify {
                delete: Vec::new(),
                insert,
                pattern,
            });
        }
        if self.eat_keyword("DELETE") {
            if self.eat_keyword("DATA") {
                return Ok(Update::DeleteData(self.parse_quad_data()?));
            }
            if self.eat_keyword("WHERE") {
                return Ok(Update::DeleteWhere(self.parse_quad_data()?));
            }
            let delete = self.parse_quad_data()?;
            let insert = if self.eat_keyword("INSERT") {
                self.parse_quad_data()?
            } else {
                Vec::new()
            };
            self.expect_keyword("WHERE")?;
            let pattern = self.parse_group_graph_pattern()?;
            return Ok(Update::Modify {
                delete,
                insert,
                pattern,
            });
        }
        Err(SparqlError::Parse(
            "expected INSERT or DELETE update operation".into(),
        ))
    }

    fn parse_quad_data(&mut self) -> Result<Vec<QuadTemplate>, SparqlError> {
        self.expect(Token::LBrace)?;
        let mut quads = Vec::new();
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.bump();
                    break;
                }
                Some(Token::Word(w)) if w.eq_ignore_ascii_case("GRAPH") => {
                    self.bump();
                    let graph = match self.peek() {
                        Some(Token::Var(_)) => VarOrTerm::Var(self.parse_var()?),
                        _ => VarOrTerm::Term(Term::Iri(self.parse_iri()?)),
                    };
                    self.expect(Token::LBrace)?;
                    while self.peek() != Some(&Token::RBrace) {
                        if self.peek() == Some(&Token::Dot) {
                            self.bump();
                            continue;
                        }
                        self.parse_template_triples(Some(graph.clone()), &mut quads)?;
                    }
                    self.expect(Token::RBrace)?;
                }
                Some(Token::Dot) => {
                    self.bump();
                }
                None => return Err(SparqlError::Parse("unterminated quad data".into())),
                _ => {
                    self.parse_template_triples(None, &mut quads)?;
                }
            }
        }
        Ok(quads)
    }

    fn parse_template_triples(
        &mut self,
        graph: Option<VarOrTerm>,
        out: &mut Vec<QuadTemplate>,
    ) -> Result<(), SparqlError> {
        let mut triples = Vec::new();
        self.parse_triples_same_subject(&mut triples)?;
        if self.peek() == Some(&Token::Dot) {
            self.bump();
        }
        for t in triples {
            let predicate = match t.predicate {
                PredicatePattern::Var(v) => VarOrTerm::Var(v),
                PredicatePattern::Path(PropertyPath::Iri(iri)) => VarOrTerm::Term(Term::Iri(iri)),
                PredicatePattern::Path(_) => {
                    return Err(SparqlError::Parse(
                        "property paths are not allowed in update templates".into(),
                    ))
                }
            };
            out.push(QuadTemplate {
                subject: t.subject,
                predicate,
                object: t.object,
                graph: graph.clone(),
            });
        }
        Ok(())
    }
}

fn builtin_function(word: &str) -> Option<Function> {
    Some(match word.to_ascii_uppercase().as_str() {
        "ISLITERAL" => Function::IsLiteral,
        "ISIRI" | "ISURI" => Function::IsIri,
        "ISBLANK" => Function::IsBlank,
        "BOUND" => Function::Bound,
        "STR" => Function::Str,
        "LANG" => Function::Lang,
        "DATATYPE" => Function::Datatype,
        "CONCAT" => Function::Concat,
        "STRSTARTS" => Function::StrStarts,
        "STRENDS" => Function::StrEnds,
        "CONTAINS" => Function::Contains,
        "STRLEN" => Function::StrLen,
        "UCASE" => Function::Ucase,
        "LCASE" => Function::Lcase,
        "ABS" => Function::Abs,
        "REGEX" => Function::Regex,
        _ => return None,
    })
}

fn check_arity(func: Function, n: usize) -> Result<(), SparqlError> {
    let ok = match func {
        Function::IsLiteral
        | Function::IsIri
        | Function::IsBlank
        | Function::Bound
        | Function::Str
        | Function::Lang
        | Function::Datatype
        | Function::StrLen
        | Function::Ucase
        | Function::Lcase
        | Function::Abs => n == 1,
        Function::StrStarts | Function::StrEnds | Function::Contains | Function::Regex => n == 2,
        Function::Concat => n >= 1,
    };
    if ok {
        Ok(())
    } else {
        Err(SparqlError::Parse(format!("wrong arity {n} for {func:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(text: &str) -> SelectQuery {
        match parse_query(text).unwrap() {
            Query::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_eq1() {
        let q = select("PREFIX k: <http://pg/k/> SELECT ?n WHERE { ?n k:hasTag \"#webseries\" }");
        assert_eq!(q.projection.len(), 1);
        match &q.pattern {
            GraphPattern::Bgp(tps) => {
                assert_eq!(tps.len(), 1);
                assert_eq!(
                    tps[0].predicate,
                    PredicatePattern::Path(PropertyPath::Iri(Iri::new("http://pg/k/hasTag")))
                );
            }
            other => panic!("expected BGP, got {other:?}"),
        }
    }

    #[test]
    fn parses_semicolon_predicate_lists() {
        let q = select(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\
             PREFIX rel: <http://pg/r/>\
             SELECT ?x WHERE { ?e rdf:subject ?x; rdf:predicate rel:follows; rdf:object ?y . ?e ?k ?V }",
        );
        match &q.pattern {
            GraphPattern::Bgp(tps) => assert_eq!(tps.len(), 4),
            other => panic!("expected BGP, got {other:?}"),
        }
    }

    #[test]
    fn parses_graph_pattern() {
        let q = select(
            "PREFIX r: <http://pg/r/> PREFIX k: <http://pg/k/>\
             SELECT ?n2 WHERE { GRAPH ?g1 { ?n r:follows ?n2 . ?g1 k:hasTag \"#webseries\" } }",
        );
        match &q.pattern {
            GraphPattern::Graph(VarOrTerm::Var(g), inner) => {
                assert_eq!(g, "g1");
                assert!(matches!(**inner, GraphPattern::Bgp(_)));
            }
            other => panic!("expected GRAPH, got {other:?}"),
        }
    }

    #[test]
    fn parses_filter_isliteral() {
        let q = select("SELECT ?v WHERE { ?x ?k ?v FILTER (isLiteral(?v)) }");
        match &q.pattern {
            GraphPattern::Group(members, filters) => {
                assert_eq!(members.len(), 1);
                assert_eq!(
                    filters[0],
                    Expression::Call(Function::IsLiteral, vec![Expression::Var("v".into())])
                );
            }
            other => panic!("expected group with filter, got {other:?}"),
        }
    }

    #[test]
    fn parses_property_path_sequence_and_alt() {
        let q = select(
            "PREFIX r: <http://pg/r/> SELECT (COUNT(?y) as ?cnt) WHERE { <http://pg/n1> r:follows/r:follows ?y }",
        );
        match &q.pattern {
            GraphPattern::Bgp(tps) => match &tps[0].predicate {
                PredicatePattern::Path(PropertyPath::Sequence(_, _)) => {}
                other => panic!("expected sequence path, got {other:?}"),
            },
            other => panic!("expected BGP, got {other:?}"),
        }
        let q2 =
            select("PREFIX r: <http://pg/r/> SELECT ?n2 WHERE { ?n1 (r:knows|r:follows) ?n2 }");
        match &q2.pattern {
            GraphPattern::Bgp(tps) => match &tps[0].predicate {
                PredicatePattern::Path(PropertyPath::Alternative(_, _)) => {}
                other => panic!("expected alternative path, got {other:?}"),
            },
            other => panic!("expected BGP, got {other:?}"),
        }
    }

    #[test]
    fn parses_subselect_with_group_by_and_order() {
        let q = select(
            "PREFIX r: <http://pg/r/>\
             SELECT ?inDeg (COUNT(*) as ?cnt) WHERE {\
               SELECT ?n2 (COUNT(*) as ?inDeg) WHERE { ?n1 (r:knows|r:follows) ?n2 } GROUP BY ?n2\
             } GROUP BY ?inDeg ORDER BY DESC(?inDeg)",
        );
        assert_eq!(q.group_by, vec!["inDeg".to_string()]);
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].descending);
        assert!(matches!(q.pattern, GraphPattern::SubSelect(_)));
    }

    #[test]
    fn parses_count_star_projection() {
        let q = select("SELECT (COUNT(*) AS ?cnt) WHERE { ?x ?p ?y }");
        match &q.projection[0] {
            Projection::Expr(Expression::Aggregate(agg), v) => {
                assert_eq!(**agg, Aggregate::CountAll);
                assert_eq!(v, "cnt");
            }
            other => panic!("expected aggregate projection, got {other:?}"),
        }
    }

    #[test]
    fn parses_str_concat_filter() {
        let q = select(
            "PREFIX k: <http://pg/k/>\
             SELECT ?n WHERE { ?n k:hasTag ?y FILTER(STR(?y)=CONCAT(\"#\",STR(?label))) }",
        );
        match &q.pattern {
            GraphPattern::Group(_, filters) => {
                assert!(matches!(
                    filters[0],
                    Expression::Compare(CompareOp::Eq, _, _)
                ));
            }
            other => panic!("expected group, got {other:?}"),
        }
    }

    #[test]
    fn parses_union() {
        let q = select("SELECT ?x WHERE { { ?x <http://a> ?y } UNION { ?x <http://b> ?y } }");
        assert!(matches!(q.pattern, GraphPattern::Union(_, _)));
    }

    #[test]
    fn parses_optional() {
        let q = select("SELECT ?x ?n WHERE { ?x <http://a> ?y OPTIONAL { ?x <http://name> ?n } }");
        fn has_optional(p: &GraphPattern) -> bool {
            match p {
                GraphPattern::Optional(_, _) => true,
                GraphPattern::Group(ms, _) => ms.iter().any(has_optional),
                _ => false,
            }
        }
        assert!(has_optional(&q.pattern));
    }

    #[test]
    fn parses_values() {
        let q = select("SELECT ?x WHERE { VALUES ?x { <http://a> <http://b> } ?x ?p ?o }");
        fn has_values(p: &GraphPattern) -> bool {
            match p {
                GraphPattern::Values(_, rows) => rows.len() == 2,
                GraphPattern::Group(ms, _) => ms.iter().any(has_values),
                _ => false,
            }
        }
        assert!(has_values(&q.pattern));
    }

    #[test]
    fn parses_ask() {
        let q = parse_query("ASK { ?x ?p ?o }").unwrap();
        assert!(matches!(q, Query::Ask(_)));
    }

    #[test]
    fn parses_limit_offset_distinct() {
        let q = select("SELECT DISTINCT ?x WHERE { ?x ?p ?o } LIMIT 10 OFFSET 5");
        assert!(q.distinct);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        let err = parse_query("SELECT ?x WHERE { ?x k:hasTag \"x\" }").unwrap_err();
        assert!(err.to_string().contains("undeclared prefix"));
    }

    #[test]
    fn parses_insert_data() {
        let up = parse_update(
            "INSERT DATA { <http://s> <http://p> \"v\" . GRAPH <http://g> { <http://s> <http://p> 23 } }",
        )
        .unwrap();
        match up {
            Update::InsertData(quads) => {
                assert_eq!(quads.len(), 2);
                assert!(quads[0].graph.is_none());
                assert!(quads[1].graph.is_some());
            }
            other => panic!("expected INSERT DATA, got {other:?}"),
        }
    }

    #[test]
    fn parses_delete_insert_where() {
        let up = parse_update(
            "DELETE { ?s <http://p> ?o } INSERT { ?s <http://p2> ?o } WHERE { ?s <http://p> ?o }",
        )
        .unwrap();
        match up {
            Update::Modify { delete, insert, .. } => {
                assert_eq!(delete.len(), 1);
                assert_eq!(insert.len(), 1);
            }
            other => panic!("expected Modify, got {other:?}"),
        }
    }

    #[test]
    fn parses_delete_where() {
        let up = parse_update("DELETE WHERE { ?s <http://p> ?o }").unwrap();
        assert!(matches!(up, Update::DeleteWhere(q) if q.len() == 1));
    }

    #[test]
    fn parses_a_keyword_as_rdf_type() {
        let q = select("SELECT ?x WHERE { ?x a <http://Class> }");
        match &q.pattern {
            GraphPattern::Bgp(tps) => assert_eq!(
                tps[0].predicate,
                PredicatePattern::Path(PropertyPath::Iri(Iri::new(rdf::TYPE)))
            ),
            other => panic!("expected BGP, got {other:?}"),
        }
    }

    #[test]
    fn parses_object_lists() {
        let q = select("SELECT ?x WHERE { ?x <http://p> <http://a>, <http://b> }");
        match &q.pattern {
            GraphPattern::Bgp(tps) => assert_eq!(tps.len(), 2),
            other => panic!("expected BGP, got {other:?}"),
        }
    }

    /// A megabyte of nesting — FILTER parentheses, `{ }` groups, path
    /// parentheses, a unary chain, an update's WHERE groups — is a typed
    /// `Parse` error on a thread with a 2 MB stack, not a stack overflow
    /// that aborts the process; nesting well inside the bound parses.
    #[test]
    fn deep_nesting_is_a_parse_error_on_a_small_stack() {
        let deep = |open: &str, inner: &str, close: &str| {
            nest(open, inner, close, (1 << 20) / (open.len() + close.len()))
        };
        let queries = [
            format!(
                "SELECT * WHERE {{ ?s ?p ?o FILTER {} }}",
                deep("(", "?o", ")")
            ),
            format!("SELECT * WHERE {}", deep("{ ", "?s ?p ?o", " }")),
            format!(
                "SELECT * WHERE {{ ?s {} ?o }}",
                deep("(", "<http://p>", ")")
            ),
            format!(
                "SELECT * WHERE {{ ?s ?p ?o FILTER (?o = {}) }}",
                deep("-", "1", "")
            ),
        ];
        let update = format!(
            "DELETE {{ ?s ?p ?o }} WHERE {}",
            deep("{ ", "?s ?p ?o", " }")
        );
        let shallow = format!(
            "SELECT * WHERE {{ {} FILTER {} }}",
            nest("{ ", "?s <http://p>/(<http://q>|(<http://r>)) ?o", " }", 12),
            nest("(", "?o", ")", 40),
        );
        let (refused, shallow) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let refused = queries.iter().map(|q| parse_query(q).map(drop));
                let refused: Vec<_> = refused.chain([parse_update(&update).map(drop)]).collect();
                (refused, parse_query(&shallow).map(drop))
            })
            .expect("spawn")
            .join()
            .expect("no panic");
        for result in refused {
            assert!(
                matches!(&result, Err(SparqlError::Parse(m)) if m.contains("nesting")),
                "{result:?}"
            );
        }
        assert_eq!(shallow, Ok(()));
    }

    #[test]
    fn long_flat_chains_are_a_parse_error_on_a_small_stack() {
        // `n` copies of `item` joined by `sep`, about 1 MB in all.
        let long = |item: &str, sep: &str| {
            let n = (1 << 20) / (item.len() + sep.len());
            vec![item; n].join(sep)
        };
        let queries = [
            format!(
                "SELECT * WHERE {{ ?s ?p ?o FILTER ({} > 0) }}",
                long("1", " + ")
            ),
            format!(
                "SELECT * WHERE {{ ?s ?p ?o FILTER ({}) }}",
                long("?o", " || ")
            ),
            format!("SELECT * WHERE {{ {} }}", long("{ ?s ?p ?o }", " UNION ")),
            format!("SELECT * WHERE {{ ?s {} ?o }}", long("<http://p>", "/")),
            format!("SELECT * WHERE {{ ?s {} ?o }}", long("<http://p>", "|")),
            format!(
                "SELECT * WHERE {{ ?s ?p ?o {} }}",
                long("OPTIONAL { ?o ?q ?x }", " ")
            ),
        ];
        let refused = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || queries.map(|q| parse_query(&q).map(drop)))
            .expect("spawn")
            .join()
            .expect("no panic");
        for result in refused {
            assert!(
                matches!(&result, Err(SparqlError::Parse(m)) if m.contains("chain")),
                "{result:?}"
            );
        }
        let longest = |item: &str, sep: &str| vec![item; MAX_CHAIN + 1].join(sep);
        let kept = format!(
            "SELECT * WHERE {{ {{ ?s {} ?o FILTER ({} > 0) }} {} }}",
            longest("<http://p>", "/"),
            longest("1", " * "),
            longest("{ ?s ?p ?o }", " UNION ")
        );
        assert_eq!(parse_query(&kept).map(drop), Ok(()));
    }

    /// `inner` inside `n` levels of `open` … `close`.
    fn nest(open: &str, inner: &str, close: &str, n: usize) -> String {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    }

    #[test]
    fn parses_one_or_more_path() {
        let q = select("PREFIX r: <http://pg/r/> SELECT ?y WHERE { <http://pg/v1> r:follows+ ?y }");
        match &q.pattern {
            GraphPattern::Bgp(tps) => {
                assert!(matches!(
                    tps[0].predicate,
                    PredicatePattern::Path(PropertyPath::OneOrMore(_))
                ));
            }
            other => panic!("expected BGP, got {other:?}"),
        }
    }
}
