//! Abstract syntax of the supported SPARQL subset.
//!
//! The subset covers everything the paper's queries use (Tables 3, 5, 10
//! and the §5.2 examples): basic graph patterns, `GRAPH`, `FILTER`,
//! property paths, sub-`SELECT`, aggregation, `ORDER BY` / `DISTINCT` /
//! `LIMIT` / `OFFSET`, `OPTIONAL`, `UNION`, `VALUES`, `ASK`, and the
//! SPARQL 1.1 Update forms needed for DML.

use rdf_model::{Iri, Term};

/// A variable name (without the leading `?`/`$`).
pub type Var = String;

/// A variable or a concrete RDF term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VarOrTerm {
    /// A SPARQL variable.
    Var(Var),
    /// A constant term.
    Term(Term),
}

impl VarOrTerm {
    /// The variable name, if this is one.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            VarOrTerm::Var(v) => Some(v),
            VarOrTerm::Term(_) => None,
        }
    }
}

/// A SPARQL 1.1 property path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyPath {
    /// A plain predicate IRI.
    Iri(Iri),
    /// `^path` — inverse.
    Inverse(Box<PropertyPath>),
    /// `a/b` — sequence.
    Sequence(Box<PropertyPath>, Box<PropertyPath>),
    /// `a|b` — alternation.
    Alternative(Box<PropertyPath>, Box<PropertyPath>),
    /// `p*` — zero or more (distinct-pairs semantics).
    ZeroOrMore(Box<PropertyPath>),
    /// `p+` — one or more.
    OneOrMore(Box<PropertyPath>),
    /// `p?` — zero or one.
    ZeroOrOne(Box<PropertyPath>),
}

impl PropertyPath {
    /// True for a bare predicate IRI.
    pub fn is_plain(&self) -> bool {
        matches!(self, PropertyPath::Iri(_))
    }
}

/// The predicate position of a triple pattern: a variable or a path
/// (plain IRIs are paths of one step).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredicatePattern {
    /// A predicate variable (`?p`).
    Var(Var),
    /// A property path (possibly just an IRI).
    Path(PropertyPath),
}

/// One triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    /// Subject position.
    pub subject: VarOrTerm,
    /// Predicate position.
    pub predicate: PredicatePattern,
    /// Object position.
    pub object: VarOrTerm,
}

/// A graph pattern (the body of a `WHERE`, recursively).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphPattern {
    /// A basic graph pattern: a conjunction of triple patterns.
    Bgp(Vec<TriplePattern>),
    /// `GRAPH ?g { ... }` or `GRAPH <iri> { ... }`.
    Graph(VarOrTerm, Box<GraphPattern>),
    /// A group `{ p1 . p2 ... FILTER(e) ... }`: members are joined, then
    /// filters apply over the joined solutions.
    Group(Vec<GraphPattern>, Vec<Expression>),
    /// `{ a } UNION { b }`.
    Union(Box<GraphPattern>, Box<GraphPattern>),
    /// `a OPTIONAL { b }` — left outer join.
    Optional(Box<GraphPattern>, Box<GraphPattern>),
    /// A nested `SELECT` used as a pattern.
    SubSelect(Box<SelectQuery>),
    /// `VALUES (?a ?b) { (v1 v2) ... }` — inline solution sequence; `None`
    /// entries are UNDEF.
    Values(Vec<Var>, Vec<Vec<Option<Term>>>),
    /// `BIND(expr AS ?v)`.
    Bind(Expression, Var),
    /// `MINUS { ... }` — removes compatible solutions.
    Minus(Box<GraphPattern>),
}

/// Scalar and boolean expressions (FILTER / SELECT expressions /
/// ORDER BY keys).
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// A variable reference.
    Var(Var),
    /// A constant term (literal or IRI).
    Constant(Term),
    /// `a || b`.
    Or(Box<Expression>, Box<Expression>),
    /// `a && b`.
    And(Box<Expression>, Box<Expression>),
    /// `!a`.
    Not(Box<Expression>),
    /// Comparison / equality.
    Compare(CompareOp, Box<Expression>, Box<Expression>),
    /// `+ - * /`.
    Arith(ArithOp, Box<Expression>, Box<Expression>),
    /// Unary minus.
    Neg(Box<Expression>),
    /// Built-in function call.
    Call(Function, Vec<Expression>),
    /// An aggregate (only valid in SELECT/HAVING of a grouped query).
    Aggregate(Box<Aggregate>),
    /// `EXISTS { ... }` / `NOT EXISTS { ... }` (the bool is `true` for the
    /// negated form).
    Exists(Box<GraphPattern>, bool),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
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
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Supported built-in functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Function {
    /// `isLiteral(x)` — the key filter of the paper's Q3/Q4.
    IsLiteral,
    /// `isIRI(x)` / `isURI(x)`.
    IsIri,
    /// `isBlank(x)`.
    IsBlank,
    /// `BOUND(?v)`.
    Bound,
    /// `STR(x)`.
    Str,
    /// `LANG(x)`.
    Lang,
    /// `DATATYPE(x)`.
    Datatype,
    /// `CONCAT(a, b, ...)`.
    Concat,
    /// `STRSTARTS(a, b)`.
    StrStarts,
    /// `STRENDS(a, b)`.
    StrEnds,
    /// `CONTAINS(a, b)`.
    Contains,
    /// `STRLEN(a)`.
    StrLen,
    /// `UCASE(a)`.
    Ucase,
    /// `LCASE(a)`.
    Lcase,
    /// `ABS(a)`.
    Abs,
    /// `REGEX(text, pattern)` — substring/anchored subset, no flags.
    Regex,
}

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// `COUNT(*)`.
    CountAll,
    /// `COUNT(expr)` / `COUNT(DISTINCT expr)`.
    Count {
        /// DISTINCT flag.
        distinct: bool,
        /// Counted expression.
        expr: Expression,
    },
    /// `SUM(expr)`.
    Sum(Expression),
    /// `AVG(expr)`.
    Avg(Expression),
    /// `MIN(expr)`.
    Min(Expression),
    /// `MAX(expr)`.
    Max(Expression),
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `?v`.
    Var(Var),
    /// `(expr AS ?v)`.
    Expr(Expression, Var),
}

impl Projection {
    /// The output variable name of this column.
    pub fn var(&self) -> &str {
        match self {
            Projection::Var(v) => v,
            Projection::Expr(_, v) => v,
        }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression.
    pub expr: Expression,
    /// True for `DESC(...)`.
    pub descending: bool,
}

/// A `SELECT` query (also used for sub-selects).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Projected columns; empty means `SELECT *`.
    pub projection: Vec<Projection>,
    /// The WHERE pattern.
    pub pattern: GraphPattern,
    /// `GROUP BY` variables.
    pub group_by: Vec<Var>,
    /// `HAVING` conditions (post-aggregation filters).
    pub having: Vec<Expression>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`.
    pub limit: Option<usize>,
    /// `OFFSET`.
    pub offset: Option<usize>,
}

/// A query of any form.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `SELECT ...`.
    Select(SelectQuery),
    /// `ASK { ... }`.
    Ask(GraphPattern),
    /// `CONSTRUCT { template } WHERE { ... }` — instantiates the template
    /// once per solution and returns the (deduplicated) quads.
    Construct(Vec<QuadTemplate>, Box<SelectQuery>),
}

/// A ground quad template used by updates; graph `None` = default graph
/// (or the surrounding `GRAPH` context).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuadTemplate {
    /// Subject (variable allowed in WHERE-driven forms).
    pub subject: VarOrTerm,
    /// Predicate.
    pub predicate: VarOrTerm,
    /// Object.
    pub object: VarOrTerm,
    /// Graph (`None` = default graph).
    pub graph: Option<VarOrTerm>,
}

/// A SPARQL 1.1 Update operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// `INSERT DATA { ... }` — ground quads only.
    InsertData(Vec<QuadTemplate>),
    /// `DELETE DATA { ... }` — ground quads only.
    DeleteData(Vec<QuadTemplate>),
    /// `DELETE WHERE { ... }` — pattern doubles as the delete template.
    DeleteWhere(Vec<QuadTemplate>),
    /// `DELETE { ... } INSERT { ... } WHERE { ... }` (either template may
    /// be absent).
    Modify {
        /// Quads to delete per solution.
        delete: Vec<QuadTemplate>,
        /// Quads to insert per solution.
        insert: Vec<QuadTemplate>,
        /// The WHERE pattern producing solutions.
        pattern: GraphPattern,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_var_names() {
        assert_eq!(Projection::Var("x".into()).var(), "x");
        assert_eq!(
            Projection::Expr(Expression::Var("y".into()), "cnt".into()).var(),
            "cnt"
        );
    }

    #[test]
    fn plain_path_detection() {
        assert!(PropertyPath::Iri(Iri::new("http://p")).is_plain());
        assert!(
            !PropertyPath::OneOrMore(Box::new(PropertyPath::Iri(Iri::new("http://p")))).is_plain()
        );
    }

    #[test]
    fn var_or_term_accessor() {
        assert_eq!(VarOrTerm::Var("x".into()).as_var(), Some("x"));
        assert_eq!(VarOrTerm::Term(Term::iri("http://x")).as_var(), None);
    }
}
