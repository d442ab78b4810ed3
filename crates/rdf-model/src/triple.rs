//! Triples, quads, and graph names.

use std::fmt;

use crate::error::ModelError;
use crate::term::{Iri, Term};

/// The graph component of a quad: either the default (unnamed) graph or a
/// named graph identified by an IRI or blank node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum GraphName {
    /// The default graph (a bare triple).
    #[default]
    Default,
    /// A named graph.
    Named(Term),
}

impl GraphName {
    /// A named graph from an IRI string.
    pub fn iri(iri: impl Into<String>) -> Self {
        GraphName::Named(Term::iri(iri))
    }

    /// True for the default graph.
    pub fn is_default(&self) -> bool {
        matches!(self, GraphName::Default)
    }

    /// The graph term for named graphs.
    pub fn as_term(&self) -> Option<&Term> {
        match self {
            GraphName::Default => None,
            GraphName::Named(t) => Some(t),
        }
    }
}

impl fmt::Display for GraphName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphName::Default => write!(f, "DEFAULT"),
            GraphName::Named(t) => t.fmt(f),
        }
    }
}

impl From<Iri> for GraphName {
    fn from(iri: Iri) -> Self {
        GraphName::Named(Term::Iri(iri))
    }
}

/// An RDF triple `<subject, predicate, object>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject: IRI or blank node.
    pub subject: Term,
    /// Predicate: IRI.
    pub predicate: Term,
    /// Object: any term.
    pub object: Term,
}

impl Triple {
    /// Creates a triple, enforcing the RDF 1.1 positional restrictions.
    pub fn new(subject: Term, predicate: Term, object: Term) -> Result<Self, ModelError> {
        if !subject.valid_as_subject() {
            return Err(ModelError::InvalidSubject(subject.to_string()));
        }
        if !predicate.valid_as_predicate() {
            return Err(ModelError::InvalidPredicate(predicate.to_string()));
        }
        Ok(Triple {
            subject,
            predicate,
            object,
        })
    }

    /// Creates a triple without positional validation. Used by internal
    /// code paths that construct terms from known-valid components.
    pub fn new_unchecked(subject: Term, predicate: Term, object: Term) -> Self {
        Triple {
            subject,
            predicate,
            object,
        }
    }

    /// Lifts this triple into a quad in the given graph.
    pub fn in_graph(self, graph: GraphName) -> Quad {
        Quad {
            subject: self.subject,
            predicate: self.predicate,
            object: self.object,
            graph,
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// An RDF quad `<subject, predicate, object, graph>` (RDF 1.1 datasets).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Quad {
    /// Subject: IRI or blank node.
    pub subject: Term,
    /// Predicate: IRI.
    pub predicate: Term,
    /// Object: any term.
    pub object: Term,
    /// Graph: default or named.
    pub graph: GraphName,
}

impl Quad {
    /// Creates a quad, enforcing the RDF 1.1 positional restrictions.
    pub fn new(
        subject: Term,
        predicate: Term,
        object: Term,
        graph: GraphName,
    ) -> Result<Self, ModelError> {
        if let GraphName::Named(g) = &graph {
            if !g.valid_as_graph() {
                return Err(ModelError::InvalidGraph(g.to_string()));
            }
        }
        Ok(Triple::new(subject, predicate, object)?.in_graph(graph))
    }

    /// Creates a quad without positional validation.
    pub fn new_unchecked(subject: Term, predicate: Term, object: Term, graph: GraphName) -> Self {
        Quad {
            subject,
            predicate,
            object,
            graph,
        }
    }

    /// A quad in the default graph.
    pub fn triple(subject: Term, predicate: Term, object: Term) -> Result<Self, ModelError> {
        Quad::new(subject, predicate, object, GraphName::Default)
    }

    /// Drops the graph component.
    pub fn into_triple(self) -> Triple {
        Triple {
            subject: self.subject,
            predicate: self.predicate,
            object: self.object,
        }
    }
}

impl fmt::Display for Quad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.graph {
            GraphName::Default => {
                write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
            }
            GraphName::Named(g) => {
                write!(
                    f,
                    "{} {} {} {} .",
                    self.subject, self.predicate, self.object, g
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    fn iri(s: &str) -> Term {
        Term::iri(s)
    }

    #[test]
    fn triple_rejects_literal_subject() {
        let err = Triple::new(Term::string("x"), iri("http://p"), iri("http://o"));
        assert!(matches!(err, Err(ModelError::InvalidSubject(_))));
    }

    #[test]
    fn triple_rejects_non_iri_predicate() {
        let err = Triple::new(iri("http://s"), Term::blank("b"), iri("http://o"));
        assert!(matches!(err, Err(ModelError::InvalidPredicate(_))));
        let err = Triple::new(iri("http://s"), Term::string("p"), iri("http://o"));
        assert!(matches!(err, Err(ModelError::InvalidPredicate(_))));
    }

    #[test]
    fn triple_accepts_blank_subject_and_literal_object() {
        let t = Triple::new(Term::blank("b"), iri("http://p"), Term::string("v")).unwrap();
        assert_eq!(t.to_string(), "_:b <http://p> \"v\" .");
    }

    #[test]
    fn quad_rejects_literal_graph() {
        let err = Quad::new(
            iri("http://s"),
            iri("http://p"),
            iri("http://o"),
            GraphName::Named(Term::Literal(Literal::string("g"))),
        );
        assert!(matches!(err, Err(ModelError::InvalidGraph(_))));
    }

    #[test]
    fn quad_display_includes_graph() {
        let q = Quad::new(
            iri("http://pg/v1"),
            iri("http://pg/r/follows"),
            iri("http://pg/v2"),
            GraphName::iri("http://pg/e3"),
        )
        .unwrap();
        assert_eq!(
            q.to_string(),
            "<http://pg/v1> <http://pg/r/follows> <http://pg/v2> <http://pg/e3> ."
        );
    }

    #[test]
    fn default_graph_quad_displays_as_triple() {
        let q = Quad::triple(iri("http://s"), iri("http://p"), Term::int(23)).unwrap();
        assert_eq!(
            q.to_string(),
            "<http://s> <http://p> \"23\"^^<http://www.w3.org/2001/XMLSchema#int> ."
        );
    }

    #[test]
    fn graph_name_accessors() {
        assert!(GraphName::Default.is_default());
        assert!(GraphName::Default.as_term().is_none());
        let g = GraphName::iri("http://g");
        assert!(!g.is_default());
        assert_eq!(g.as_term().unwrap(), &Term::iri("http://g"));
    }
}
