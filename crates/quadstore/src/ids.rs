//! Encoded (ID-based) quads and scan patterns.

use rdf_model::TermId;

/// A quad encoded as four term IDs in `[S, P, O, G]` order.
///
/// The graph component uses [`TermId::DEFAULT_GRAPH`] (`0`) for the default
/// graph, so the whole quad is a fixed-width key — this mirrors the ID-based
/// storage of Oracle's RDF store (§3.1).
pub type EncodedQuad = [u64; 4];

/// Positions within an [`EncodedQuad`].
pub const S: usize = 0;
/// Predicate position.
pub const P: usize = 1;
/// Object ("canonical object", C in the paper's index names) position.
pub const O: usize = 2;
/// Graph position.
pub const G: usize = 3;

/// Builds an encoded quad from component IDs.
pub fn encode(s: TermId, p: TermId, o: TermId, g: TermId) -> EncodedQuad {
    [s.0, p.0, o.0, g.0]
}

/// How the graph position of a scan is constrained.
///
/// SPARQL semantics need more than bound/unbound here: a triple pattern
/// outside any `GRAPH` clause matches **only** the default graph, while
/// `GRAPH ?g { ... }` matches **only** named graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphConstraint {
    /// Only the default graph (encoded graph ID `0`).
    DefaultOnly,
    /// Exactly one named graph.
    Named(TermId),
    /// Any named graph (graph ID `!= 0`).
    AnyNamed,
    /// No constraint at all (default or named) — used by administrative
    /// scans, not by SPARQL matching.
    Any,
}

impl GraphConstraint {
    /// The bound graph ID, if the constraint pins one.
    pub fn bound_id(self) -> Option<u64> {
        match self {
            GraphConstraint::DefaultOnly => Some(0),
            GraphConstraint::Named(id) => Some(id.0),
            GraphConstraint::AnyNamed | GraphConstraint::Any => None,
        }
    }

    /// Whether an encoded graph ID satisfies the constraint.
    pub fn matches(self, g: u64) -> bool {
        match self {
            GraphConstraint::DefaultOnly => g == 0,
            GraphConstraint::Named(id) => g == id.0,
            GraphConstraint::AnyNamed => g != 0,
            GraphConstraint::Any => true,
        }
    }
}

/// An encoded scan pattern: bound or wildcard per S/P/O position plus a
/// [`GraphConstraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuadPattern {
    /// Subject constraint (`None` = wildcard).
    pub s: Option<TermId>,
    /// Predicate constraint.
    pub p: Option<TermId>,
    /// Object constraint.
    pub o: Option<TermId>,
    /// Graph constraint.
    pub g: GraphConstraint,
}

impl QuadPattern {
    /// A fully-wildcard pattern over the default graph.
    pub fn default_graph() -> Self {
        QuadPattern {
            s: None,
            p: None,
            o: None,
            g: GraphConstraint::DefaultOnly,
        }
    }

    /// A fully-wildcard pattern over everything.
    pub fn any() -> Self {
        QuadPattern {
            s: None,
            p: None,
            o: None,
            g: GraphConstraint::Any,
        }
    }

    /// Bound value for one of the S/P/O/G positions (by [`EncodedQuad`]
    /// index), if pinned.
    pub fn bound(&self, position: usize) -> Option<u64> {
        match position {
            S => self.s.map(|t| t.0),
            P => self.p.map(|t| t.0),
            O => self.o.map(|t| t.0),
            G => self.g.bound_id(),
            _ => unreachable!("quad position out of range"),
        }
    }

    /// Whether an encoded quad matches this pattern.
    pub fn matches(&self, quad: &EncodedQuad) -> bool {
        self.s.is_none_or(|t| t.0 == quad[S])
            && self.p.is_none_or(|t| t.0 == quad[P])
            && self.o.is_none_or(|t| t.0 == quad[O])
            && self.g.matches(quad[G])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_constraint_matching() {
        assert!(GraphConstraint::DefaultOnly.matches(0));
        assert!(!GraphConstraint::DefaultOnly.matches(5));
        assert!(GraphConstraint::Named(TermId(5)).matches(5));
        assert!(!GraphConstraint::Named(TermId(5)).matches(6));
        assert!(GraphConstraint::AnyNamed.matches(7));
        assert!(!GraphConstraint::AnyNamed.matches(0));
        assert!(GraphConstraint::Any.matches(0));
        assert!(GraphConstraint::Any.matches(9));
    }

    #[test]
    fn pattern_matches_components() {
        let q = encode(TermId(1), TermId(2), TermId(3), TermId(4));
        let mut pat = QuadPattern::any();
        assert!(pat.matches(&q));
        pat.s = Some(TermId(1));
        pat.o = Some(TermId(3));
        assert!(pat.matches(&q));
        pat.p = Some(TermId(9));
        assert!(!pat.matches(&q));
    }

    #[test]
    fn bound_positions() {
        let pat = QuadPattern {
            s: Some(TermId(1)),
            p: None,
            o: None,
            g: GraphConstraint::Named(TermId(4)),
        };
        assert_eq!(pat.bound(S), Some(1));
        assert_eq!(pat.bound(P), None);
        assert_eq!(pat.bound(G), Some(4));
        let dpat = QuadPattern::default_graph();
        assert_eq!(dpat.bound(G), Some(0));
    }
}
