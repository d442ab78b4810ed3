//! Inference rules: triple-pattern bodies deriving triple-pattern heads.
//!
//! This is the "user-defined rules capability" of §5.2 — e.g. the rule
//! deriving `:hasTagR` edges that "directly link the node with `#Tampa`
//! tag to its neighboring countries".

use rdf_model::Term;

/// A variable or constant position in a rule atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RuleTerm {
    /// A rule variable (by name).
    Var(String),
    /// A constant term.
    Const(Term),
}

impl RuleTerm {
    /// Convenience variable constructor.
    pub fn var(name: &str) -> Self {
        RuleTerm::Var(name.to_string())
    }

    /// Convenience IRI constant constructor.
    pub fn iri(iri: &str) -> Self {
        RuleTerm::Const(Term::iri(iri))
    }
}

/// One triple atom of a rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Subject.
    pub s: RuleTerm,
    /// Predicate.
    pub p: RuleTerm,
    /// Object.
    pub o: RuleTerm,
}

impl Atom {
    /// Builds an atom.
    pub fn new(s: RuleTerm, p: RuleTerm, o: RuleTerm) -> Self {
        Atom { s, p, o }
    }
}

/// A Horn rule: `body1 ∧ body2 ∧ ... → head1 ∧ head2 ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (for reports).
    pub name: String,
    /// Body atoms (conjunction).
    pub body: Vec<Atom>,
    /// Head atoms (each instantiated per body match).
    pub head: Vec<Atom>,
}

impl Rule {
    /// Builds a named rule.
    pub fn new(name: &str, body: Vec<Atom>, head: Vec<Atom>) -> Self {
        Rule {
            name: name.to_string(),
            body,
            head,
        }
    }

    /// Head variables must all occur in the body (safe rules) — returns
    /// `false` otherwise.
    pub fn is_safe(&self) -> bool {
        let mut body_vars = std::collections::HashSet::new();
        for atom in &self.body {
            for t in [&atom.s, &atom.p, &atom.o] {
                if let RuleTerm::Var(v) = t {
                    body_vars.insert(v.clone());
                }
            }
        }
        self.head.iter().all(|atom| {
            [&atom.s, &atom.p, &atom.o].iter().all(|t| match t {
                RuleTerm::Var(v) => body_vars.contains(v),
                RuleTerm::Const(_) => true,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safety_check() {
        let safe = Rule::new(
            "r",
            vec![Atom::new(
                RuleTerm::var("x"),
                RuleTerm::iri("http://p"),
                RuleTerm::var("y"),
            )],
            vec![Atom::new(
                RuleTerm::var("y"),
                RuleTerm::iri("http://q"),
                RuleTerm::var("x"),
            )],
        );
        assert!(safe.is_safe());
        let unsafe_rule = Rule::new(
            "r2",
            vec![Atom::new(
                RuleTerm::var("x"),
                RuleTerm::iri("http://p"),
                RuleTerm::var("y"),
            )],
            vec![Atom::new(
                RuleTerm::var("z"),
                RuleTerm::iri("http://q"),
                RuleTerm::var("x"),
            )],
        );
        assert!(!unsafe_rule.is_safe());
    }
}
