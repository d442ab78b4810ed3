//! Built-in rulesets: the RDFS subset and the OWL slice the paper's §5.2
//! enrichment scenarios rely on (`owl:sameAs`, `owl:equivalentProperty`).

use rdf_model::vocab::{owl, rdf, rdfs};

use crate::rule::{Atom, Rule, RuleTerm};

fn v(name: &str) -> RuleTerm {
    RuleTerm::var(name)
}

fn c(iri: &str) -> RuleTerm {
    RuleTerm::iri(iri)
}

/// The RDFS entailment subset: subPropertyOf (transitivity + property
/// inheritance), subClassOf (transitivity + instance propagation), and
/// domain/range typing.
pub fn rdfs_rules() -> Vec<Rule> {
    vec![
        Rule::new(
            "rdfs5-subPropertyOf-transitive",
            vec![
                Atom::new(v("p"), c(rdfs::SUB_PROPERTY_OF), v("q")),
                Atom::new(v("q"), c(rdfs::SUB_PROPERTY_OF), v("r")),
            ],
            vec![Atom::new(v("p"), c(rdfs::SUB_PROPERTY_OF), v("r"))],
        ),
        Rule::new(
            "rdfs7-subPropertyOf-inheritance",
            vec![
                Atom::new(v("s"), v("p"), v("o")),
                Atom::new(v("p"), c(rdfs::SUB_PROPERTY_OF), v("q")),
            ],
            vec![Atom::new(v("s"), v("q"), v("o"))],
        ),
        Rule::new(
            "rdfs11-subClassOf-transitive",
            vec![
                Atom::new(v("x"), c(rdfs::SUB_CLASS_OF), v("y")),
                Atom::new(v("y"), c(rdfs::SUB_CLASS_OF), v("z")),
            ],
            vec![Atom::new(v("x"), c(rdfs::SUB_CLASS_OF), v("z"))],
        ),
        Rule::new(
            "rdfs9-subClassOf-instances",
            vec![
                Atom::new(v("i"), c(rdf::TYPE), v("cls")),
                Atom::new(v("cls"), c(rdfs::SUB_CLASS_OF), v("sup")),
            ],
            vec![Atom::new(v("i"), c(rdf::TYPE), v("sup"))],
        ),
        Rule::new(
            "rdfs2-domain",
            vec![
                Atom::new(v("p"), c(rdfs::DOMAIN), v("cls")),
                Atom::new(v("s"), v("p"), v("o")),
            ],
            vec![Atom::new(v("s"), c(rdf::TYPE), v("cls"))],
        ),
        Rule::new(
            "rdfs3-range",
            vec![
                Atom::new(v("p"), c(rdfs::RANGE), v("cls")),
                Atom::new(v("s"), v("p"), v("o")),
            ],
            vec![Atom::new(v("o"), c(rdf::TYPE), v("cls"))],
        ),
    ]
}

/// The `owl:sameAs` ruleset: symmetry, transitivity, and subject/object
/// substitution (§5.2: sameAs "already has a heavy usage in linked data
/// integration").
pub fn same_as_rules() -> Vec<Rule> {
    vec![
        Rule::new(
            "sameAs-symmetric",
            vec![Atom::new(v("x"), c(owl::SAME_AS), v("y"))],
            vec![Atom::new(v("y"), c(owl::SAME_AS), v("x"))],
        ),
        Rule::new(
            "sameAs-transitive",
            vec![
                Atom::new(v("x"), c(owl::SAME_AS), v("y")),
                Atom::new(v("y"), c(owl::SAME_AS), v("z")),
            ],
            vec![Atom::new(v("x"), c(owl::SAME_AS), v("z"))],
        ),
        Rule::new(
            "sameAs-subject-substitution",
            vec![
                Atom::new(v("x"), c(owl::SAME_AS), v("y")),
                Atom::new(v("x"), v("p"), v("o")),
            ],
            vec![Atom::new(v("y"), v("p"), v("o"))],
        ),
        Rule::new(
            "sameAs-object-substitution",
            vec![
                Atom::new(v("x"), c(owl::SAME_AS), v("y")),
                Atom::new(v("s"), v("p"), v("x")),
            ],
            vec![Atom::new(v("s"), v("p"), v("y"))],
        ),
    ]
}

/// `owl:equivalentProperty`: symmetry + mutual property inheritance (§5.2:
/// "predicate IRIs ... could be mapped through owl:equivalentProperty
/// assertions to properties from existing domain ontologies").
pub fn equivalent_property_rules() -> Vec<Rule> {
    vec![
        Rule::new(
            "eqProp-symmetric",
            vec![Atom::new(v("p"), c(owl::EQUIVALENT_PROPERTY), v("q"))],
            vec![Atom::new(v("q"), c(owl::EQUIVALENT_PROPERTY), v("p"))],
        ),
        Rule::new(
            "eqProp-inheritance",
            vec![
                Atom::new(v("p"), c(owl::EQUIVALENT_PROPERTY), v("q")),
                Atom::new(v("s"), v("p"), v("o")),
            ],
            vec![Atom::new(v("s"), v("q"), v("o"))],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InferenceEngine;
    use quadstore::Store;
    use rdf_model::{Quad, Term};

    fn load(store: &mut Store, model: &str, triples: &[(&str, &str, &str)]) {
        let quads: Vec<Quad> = triples
            .iter()
            .map(|(s, p, o)| Quad::triple(Term::iri(*s), Term::iri(*p), Term::iri(*o)).unwrap())
            .collect();
        store.bulk_load(model, &quads).unwrap();
    }

    #[test]
    fn all_builtin_rules_are_safe() {
        for rule in rdfs_rules()
            .into_iter()
            .chain(same_as_rules())
            .chain(equivalent_property_rules())
        {
            assert!(rule.is_safe(), "{}", rule.name);
        }
    }

    #[test]
    fn subproperty_inheritance_derives_spo() {
        // The SP model without asserted -s-p-o: inference recovers it.
        let mut store = Store::new();
        store.create_model("data").unwrap();
        load(
            &mut store,
            "data",
            &[
                ("http://pg/v1", "http://pg/e3", "http://pg/v2"),
                (
                    "http://pg/e3",
                    rdf_model::vocab::rdfs::SUB_PROPERTY_OF,
                    "http://pg/r/follows",
                ),
            ],
        );
        let mut engine = InferenceEngine::new();
        engine.add_rules(rdfs_rules()).unwrap();
        let stats = engine.run(&mut store, &["data"], "inf").unwrap();
        assert!(stats.derived >= 1);
        let inferred = store.dataset("inf").unwrap();
        let follows = store.term_id(&Term::iri("http://pg/r/follows")).unwrap();
        let pat = quadstore::QuadPattern {
            s: None,
            p: Some(follows),
            o: None,
            g: quadstore::GraphConstraint::Any,
        };
        assert_eq!(inferred.scan(pat).count(), 1, "v1 follows v2 derived");
    }

    #[test]
    fn same_as_substitution() {
        let mut store = Store::new();
        store.create_model("data").unwrap();
        load(
            &mut store,
            "data",
            &[
                ("http://a", rdf_model::vocab::owl::SAME_AS, "http://b"),
                ("http://a", "http://p", "http://c"),
            ],
        );
        let mut engine = InferenceEngine::new();
        engine.add_rules(same_as_rules()).unwrap();
        engine.run(&mut store, &["data"], "inf").unwrap();
        let b = store.term_id(&Term::iri("http://b")).unwrap();
        let inferred = store.dataset("inf").unwrap();
        let pat = quadstore::QuadPattern {
            s: Some(b),
            p: None,
            o: None,
            g: quadstore::GraphConstraint::Any,
        };
        // b sameAs a (symmetry), b p c (substitution), and b sameAs b
        // (substitution applied to the sameAs triple itself).
        assert_eq!(inferred.scan(pat).count(), 3);
    }

    #[test]
    fn equivalent_property_propagates_both_ways() {
        let mut store = Store::new();
        store.create_model("data").unwrap();
        load(
            &mut store,
            "data",
            &[
                (
                    "http://p",
                    rdf_model::vocab::owl::EQUIVALENT_PROPERTY,
                    "http://q",
                ),
                ("http://s1", "http://p", "http://o1"),
                ("http://s2", "http://q", "http://o2"),
            ],
        );
        let mut engine = InferenceEngine::new();
        engine.add_rules(equivalent_property_rules()).unwrap();
        engine.run(&mut store, &["data"], "inf").unwrap();
        let q = store.term_id(&Term::iri("http://q")).unwrap();
        let p = store.term_id(&Term::iri("http://p")).unwrap();
        let view = store.dataset("inf").unwrap();
        let count_pred = |pid| {
            view.scan(quadstore::QuadPattern {
                s: None,
                p: Some(pid),
                o: None,
                g: quadstore::GraphConstraint::Any,
            })
            .count()
        };
        assert_eq!(count_pred(q), 1); // s1 q o1
        assert_eq!(count_pred(p), 1); // s2 p o2
    }
}
