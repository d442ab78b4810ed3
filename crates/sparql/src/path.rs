//! Property-path evaluation for closure operators (`*`, `+`, `?`).
//!
//! Sequences and alternatives outside closures are rewritten into joins
//! and unions at compile time; this module handles the genuinely recursive
//! part with breadth-first search over the dataset, producing *distinct*
//! node pairs as SPARQL 1.1 requires for `ZeroOrMorePath`/`OneOrMorePath`.
//!
//! The paper notes (§5.1/§6) that SPARQL 1.1 property paths cannot carry
//! length limits or path variables; the procedural alternative lives in
//! `propertygraph::traversal`.

use std::collections::HashSet;

use quadstore::{DatasetView, GraphConstraint, QuadPattern};
use rdf_model::TermId;

use crate::plan::CPath;

/// Resource hook threaded through closure-path search. Each newly visited
/// search node reports here; returning `false` stops the expansion early
/// (the caller's sticky exhaustion state surfaces the abort as an error).
pub trait PathBudget {
    /// Charges `nodes` newly visited search nodes. `true` = keep going.
    fn path_nodes(&self, nodes: u64) -> bool;
}

/// Evaluates a compiled path between optionally-bound endpoints, returning
/// `(subject, object)` ID pairs.
///
/// * both bound → zero or one pair (a reachability test);
/// * subject bound → forward evaluation;
/// * object bound → backward evaluation (the path is inverted);
/// * neither bound → evaluation from every candidate start node (all
///   distinct subjects/objects touched by the path's predicates).
///
/// The search charges `budget` as it runs, so it observes the memory
/// budget and the periodic deadline/cancel check of the executor instead
/// of only after it returns.
pub fn eval_path_pairs(
    view: &DatasetView,
    path: &CPath,
    graph: GraphConstraint,
    s: Option<u64>,
    o: Option<u64>,
    budget: &dyn PathBudget,
) -> Vec<(u64, u64)> {
    match (s, o) {
        (Some(s), Some(o)) => {
            if reaches(view, path, graph, s, o, budget) {
                vec![(s, o)]
            } else {
                Vec::new()
            }
        }
        (Some(s), None) => forward(view, path, graph, s, budget)
            .into_iter()
            .map(|o| (s, o))
            .collect(),
        (None, Some(o)) => backward(view, path, graph, o, budget)
            .into_iter()
            .map(|s| (s, o))
            .collect(),
        (None, None) => {
            let mut out = Vec::new();
            for start in candidate_starts(view, path, graph, budget) {
                for end in forward(view, path, graph, start, budget) {
                    out.push((start, end));
                }
                if !budget.path_nodes(0) {
                    break;
                }
            }
            out
        }
    }
}

/// All nodes reachable from `start` via `path` (distinct).
pub fn forward(
    view: &DatasetView,
    path: &CPath,
    graph: GraphConstraint,
    start: u64,
    budget: &dyn PathBudget,
) -> Vec<u64> {
    match path {
        CPath::Iri(_, id) => match id {
            Some(pid) => scan_objects(view, graph, Some(start), pid.0),
            None => Vec::new(),
        },
        CPath::Inverse(inner) => backward(view, inner, graph, start, budget),
        CPath::Sequence(a, b) => {
            let mut out = HashSet::new();
            for mid in forward(view, a, graph, start, budget) {
                for end in forward(view, b, graph, mid, budget) {
                    if out.insert(end) && !budget.path_nodes(1) {
                        return out.into_iter().collect();
                    }
                }
            }
            out.into_iter().collect()
        }
        CPath::Alternative(a, b) => {
            let mut out: HashSet<u64> =
                forward(view, a, graph, start, budget).into_iter().collect();
            out.extend(forward(view, b, graph, start, budget));
            out.into_iter().collect()
        }
        CPath::ZeroOrOne(inner) => {
            let mut out: HashSet<u64> = forward(view, inner, graph, start, budget)
                .into_iter()
                .collect();
            out.insert(start);
            out.into_iter().collect()
        }
        CPath::ZeroOrMore(inner) => {
            bfs(view, inner, graph, start, true, Direction::Forward, budget)
        }
        CPath::OneOrMore(inner) => {
            bfs(view, inner, graph, start, false, Direction::Forward, budget)
        }
    }
}

/// All nodes that reach `end` via `path` (distinct).
pub fn backward(
    view: &DatasetView,
    path: &CPath,
    graph: GraphConstraint,
    end: u64,
    budget: &dyn PathBudget,
) -> Vec<u64> {
    match path {
        CPath::Iri(_, id) => match id {
            Some(pid) => scan_subjects(view, graph, pid.0, Some(end)),
            None => Vec::new(),
        },
        CPath::Inverse(inner) => forward(view, inner, graph, end, budget),
        CPath::Sequence(a, b) => {
            let mut out = HashSet::new();
            for mid in backward(view, b, graph, end, budget) {
                for s in backward(view, a, graph, mid, budget) {
                    if out.insert(s) && !budget.path_nodes(1) {
                        return out.into_iter().collect();
                    }
                }
            }
            out.into_iter().collect()
        }
        CPath::Alternative(a, b) => {
            let mut out: HashSet<u64> = backward(view, a, graph, end, budget).into_iter().collect();
            out.extend(backward(view, b, graph, end, budget));
            out.into_iter().collect()
        }
        CPath::ZeroOrOne(inner) => {
            let mut out: HashSet<u64> = backward(view, inner, graph, end, budget)
                .into_iter()
                .collect();
            out.insert(end);
            out.into_iter().collect()
        }
        CPath::ZeroOrMore(inner) => bfs(view, inner, graph, end, true, Direction::Backward, budget),
        CPath::OneOrMore(inner) => bfs(view, inner, graph, end, false, Direction::Backward, budget),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Forward,
    Backward,
}

fn bfs(
    view: &DatasetView,
    inner: &CPath,
    graph: GraphConstraint,
    start: u64,
    include_start: bool,
    direction: Direction,
    budget: &dyn PathBudget,
) -> Vec<u64> {
    let mut visited: HashSet<u64> = HashSet::new();
    let mut frontier: Vec<u64> = vec![start];
    let mut result: HashSet<u64> = HashSet::new();
    if include_start {
        result.insert(start);
    }
    visited.insert(start);
    if !budget.path_nodes(1) {
        return result.into_iter().collect();
    }
    while let Some(node) = frontier.pop() {
        let nexts = match direction {
            Direction::Forward => forward(view, inner, graph, node, budget),
            Direction::Backward => backward(view, inner, graph, node, budget),
        };
        for next in nexts {
            result.insert(next);
            if visited.insert(next) {
                frontier.push(next);
                // The frontier, visited, and result sets all retain this
                // node; a failed charge drains the search immediately.
                if !budget.path_nodes(1) {
                    return result.into_iter().collect();
                }
            }
        }
    }
    result.into_iter().collect()
}

fn reaches(
    view: &DatasetView,
    path: &CPath,
    graph: GraphConstraint,
    s: u64,
    o: u64,
    budget: &dyn PathBudget,
) -> bool {
    forward(view, path, graph, s, budget).contains(&o)
}

fn scan_objects(view: &DatasetView, graph: GraphConstraint, s: Option<u64>, p: u64) -> Vec<u64> {
    let pattern = QuadPattern {
        s: s.map(TermId),
        p: Some(TermId(p)),
        o: None,
        g: graph,
    };
    view.scan(pattern).map(|q| q[quadstore::ids::O]).collect()
}

fn scan_subjects(view: &DatasetView, graph: GraphConstraint, p: u64, o: Option<u64>) -> Vec<u64> {
    let pattern = QuadPattern {
        s: None,
        p: Some(TermId(p)),
        o: o.map(TermId),
        g: graph,
    };
    view.scan(pattern).map(|q| q[quadstore::ids::S]).collect()
}

/// Candidate start nodes for a fully-unbound closure path: every distinct
/// subject or object of quads using any predicate mentioned in the path.
fn candidate_starts(
    view: &DatasetView,
    path: &CPath,
    graph: GraphConstraint,
    budget: &dyn PathBudget,
) -> Vec<u64> {
    let mut preds = Vec::new();
    collect_predicates(path, &mut preds);
    let mut nodes = HashSet::new();
    for pid in preds {
        let pattern = QuadPattern {
            s: None,
            p: Some(TermId(pid)),
            o: None,
            g: graph,
        };
        for quad in view.scan(pattern) {
            let mut fresh = 0;
            fresh += u64::from(nodes.insert(quad[quadstore::ids::S]));
            fresh += u64::from(nodes.insert(quad[quadstore::ids::O]));
            if fresh > 0 && !budget.path_nodes(fresh) {
                return nodes.into_iter().collect();
            }
        }
    }
    nodes.into_iter().collect()
}

fn collect_predicates(path: &CPath, out: &mut Vec<u64>) {
    match path {
        CPath::Iri(_, Some(id)) => out.push(id.0),
        CPath::Iri(_, None) => {}
        CPath::Inverse(p) | CPath::ZeroOrMore(p) | CPath::OneOrMore(p) | CPath::ZeroOrOne(p) => {
            collect_predicates(p, out)
        }
        CPath::Sequence(a, b) | CPath::Alternative(a, b) => {
            collect_predicates(a, out);
            collect_predicates(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadstore::Store;
    use rdf_model::{Quad, Term};

    /// A [`PathBudget`] that never stops the search.
    struct Unbounded;

    impl PathBudget for Unbounded {
        fn path_nodes(&self, _nodes: u64) -> bool {
            true
        }
    }

    /// Chain 1 -> 2 -> 3 -> 4 plus a cycle 4 -> 1.
    fn chain_store() -> Store {
        let store = Store::new();
        store.create_model("m").unwrap();
        let f = "http://pg/r/follows";
        let quads: Vec<Quad> = [(1u32, 2u32), (2, 3), (3, 4), (4, 1)]
            .iter()
            .map(|(a, b)| {
                Quad::triple(
                    Term::iri(format!("http://pg/v{a}")),
                    Term::iri(f),
                    Term::iri(format!("http://pg/v{b}")),
                )
                .unwrap()
            })
            .collect();
        store.bulk_load("m", &quads).unwrap();
        store
    }

    fn node_id(store: &Store, n: u32) -> u64 {
        store
            .term_id(&Term::iri(format!("http://pg/v{n}")))
            .unwrap()
            .0
    }

    fn follows_path(store: &Store) -> CPath {
        let term = Term::iri("http://pg/r/follows");
        let id = store.term_id(&term);
        CPath::Iri(term, id)
    }

    #[test]
    fn one_or_more_traverses_cycle_without_looping() {
        let store = chain_store();
        let view = store.dataset("m").unwrap();
        let path = CPath::OneOrMore(Box::new(follows_path(&store)));
        let start = node_id(&store, 1);
        let mut reached = forward(
            &view,
            &path,
            GraphConstraint::DefaultOnly,
            start,
            &Unbounded,
        );
        reached.sort_unstable();
        // 1+ reaches 2,3,4 and (via the cycle) 1 itself.
        assert_eq!(reached.len(), 4);
        assert!(reached.contains(&start));
    }

    #[test]
    fn zero_or_more_includes_start() {
        let store = Store::new();
        store.create_model("m").unwrap();
        store
            .bulk_load(
                "m",
                &[Quad::triple(
                    Term::iri("http://a"),
                    Term::iri("http://p"),
                    Term::iri("http://b"),
                )
                .unwrap()],
            )
            .unwrap();
        let view = store.dataset("m").unwrap();
        let term = Term::iri("http://p");
        let id = store.term_id(&term);
        let path = CPath::ZeroOrMore(Box::new(CPath::Iri(term, id)));
        let a = store.term_id(&Term::iri("http://a")).unwrap().0;
        let mut reached = forward(&view, &path, GraphConstraint::DefaultOnly, a, &Unbounded);
        reached.sort_unstable();
        assert_eq!(reached.len(), 2); // a itself and b
        assert!(reached.contains(&a));
    }

    #[test]
    fn backward_matches_forward() {
        let store = chain_store();
        let view = store.dataset("m").unwrap();
        let path = CPath::OneOrMore(Box::new(follows_path(&store)));
        let end = node_id(&store, 3);
        let sources = backward(&view, &path, GraphConstraint::DefaultOnly, end, &Unbounded);
        // Everyone reaches 3 in the cycle.
        assert_eq!(sources.len(), 4);
    }

    #[test]
    fn reachability_pair_test() {
        let store = chain_store();
        let view = store.dataset("m").unwrap();
        let path = CPath::OneOrMore(Box::new(follows_path(&store)));
        let s = node_id(&store, 1);
        let o = node_id(&store, 4);
        let graph = GraphConstraint::DefaultOnly;
        let pairs = eval_path_pairs(&view, &path, graph, Some(s), Some(o), &Unbounded);
        assert_eq!(pairs, vec![(s, o)]);
    }

    #[test]
    fn unbound_both_enumerates_all_pairs() {
        let store = chain_store();
        let view = store.dataset("m").unwrap();
        let path = CPath::OneOrMore(Box::new(follows_path(&store)));
        let graph = GraphConstraint::DefaultOnly;
        let pairs = eval_path_pairs(&view, &path, graph, None, None, &Unbounded);
        // Cycle of 4: every node reaches all 4 nodes -> 16 pairs.
        assert_eq!(pairs.len(), 16);
    }

    #[test]
    fn missing_predicate_yields_nothing() {
        let store = chain_store();
        let view = store.dataset("m").unwrap();
        let path = CPath::OneOrMore(Box::new(CPath::Iri(Term::iri("http://nowhere"), None)));
        assert!(forward(&view, &path, GraphConstraint::DefaultOnly, 1, &Unbounded).is_empty());
    }

    #[test]
    fn zero_or_one() {
        let store = chain_store();
        let view = store.dataset("m").unwrap();
        let path = CPath::ZeroOrOne(Box::new(follows_path(&store)));
        let start = node_id(&store, 1);
        let mut reached = forward(
            &view,
            &path,
            GraphConstraint::DefaultOnly,
            start,
            &Unbounded,
        );
        reached.sort_unstable();
        assert_eq!(reached.len(), 2); // itself + direct successor
    }
}
