//! A procedural, Gremlin-style traversal API.
//!
//! The paper's conclusion suggests that for "large highly connected
//! property graphs" where SPARQL property paths cannot bound the length,
//! "an alternative ... is to perform traversal procedurally similar to the
//! approach of Gremlin". This module is that alternative on the PG side:
//! step-by-step expansion with explicit hop control, path counting with
//! multiplicity, and predicate filtering.

use std::collections::BTreeMap;

use crate::graph::{PropertyGraph, VertexId};
use crate::value::PropValue;

/// A traversal position set: vertices with multiplicities (a path counter —
/// two different paths reaching the same vertex count twice, matching
/// SPARQL sequence-path semantics and the paper's EQ11 path counts).
#[derive(Debug, Clone)]
pub struct Traversal<'g> {
    graph: &'g PropertyGraph,
    /// vertex -> number of distinct paths currently ending there.
    frontier: BTreeMap<VertexId, u64>,
}

impl<'g> Traversal<'g> {
    /// Starts at one vertex.
    pub fn start(graph: &'g PropertyGraph, v: VertexId) -> Self {
        let mut frontier = BTreeMap::new();
        if graph.vertex(v).is_some() {
            frontier.insert(v, 1);
        }
        Traversal { graph, frontier }
    }

    /// Starts at all vertices matching a key/value ("qualifying start
    /// nodes identified with certain key/values", §1).
    pub fn start_with_prop(graph: &'g PropertyGraph, key: &str, value: &PropValue) -> Self {
        let frontier = graph
            .vertices_with_prop(key, value)
            .map(|v| (v, 1))
            .collect();
        Traversal { graph, frontier }
    }

    /// One hop along out-edges with the given label (`None` = any).
    pub fn out(self, label: Option<&str>) -> Self {
        let mut next: BTreeMap<VertexId, u64> = BTreeMap::new();
        for (&v, &paths) in &self.frontier {
            for dst in self.graph.out_neighbors(v, label) {
                *next.entry(dst).or_insert(0) += paths;
            }
        }
        Traversal {
            graph: self.graph,
            frontier: next,
        }
    }

    /// One hop along in-edges with the given label.
    pub fn in_(self, label: Option<&str>) -> Self {
        let mut next: BTreeMap<VertexId, u64> = BTreeMap::new();
        for (&v, &paths) in &self.frontier {
            for src in self.graph.in_neighbors(v, label) {
                *next.entry(src).or_insert(0) += paths;
            }
        }
        Traversal {
            graph: self.graph,
            frontier: next,
        }
    }

    /// `k` hops along out-edges — the procedural equivalent of
    /// `p/p/.../p` with an explicit length limit (what §5.1 says SPARQL
    /// 1.1 cannot express).
    pub fn out_hops(self, label: Option<&str>, k: usize) -> Self {
        let mut t = self;
        for _ in 0..k {
            t = t.out(label);
        }
        t
    }

    /// Keeps only vertices whose properties satisfy the predicate.
    pub fn filter(self, predicate: impl Fn(&crate::graph::Vertex) -> bool) -> Self {
        let frontier = self
            .frontier
            .into_iter()
            .filter(|(v, _)| self.graph.vertex(*v).map(&predicate).unwrap_or(false))
            .collect();
        Traversal {
            graph: self.graph,
            frontier,
        }
    }

    /// Keeps only vertices with the given key/value.
    pub fn has(self, key: &str, value: &PropValue) -> Self {
        let key = key.to_string();
        let value = value.clone();
        self.filter(move |v| v.has_prop(&key, &value))
    }

    /// Total number of paths ending in the current frontier (the EQ11
    /// metric: "count all paths from a specific node").
    pub fn path_count(&self) -> u64 {
        self.frontier.values().sum()
    }

    /// Number of distinct vertices in the frontier.
    pub fn distinct_count(&self) -> usize {
        self.frontier.len()
    }

    /// Distinct vertices in the frontier, ascending.
    pub fn vertices(&self) -> Vec<VertexId> {
        self.frontier.keys().copied().collect()
    }
}

/// Enumerates all walks of exactly `length` hops from `start` along
/// out-edges with the given label, returning the full vertex sequences.
///
/// This is precisely what §5.1 of the paper says SPARQL 1.1 *cannot* do
/// ("it is not possible to match an arbitrary length path and return the
/// path itself or perform operations based on characteristics of the
/// path"); the procedural API can. Capped by `max_paths` to keep the
/// exponential blow-up (Figure 8) under caller control.
pub fn enumerate_paths(
    graph: &PropertyGraph,
    start: VertexId,
    label: Option<&str>,
    length: usize,
    max_paths: usize,
) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    let mut stack = vec![start];
    fn recurse(
        graph: &PropertyGraph,
        label: Option<&str>,
        remaining: usize,
        stack: &mut Vec<VertexId>,
        out: &mut Vec<Vec<VertexId>>,
        max_paths: usize,
    ) {
        if out.len() >= max_paths {
            return;
        }
        if remaining == 0 {
            out.push(stack.clone());
            return;
        }
        let last = *stack.last().expect("stack never empty");
        let nexts: Vec<VertexId> = graph.out_neighbors(last, label).collect();
        for next in nexts {
            stack.push(next);
            recurse(graph, label, remaining - 1, stack, out, max_paths);
            stack.pop();
            if out.len() >= max_paths {
                return;
            }
        }
    }
    if graph.vertex(start).is_some() {
        recurse(graph, label, length, &mut stack, &mut out, max_paths);
    }
    out
}

/// Breadth-first shortest path (by hop count) between two vertices along
/// `label` out-edges; returns the vertex sequence including both ends.
pub fn shortest_path(
    graph: &PropertyGraph,
    src: VertexId,
    dst: VertexId,
    label: Option<&str>,
) -> Option<Vec<VertexId>> {
    use std::collections::{HashMap, VecDeque};
    if graph.vertex(src).is_none() || graph.vertex(dst).is_none() {
        return None;
    }
    if src == dst {
        return Some(vec![src]);
    }
    let mut parent: HashMap<VertexId, VertexId> = HashMap::new();
    let mut queue = VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        for next in graph.out_neighbors(v, label) {
            if next == src || parent.contains_key(&next) {
                continue;
            }
            parent.insert(next, v);
            if next == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(next);
        }
    }
    None
}

/// Counts directed triangles of `label` edges: closed walks `x→y→z→x`
/// (each triangle counted once per rotation, as EQ12's SPARQL pattern
/// does).
pub fn count_triangles(graph: &PropertyGraph, label: &str) -> u64 {
    let mut total = 0u64;
    for x in graph.vertex_ids() {
        for y in graph.out_neighbors(x, Some(label)) {
            for z in graph.out_neighbors(y, Some(label)) {
                total += graph
                    .out_neighbors(z, Some(label))
                    .filter(|&w| w == x)
                    .count() as u64;
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1→2, 1→3, 2→4, 3→4 (a diamond: two paths 1⇒4).
    fn diamond() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_edge(1, "follows", 2);
        g.add_edge(1, "follows", 3);
        g.add_edge(2, "follows", 4);
        g.add_edge(3, "follows", 4);
        g
    }

    #[test]
    fn path_multiplicity_counted() {
        let g = diamond();
        let t = Traversal::start(&g, 1).out_hops(Some("follows"), 2);
        assert_eq!(t.path_count(), 2); // two paths to 4
        assert_eq!(t.distinct_count(), 1);
        assert_eq!(t.vertices(), vec![4]);
    }

    #[test]
    fn in_traversal() {
        let g = diamond();
        let t = Traversal::start(&g, 4).in_(Some("follows"));
        assert_eq!(t.vertices(), vec![2, 3]);
    }

    #[test]
    fn start_with_prop_and_has() {
        let mut g = diamond();
        g.set_vertex_prop(2, "tag", "#web").unwrap();
        g.set_vertex_prop(3, "tag", "#other").unwrap();
        let t = Traversal::start(&g, 1)
            .out(Some("follows"))
            .has("tag", &PropValue::from("#web"));
        assert_eq!(t.vertices(), vec![2]);

        let s = Traversal::start_with_prop(&g, "tag", &PropValue::from("#web"));
        assert_eq!(s.vertices(), vec![2]);
    }

    #[test]
    fn unknown_start_is_empty() {
        let g = diamond();
        let t = Traversal::start(&g, 99);
        assert_eq!(t.path_count(), 0);
    }

    #[test]
    fn label_filtering() {
        let mut g = diamond();
        g.add_edge(1, "knows", 4);
        assert_eq!(
            Traversal::start(&g, 1).out(Some("knows")).vertices(),
            vec![4]
        );
        assert_eq!(Traversal::start(&g, 1).out(None).distinct_count(), 3);
    }

    #[test]
    fn enumerate_paths_returns_full_sequences() {
        let g = diamond();
        let mut paths = enumerate_paths(&g, 1, Some("follows"), 2, 100);
        paths.sort();
        assert_eq!(paths, vec![vec![1, 2, 4], vec![1, 3, 4]]);
        // Path count agrees with the multiplicity traversal.
        let t = Traversal::start(&g, 1).out_hops(Some("follows"), 2);
        assert_eq!(paths.len() as u64, t.path_count());
    }

    #[test]
    fn enumerate_paths_respects_cap() {
        let g = diamond();
        let paths = enumerate_paths(&g, 1, Some("follows"), 2, 1);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn enumerate_paths_zero_length_and_missing_start() {
        let g = diamond();
        assert_eq!(enumerate_paths(&g, 1, None, 0, 10), vec![vec![1]]);
        assert!(enumerate_paths(&g, 99, None, 1, 10).is_empty());
    }

    #[test]
    fn shortest_path_bfs() {
        let g = diamond();
        let p = shortest_path(&g, 1, 4, Some("follows")).unwrap();
        assert_eq!(p.len(), 3); // 1 -> {2|3} -> 4
        assert_eq!(p[0], 1);
        assert_eq!(p[2], 4);
        assert_eq!(shortest_path(&g, 4, 1, Some("follows")), None);
        assert_eq!(shortest_path(&g, 2, 2, None), Some(vec![2]));
    }

    #[test]
    fn triangle_counting() {
        let mut g = PropertyGraph::new();
        g.add_edge(1, "follows", 2);
        g.add_edge(2, "follows", 3);
        g.add_edge(3, "follows", 1);
        // One directed triangle, counted once per rotation (3 rotations).
        assert_eq!(count_triangles(&g, "follows"), 3);
        assert_eq!(count_triangles(&g, "knows"), 0);
    }
}
