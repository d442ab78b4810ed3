//! The property graph model with a Blueprints-style API.
//!
//! "In a property graph, each vertex is identified with a unique identifier
//! (unique within the graph). Each (directed) edge, identified with a
//! unique identifier and labeled with a string, connects a source vertex to
//! a destination vertex. A vertex or an edge may also be associated with a
//! collection of key/value properties." (§1)
//!
//! Adjacency lists give the *index-free adjacency* property-graph
//! implementations advertise: every vertex holds direct references to its
//! incident edges.

use std::collections::BTreeMap;

use crate::error::PgError;
use crate::value::PropValue;

/// Vertex identifier (unique within a graph).
pub type VertexId = u64;
/// Edge identifier (unique within a graph).
pub type EdgeId = u64;

/// A vertex with its key/value properties and adjacency lists.
///
/// Properties are a *collection* of key/value pairs (§1), so a key may
/// carry several values — e.g. a Twitter node with many `hasTag` features.
#[derive(Debug, Clone, Default)]
pub struct Vertex {
    /// Key/value properties (sorted map of key -> values, deterministic).
    pub props: BTreeMap<String, Vec<PropValue>>,
    /// Outgoing edge IDs.
    pub out_edges: Vec<EdgeId>,
    /// Incoming edge IDs.
    pub in_edges: Vec<EdgeId>,
}

/// A directed, labeled edge with key/value properties.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge label (relationship type).
    pub label: String,
    /// Key/value properties (key -> values).
    pub props: BTreeMap<String, Vec<PropValue>>,
}

impl Edge {
    /// First value of a property key, if any.
    pub fn prop_first(&self, key: &str) -> Option<&PropValue> {
        self.props.get(key).and_then(|vs| vs.first())
    }
}

impl Vertex {
    /// First value of a property key, if any.
    pub fn prop_first(&self, key: &str) -> Option<&PropValue> {
        self.props.get(key).and_then(|vs| vs.first())
    }

    /// Whether the vertex carries this exact key/value pair.
    pub fn has_prop(&self, key: &str, value: &PropValue) -> bool {
        self.props.get(key).is_some_and(|vs| vs.contains(value))
    }
}

/// A directed, multi-relational, key/value-annotated graph.
#[derive(Debug, Clone, Default)]
pub struct PropertyGraph {
    vertices: BTreeMap<VertexId, Vertex>,
    edges: BTreeMap<EdgeId, Edge>,
    next_edge_id: EdgeId,
}

impl PropertyGraph {
    /// An empty graph.
    pub fn new() -> Self {
        PropertyGraph::default()
    }

    /// Adds (or returns) the vertex with the given ID. Vertex and edge IDs
    /// are independent namespaces, mirroring the paper's `pg:v{id}` /
    /// `pg:e{id}` IRI split.
    pub fn add_vertex(&mut self, id: VertexId) -> &mut Vertex {
        self.vertices.entry(id).or_default()
    }

    /// Adds a vertex with properties.
    pub fn add_vertex_with_props<K, V>(
        &mut self,
        id: VertexId,
        props: impl IntoIterator<Item = (K, V)>,
    ) -> &mut Vertex
    where
        K: Into<String>,
        V: Into<PropValue>,
    {
        self.add_vertex(id);
        for (k, val) in props {
            self.add_vertex_prop(id, &k.into(), val)
                .expect("vertex exists");
        }
        self.vertices.get_mut(&id).expect("just inserted")
    }

    /// Adds a directed labeled edge with an auto-assigned ID; source and
    /// destination vertices are created if absent (Blueprints semantics).
    pub fn add_edge(&mut self, src: VertexId, label: &str, dst: VertexId) -> EdgeId {
        let id = self.next_edge_id;
        self.add_edge_with_id(id, src, label, dst)
            .expect("auto id is fresh")
    }

    /// Adds an edge with an explicit ID (used by the relational importer).
    pub fn add_edge_with_id(
        &mut self,
        id: EdgeId,
        src: VertexId,
        label: &str,
        dst: VertexId,
    ) -> Result<EdgeId, PgError> {
        if self.edges.contains_key(&id) {
            return Err(PgError::DuplicateEdge(id));
        }
        self.add_vertex(src);
        self.add_vertex(dst);
        self.edges.insert(
            id,
            Edge {
                src,
                dst,
                label: label.to_string(),
                props: BTreeMap::new(),
            },
        );
        self.vertices
            .get_mut(&src)
            .expect("src created")
            .out_edges
            .push(id);
        self.vertices
            .get_mut(&dst)
            .expect("dst created")
            .in_edges
            .push(id);
        if id >= self.next_edge_id {
            self.next_edge_id = id + 1;
        }
        Ok(id)
    }

    /// Adds a vertex key/value pair (duplicate exact pairs are ignored —
    /// KV sets, matching the paper's intersection construction).
    pub fn add_vertex_prop(
        &mut self,
        id: VertexId,
        key: &str,
        value: impl Into<PropValue>,
    ) -> Result<(), PgError> {
        let values = self
            .vertices
            .get_mut(&id)
            .ok_or(PgError::UnknownVertex(id))?
            .props
            .entry(key.to_string())
            .or_default();
        let value = value.into();
        if !values.contains(&value) {
            values.push(value);
        }
        Ok(())
    }

    /// Alias of [`Self::add_vertex_prop`] kept for Blueprints familiarity.
    pub fn set_vertex_prop(
        &mut self,
        id: VertexId,
        key: &str,
        value: impl Into<PropValue>,
    ) -> Result<(), PgError> {
        self.add_vertex_prop(id, key, value)
    }

    /// Adds an edge key/value pair (duplicate exact pairs are ignored).
    pub fn add_edge_prop(
        &mut self,
        id: EdgeId,
        key: &str,
        value: impl Into<PropValue>,
    ) -> Result<(), PgError> {
        let values = self
            .edges
            .get_mut(&id)
            .ok_or(PgError::UnknownEdge(id))?
            .props
            .entry(key.to_string())
            .or_default();
        let value = value.into();
        if !values.contains(&value) {
            values.push(value);
        }
        Ok(())
    }

    /// Alias of [`Self::add_edge_prop`].
    pub fn set_edge_prop(
        &mut self,
        id: EdgeId,
        key: &str,
        value: impl Into<PropValue>,
    ) -> Result<(), PgError> {
        self.add_edge_prop(id, key, value)
    }

    /// Vertex lookup.
    pub fn vertex(&self, id: VertexId) -> Option<&Vertex> {
        self.vertices.get(&id)
    }

    /// Edge lookup.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(&id)
    }

    /// All vertex IDs in ascending order.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices.keys().copied()
    }

    /// All `(id, edge)` pairs in ascending edge-ID order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().map(|(&id, e)| (id, e))
    }

    /// All `(id, vertex)` pairs.
    pub fn vertices(&self) -> impl Iterator<Item = (VertexId, &Vertex)> {
        self.vertices.iter().map(|(&id, v)| (id, v))
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total vertex key/value pairs (a Table 6 column).
    pub fn node_kv_count(&self) -> usize {
        self.vertices
            .values()
            .flat_map(|v| v.props.values())
            .map(Vec::len)
            .sum()
    }

    /// Total edge key/value pairs (a Table 6 column).
    pub fn edge_kv_count(&self) -> usize {
        self.edges
            .values()
            .flat_map(|e| e.props.values())
            .map(Vec::len)
            .sum()
    }

    /// Out-neighbours via edges with the given label (`None` = any label).
    pub fn out_neighbors<'a>(
        &'a self,
        id: VertexId,
        label: Option<&'a str>,
    ) -> impl Iterator<Item = VertexId> + 'a {
        self.vertices
            .get(&id)
            .into_iter()
            .flat_map(|v| v.out_edges.iter())
            .filter_map(move |eid| {
                let e = &self.edges[eid];
                match label {
                    Some(l) if e.label != l => None,
                    _ => Some(e.dst),
                }
            })
    }

    /// In-neighbours via edges with the given label (`None` = any label).
    pub fn in_neighbors<'a>(
        &'a self,
        id: VertexId,
        label: Option<&'a str>,
    ) -> impl Iterator<Item = VertexId> + 'a {
        self.vertices
            .get(&id)
            .into_iter()
            .flat_map(|v| v.in_edges.iter())
            .filter_map(move |eid| {
                let e = &self.edges[eid];
                match label {
                    Some(l) if e.label != l => None,
                    _ => Some(e.src),
                }
            })
    }

    /// Vertices whose property `key` equals `value` — the "qualifying start
    /// nodes identified with certain key/values" entry point of §1.
    pub fn vertices_with_prop<'a>(
        &'a self,
        key: &'a str,
        value: &'a PropValue,
    ) -> impl Iterator<Item = VertexId> + 'a {
        self.vertices
            .iter()
            .filter(move |(_, v)| v.has_prop(key, value))
            .map(|(&id, _)| id)
    }

    /// Distinct edge labels, sorted (the `eL` cardinality of Table 2).
    pub fn edge_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self.edges.values().map(|e| e.label.clone()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Distinct edge-KV keys, sorted (`eK` of Table 2).
    pub fn edge_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .edges
            .values()
            .flat_map(|e| e.props.keys().cloned())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Distinct node-KV keys, sorted (`nK` of Table 2).
    pub fn node_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .vertices
            .values()
            .flat_map(|v| v.props.keys().cloned())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Number of edges with at least one edge-KV (`E1` of Table 2).
    pub fn edges_with_kvs(&self) -> usize {
        self.edges.values().filter(|e| !e.props.is_empty()).count()
    }

    /// Builds the Figure 1 sample graph: Amy follows Mira since 2007 and
    /// knows her (firstMetAt "MIT").
    pub fn sample_figure1() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_vertex_with_props(1, [("name", PropValue::from("Amy")), ("age", 23.into())]);
        g.add_vertex_with_props(2, [("name", PropValue::from("Mira")), ("age", 22.into())]);
        let e3 = g.add_edge_with_id(3, 1, "follows", 2).expect("fresh id");
        g.set_edge_prop(e3, "since", 2007).expect("edge exists");
        let e4 = g.add_edge_with_id(4, 1, "knows", 2).expect("fresh id");
        g.set_edge_prop(e4, "firstMetAt", "MIT")
            .expect("edge exists");
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let g = PropertyGraph::sample_figure1();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_kv_count(), 4);
        assert_eq!(g.edge_kv_count(), 2);
        assert_eq!(g.edge_labels(), vec!["follows", "knows"]);
        assert_eq!(g.edge_keys(), vec!["firstMetAt", "since"]);
        assert_eq!(g.node_keys(), vec!["age", "name"]);
        assert_eq!(g.edges_with_kvs(), 2);
    }

    #[test]
    fn auto_edge_ids_are_fresh() {
        let mut g = PropertyGraph::new();
        g.add_vertex(10);
        let e = g.add_edge(10, "x", 11);
        let e2 = g.add_edge(11, "x", 10);
        assert_ne!(e, e2);
        g.add_edge_with_id(100, 1, "y", 2).unwrap();
        let e3 = g.add_edge(2, "y", 1);
        assert!(e3 > 100, "explicit IDs advance the auto counter");
    }

    #[test]
    fn duplicate_edge_id_rejected() {
        let mut g = PropertyGraph::new();
        g.add_edge_with_id(5, 1, "a", 2).unwrap();
        assert!(matches!(
            g.add_edge_with_id(5, 1, "b", 2),
            Err(PgError::DuplicateEdge(5))
        ));
    }

    #[test]
    fn adjacency() {
        let g = PropertyGraph::sample_figure1();
        let outs: Vec<_> = g.out_neighbors(1, Some("follows")).collect();
        assert_eq!(outs, vec![2]);
        let all_outs: Vec<_> = g.out_neighbors(1, None).collect();
        assert_eq!(all_outs.len(), 2);
        let ins: Vec<_> = g.in_neighbors(2, Some("knows")).collect();
        assert_eq!(ins, vec![1]);
        assert_eq!(g.out_neighbors(2, None).count(), 0);
    }

    #[test]
    fn vertices_with_prop_lookup() {
        let g = PropertyGraph::sample_figure1();
        let hits: Vec<_> = g
            .vertices_with_prop("name", &PropValue::from("Amy"))
            .collect();
        assert_eq!(hits, vec![1]);
        assert_eq!(
            g.vertex(1).unwrap().prop_first("age"),
            Some(&PropValue::from(23))
        );
    }

    #[test]
    fn set_prop_on_missing_vertex_errors() {
        let mut g = PropertyGraph::new();
        assert!(matches!(
            g.set_vertex_prop(99, "k", 1),
            Err(PgError::UnknownVertex(99))
        ));
        assert!(matches!(
            g.set_edge_prop(99, "k", 1),
            Err(PgError::UnknownEdge(99))
        ));
    }

    #[test]
    fn multi_valued_properties() {
        let mut g = PropertyGraph::new();
        g.add_vertex(1);
        g.add_vertex_prop(1, "hasTag", "#a").unwrap();
        g.add_vertex_prop(1, "hasTag", "#b").unwrap();
        g.add_vertex_prop(1, "hasTag", "#a").unwrap(); // duplicate ignored
        assert_eq!(g.node_kv_count(), 2);
        assert!(g
            .vertex(1)
            .unwrap()
            .has_prop("hasTag", &PropValue::from("#b")));
        let hits: Vec<_> = g
            .vertices_with_prop("hasTag", &PropValue::from("#a"))
            .collect();
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn multi_edges_between_same_vertices() {
        let mut g = PropertyGraph::new();
        g.add_edge(1, "follows", 2);
        g.add_edge(1, "follows", 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbors(1, Some("follows")).count(), 2);
    }
}
