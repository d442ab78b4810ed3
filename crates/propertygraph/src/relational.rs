//! The relational representation of a property graph (Figure 3):
//! an `Edges(StartVertex, Edge, Label, EndVertex)` table and an
//! `ObjKVs(ObjId, Key, Type, Value)` table. The paper's converters
//! "assume property graph data is available in a representative relational
//! schema consisting of Edges and ObjKVs tables" (§2.2).

use crate::error::PgError;
use crate::graph::{EdgeId, PropertyGraph, VertexId};
use crate::value::PropValue;

/// One row of the `Edges` table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeRow {
    /// Source vertex ID.
    pub start_vertex: VertexId,
    /// Edge ID.
    pub edge: EdgeId,
    /// Edge label.
    pub label: String,
    /// Destination vertex ID.
    pub end_vertex: VertexId,
}

/// One row of the `ObjKVs` table. `ObjId` refers to either a vertex or an
/// edge — "No distinction is made between edge and node keys as a key may
/// be common to an edge and a node" (§2.2); the `is_edge` flag records
/// which ID space the row belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct KvRow {
    /// Vertex or edge ID.
    pub obj_id: u64,
    /// True when `obj_id` is an edge ID.
    pub is_edge: bool,
    /// Property key.
    pub key: String,
    /// Relational type tag (`VARCHAR`, `NUMBER`, ...).
    pub type_name: String,
    /// Lexical value.
    pub value: String,
}

/// The Fig. 3 relational form of a property graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelationalGraph {
    /// The `Edges` table.
    pub edges: Vec<EdgeRow>,
    /// The `ObjKVs` table.
    pub kvs: Vec<KvRow>,
    /// Isolated vertices (no KVs, no edges) — these need the special-case
    /// `-v-rdf:type-rdf:Resource` triple (§2.3).
    pub isolated_vertices: Vec<VertexId>,
}

impl RelationalGraph {
    /// Exports a property graph into relational form.
    pub fn from_graph(graph: &PropertyGraph) -> RelationalGraph {
        let mut edges = Vec::with_capacity(graph.edge_count());
        let mut kvs = Vec::new();
        for (id, edge) in graph.edges() {
            edges.push(EdgeRow {
                start_vertex: edge.src,
                edge: id,
                label: edge.label.clone(),
                end_vertex: edge.dst,
            });
            for (key, values) in &edge.props {
                for value in values {
                    kvs.push(KvRow {
                        obj_id: id,
                        is_edge: true,
                        key: key.clone(),
                        type_name: value.type_name().to_string(),
                        value: value.lexical(),
                    });
                }
            }
        }
        let mut isolated = Vec::new();
        for (id, vertex) in graph.vertices() {
            for (key, values) in &vertex.props {
                for value in values {
                    kvs.push(KvRow {
                        obj_id: id,
                        is_edge: false,
                        key: key.clone(),
                        type_name: value.type_name().to_string(),
                        value: value.lexical(),
                    });
                }
            }
            if vertex.props.is_empty() && vertex.out_edges.is_empty() && vertex.in_edges.is_empty()
            {
                isolated.push(id);
            }
        }
        RelationalGraph {
            edges,
            kvs,
            isolated_vertices: isolated,
        }
    }

    /// Rebuilds a property graph from relational form.
    pub fn to_graph(&self) -> Result<PropertyGraph, PgError> {
        let mut graph = PropertyGraph::new();
        for row in &self.edges {
            graph.add_edge_with_id(row.edge, row.start_vertex, &row.label, row.end_vertex)?;
        }
        for kv in &self.kvs {
            let value = PropValue::parse(&kv.type_name, &kv.value)
                .ok_or_else(|| PgError::BadValue(kv.type_name.clone(), kv.value.clone()))?;
            if kv.is_edge {
                graph.add_edge_prop(kv.obj_id, &kv.key, value)?;
            } else {
                graph.add_vertex(kv.obj_id);
                graph.add_vertex_prop(kv.obj_id, &kv.key, value)?;
            }
        }
        for &v in &self.isolated_vertices {
            graph.add_vertex(v);
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_relational_matches_figure_3() {
        let g = PropertyGraph::sample_figure1();
        let rel = RelationalGraph::from_graph(&g);
        assert_eq!(rel.edges.len(), 2);
        assert_eq!(
            rel.edges[0],
            EdgeRow {
                start_vertex: 1,
                edge: 3,
                label: "follows".into(),
                end_vertex: 2
            }
        );
        assert_eq!(
            rel.edges[1],
            EdgeRow {
                start_vertex: 1,
                edge: 4,
                label: "knows".into(),
                end_vertex: 2
            }
        );
        // KVs: 2 edge KVs + 4 node KVs.
        assert_eq!(rel.kvs.len(), 6);
        let since = rel
            .kvs
            .iter()
            .find(|kv| kv.key == "since")
            .expect("since kv present");
        assert_eq!(since.obj_id, 3);
        assert!(since.is_edge);
        assert_eq!(since.type_name, "NUMBER");
        assert_eq!(since.value, "2007");
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = PropertyGraph::sample_figure1();
        let rel = RelationalGraph::from_graph(&g);
        let g2 = rel.to_graph().unwrap();
        assert_eq!(g.vertex_count(), g2.vertex_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        assert_eq!(g.node_kv_count(), g2.node_kv_count());
        assert_eq!(g.edge_kv_count(), g2.edge_kv_count());
        assert_eq!(
            g.vertex(1).unwrap().props.get("name"),
            g2.vertex(1).unwrap().props.get("name")
        );
        assert_eq!(
            g.edge(3).unwrap().props.get("since"),
            g2.edge(3).unwrap().props.get("since")
        );
    }

    #[test]
    fn isolated_vertices_survive_roundtrip() {
        let mut g = PropertyGraph::sample_figure1();
        g.add_vertex(42);
        let rel = RelationalGraph::from_graph(&g);
        assert_eq!(rel.isolated_vertices, vec![42]);
        let g2 = rel.to_graph().unwrap();
        assert!(g2.vertex(42).is_some());
    }

    #[test]
    fn bad_value_errors() {
        let rel = RelationalGraph {
            edges: vec![],
            kvs: vec![KvRow {
                obj_id: 1,
                is_edge: false,
                key: "k".into(),
                type_name: "NUMBER".into(),
                value: "not-a-number".into(),
            }],
            isolated_vertices: vec![],
        };
        assert!(matches!(rel.to_graph(), Err(PgError::BadValue(_, _))));
    }
}
