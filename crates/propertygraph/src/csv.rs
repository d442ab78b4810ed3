//! Plain-text import/export of the relational form (Fig. 3) as two
//! tab-separated tables. This is the interchange format the examples and
//! benches use to persist generated graphs.

use crate::error::PgError;
use crate::graph::PropertyGraph;
use crate::relational::{EdgeRow, KvRow, RelationalGraph};

/// Serializes a graph as two TSV sections separated by a `[ObjKVs]`
/// header line; the first section is the `Edges` table.
pub fn to_tsv(graph: &PropertyGraph) -> String {
    let rel = RelationalGraph::from_graph(graph);
    let mut out = String::from("[Edges]\n");
    for row in &rel.edges {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            row.start_vertex, row.edge, row.label, row.end_vertex
        ));
    }
    out.push_str("[ObjKVs]\n");
    for kv in &rel.kvs {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            if kv.is_edge { "E" } else { "V" },
            kv.obj_id,
            kv.key,
            kv.type_name,
            kv.value
        ));
    }
    out.push_str("[Isolated]\n");
    for v in &rel.isolated_vertices {
        out.push_str(&format!("{v}\n"));
    }
    out
}

/// Parses the format produced by [`to_tsv`].
pub fn from_tsv(text: &str) -> Result<PropertyGraph, PgError> {
    #[derive(PartialEq)]
    enum Section {
        None,
        Edges,
        Kvs,
        Isolated,
    }
    let mut rel = RelationalGraph::default();
    let mut section = Section::None;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        match line {
            "[Edges]" => {
                section = Section::Edges;
                continue;
            }
            "[ObjKVs]" => {
                section = Section::Kvs;
                continue;
            }
            "[Isolated]" => {
                section = Section::Isolated;
                continue;
            }
            _ => {}
        }
        let bad = || PgError::Parse(format!("line {}: {line}", lineno + 1));
        let fields: Vec<&str> = line.split('\t').collect();
        match section {
            Section::Edges => {
                if fields.len() != 4 {
                    return Err(bad());
                }
                rel.edges.push(EdgeRow {
                    start_vertex: fields[0].parse().map_err(|_| bad())?,
                    edge: fields[1].parse().map_err(|_| bad())?,
                    label: fields[2].to_string(),
                    end_vertex: fields[3].parse().map_err(|_| bad())?,
                });
            }
            Section::Kvs => {
                if fields.len() != 5 {
                    return Err(bad());
                }
                rel.kvs.push(KvRow {
                    is_edge: fields[0] == "E",
                    obj_id: fields[1].parse().map_err(|_| bad())?,
                    key: fields[2].to_string(),
                    type_name: fields[3].to_string(),
                    value: fields[4].to_string(),
                });
            }
            Section::Isolated => {
                rel.isolated_vertices
                    .push(fields[0].parse().map_err(|_| bad())?);
            }
            Section::None => return Err(bad()),
        }
    }
    rel.to_graph()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut g = PropertyGraph::sample_figure1();
        g.add_vertex(42);
        let text = to_tsv(&g);
        let g2 = from_tsv(&text).unwrap();
        assert_eq!(g.vertex_count(), g2.vertex_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        assert_eq!(g.edge_kv_count(), g2.edge_kv_count());
        assert_eq!(to_tsv(&g2), text);
    }

    #[test]
    fn bad_section_errors() {
        assert!(from_tsv("1\t2\tx\t3\n").is_err());
    }

    #[test]
    fn bad_field_count_errors() {
        assert!(from_tsv("[Edges]\n1\t2\tx\n").is_err());
    }
}
