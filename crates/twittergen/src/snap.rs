//! Loader for the SNAP `egonets-Twitter` format — the paper's actual
//! dataset (<http://snap.stanford.edu/data/egonets-Twitter.html>). Given the
//! downloaded `twitter/` directory, this reconstructs the property graph
//! exactly as §4.2 describes:
//!
//! * each ego file set `<ego>.edges` / `<ego>.feat` / `<ego>.egofeat` /
//!   `<ego>.featnames` contributes `b follows c` edges among the ego's
//!   circle and implicit `ego knows b` edges;
//! * features of the form `@keyword` become `refs` node KVs and `#tag`
//!   features become `hasTag` node KVs;
//! * edge KVs are the intersection of the endpoints' KV sets.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use propertygraph::{PropertyGraph, VertexId};

/// Errors raised while reading SNAP ego-network files.
#[derive(Debug)]
pub enum SnapError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A malformed line, with file label and 1-based line number.
    Parse {
        /// Which file (or in-memory label).
        file: String,
        /// Line number.
        line: usize,
        /// Offending content.
        content: String,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "I/O error: {e}"),
            SnapError::Parse { file, line, content } => {
                write!(f, "{file}:{line}: cannot parse {content:?}")
            }
        }
    }
}

impl std::error::Error for SnapError {}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e)
    }
}

/// One ego network's raw text contents.
#[derive(Debug, Clone, Default)]
pub struct EgoFiles {
    /// The ego's node ID.
    pub ego: VertexId,
    /// `<ego>.edges` content: `a b` per line (a follows b).
    pub edges: String,
    /// `<ego>.feat` content: `node f0 f1 ...` per line.
    pub feat: String,
    /// `<ego>.egofeat` content: `f0 f1 ...` (the ego's own vector).
    pub egofeat: String,
    /// `<ego>.featnames` content: `idx name` per line.
    pub featnames: String,
}

/// Parses feature names: index -> (key, value) where `@x` maps to
/// `refs/@x` and `#y` to `hasTag/#y`; other names are skipped (the SNAP
/// files occasionally carry empty or malformed names).
fn parse_featnames(label: &str, text: &str) -> Result<BTreeMap<usize, (String, String)>, SnapError> {
    let mut out = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(2, ' ');
        let idx: usize = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| SnapError::Parse {
                file: label.to_string(),
                line: lineno + 1,
                content: line.to_string(),
            })?;
        let Some(name) = parts.next() else { continue };
        let name = name.trim();
        if let Some(rest) = name.strip_prefix('@') {
            if !rest.is_empty() {
                out.insert(idx, ("refs".to_string(), format!("@{rest}")));
            }
        } else if let Some(rest) = name.strip_prefix('#') {
            if !rest.is_empty() {
                out.insert(idx, ("hasTag".to_string(), format!("#{rest}")));
            }
        }
    }
    Ok(out)
}

fn apply_feature_vector(
    graph: &mut PropertyGraph,
    node: VertexId,
    bits: impl Iterator<Item = bool>,
    names: &BTreeMap<usize, (String, String)>,
) {
    graph.add_vertex(node);
    for (idx, set) in bits.enumerate() {
        if set {
            if let Some((key, value)) = names.get(&idx) {
                graph
                    .add_vertex_prop(node, key, value.clone())
                    .expect("vertex just ensured");
            }
        }
    }
}

/// Loads one ego network into an existing graph. Edge-KV intersections
/// are **not** computed here — call
/// [`crate::apply_edge_kv_intersections`] once after all egos are loaded,
/// exactly as the paper computes them over the combined graph.
pub fn load_ego(graph: &mut PropertyGraph, files: &EgoFiles) -> Result<(), SnapError> {
    let names = parse_featnames(&format!("{}.featnames", files.ego), &files.featnames)?;

    // Ego's own features.
    let ego_bits = files
        .egofeat
        .split_whitespace()
        .map(|b| b == "1")
        .collect::<Vec<_>>();
    apply_feature_vector(graph, files.ego, ego_bits.into_iter(), &names);

    // Member features.
    for (lineno, line) in files.feat.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let node: VertexId = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| SnapError::Parse {
                file: format!("{}.feat", files.ego),
                line: lineno + 1,
                content: line.to_string(),
            })?;
        apply_feature_vector(graph, node, parts.map(|b| b == "1"), &names);
    }

    // follows edges among circle members; dedup (src, dst) pairs that
    // reappear across egos.
    let mut members: std::collections::BTreeSet<VertexId> = std::collections::BTreeSet::new();
    for (lineno, line) in files.edges.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(a), Some(b)) = (
            parts.next().and_then(|p| p.parse::<VertexId>().ok()),
            parts.next().and_then(|p| p.parse::<VertexId>().ok()),
        ) else {
            return Err(SnapError::Parse {
                file: format!("{}.edges", files.ego),
                line: lineno + 1,
                content: line.to_string(),
            });
        };
        members.insert(a);
        members.insert(b);
        if !has_edge(graph, a, "follows", b) {
            graph.add_edge(a, "follows", b);
        }
    }

    // "each ego network with ego a contains edges of type b follows c,
    // which implicitly means a knows b and a knows c" (§4.2).
    for member in members {
        if member != files.ego && !has_edge(graph, files.ego, "knows", member) {
            graph.add_edge(files.ego, "knows", member);
        }
    }
    Ok(())
}

fn has_edge(graph: &PropertyGraph, src: VertexId, label: &str, dst: VertexId) -> bool {
    graph.out_neighbors(src, Some(label)).any(|d| d == dst)
}

/// Loads a whole SNAP ego-network directory (every `<ego>.edges` file and
/// its siblings) and computes the edge-KV intersections. This is the
/// entry point for reproducing the paper against the *real* dataset.
pub fn load_directory(dir: &Path) -> Result<PropertyGraph, SnapError> {
    let mut graph = PropertyGraph::new();
    let mut egos = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("edges") {
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if let Ok(ego) = stem.parse::<VertexId>() {
                    egos.push(ego);
                }
            }
        }
    }
    egos.sort_unstable();
    for ego in egos {
        let read = |ext: &str| -> Result<String, SnapError> {
            let p = dir.join(format!("{ego}.{ext}"));
            if p.exists() {
                Ok(std::fs::read_to_string(p)?)
            } else {
                Ok(String::new())
            }
        };
        let files = EgoFiles {
            ego,
            edges: read("edges")?,
            feat: read("feat")?,
            egofeat: read("egofeat")?,
            featnames: read("featnames")?,
        };
        load_ego(&mut graph, &files)?;
    }
    crate::apply_edge_kv_intersections(&mut graph);
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use propertygraph::PropValue;

    fn sample_ego() -> EgoFiles {
        EgoFiles {
            ego: 100,
            edges: "1 2\n2 3\n1 3\n".to_string(),
            feat: "1 1 0 1\n2 1 0 0\n3 0 1 1\n".to_string(),
            egofeat: "1 1 0\n".to_string(),
            featnames: "0 #webseries\n1 @oracle\n2 #rust\n".to_string(),
        }
    }

    #[test]
    fn loads_topology_and_knows_edges() {
        let mut g = PropertyGraph::new();
        load_ego(&mut g, &sample_ego()).unwrap();
        // 3 follows + 3 knows (ego 100 knows 1, 2, 3).
        assert_eq!(g.edge_count(), 6);
        let knows: Vec<_> = g.out_neighbors(100, Some("knows")).collect();
        assert_eq!(knows, vec![1, 2, 3]);
        assert_eq!(g.out_neighbors(1, Some("follows")).count(), 2);
    }

    #[test]
    fn features_map_to_refs_and_hastag() {
        let mut g = PropertyGraph::new();
        load_ego(&mut g, &sample_ego()).unwrap();
        let v1 = g.vertex(1).unwrap();
        assert!(v1.has_prop("hasTag", &PropValue::from("#webseries")));
        assert!(v1.has_prop("hasTag", &PropValue::from("#rust")));
        assert!(!v1.has_prop("refs", &PropValue::from("@oracle")));
        let v3 = g.vertex(3).unwrap();
        assert!(v3.has_prop("refs", &PropValue::from("@oracle")));
        // Ego's own features come from egofeat.
        let ego = g.vertex(100).unwrap();
        assert!(ego.has_prop("hasTag", &PropValue::from("#webseries")));
        assert!(ego.has_prop("refs", &PropValue::from("@oracle")));
    }

    #[test]
    fn edge_kv_intersections_after_load() {
        let mut g = PropertyGraph::new();
        load_ego(&mut g, &sample_ego()).unwrap();
        crate::apply_edge_kv_intersections(&mut g);
        // Edge 1->3: both have #webseries? v1 {#webseries, #rust},
        // v3 {@oracle, #rust} -> intersection {#rust}.
        let e13 = g
            .edges()
            .find(|(_, e)| e.src == 1 && e.dst == 3)
            .map(|(id, _)| id)
            .unwrap();
        let edge = g.edge(e13).unwrap();
        assert!(edge
            .props
            .get("hasTag")
            .is_some_and(|vs| vs.contains(&PropValue::from("#rust"))));
        assert!(!edge
            .props
            .get("hasTag")
            .is_some_and(|vs| vs.contains(&PropValue::from("#webseries"))));
    }

    #[test]
    fn overlapping_egos_dedup_edges() {
        let mut g = PropertyGraph::new();
        load_ego(&mut g, &sample_ego()).unwrap();
        let mut second = sample_ego();
        second.ego = 200;
        load_ego(&mut g, &second).unwrap();
        // follows edges deduplicate; each ego adds its own knows edges.
        let follows = g.edges().filter(|(_, e)| e.label == "follows").count();
        assert_eq!(follows, 3);
        let knows = g.edges().filter(|(_, e)| e.label == "knows").count();
        assert_eq!(knows, 6);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let mut g = PropertyGraph::new();
        let bad = EgoFiles {
            ego: 1,
            edges: "not numbers\n".to_string(),
            ..Default::default()
        };
        let err = load_ego(&mut g, &bad).unwrap_err().to_string();
        assert!(err.contains("1.edges:1"), "{err}");
    }

    #[test]
    fn directory_loader_roundtrip() {
        let dir = std::env::temp_dir().join(format!("snap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let files = sample_ego();
        std::fs::write(dir.join("100.edges"), &files.edges).unwrap();
        std::fs::write(dir.join("100.feat"), &files.feat).unwrap();
        std::fs::write(dir.join("100.egofeat"), &files.egofeat).unwrap();
        std::fs::write(dir.join("100.featnames"), &files.featnames).unwrap();
        let g = load_directory(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert!(g.edge_kv_count() > 0, "intersections computed");
    }
}
