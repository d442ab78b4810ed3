//! # twittergen
//!
//! A seeded synthetic generator reproducing the construction of the
//! paper's Twitter dataset (§4.2, SNAP `egonets-Twitter`):
//!
//! * **973 ego networks** (at scale 1.0). Each ego network with ego `a`
//!   contains `b follows c` edges among its members, "which implicitly
//!   means `a knows b` and `a knows c`" — so each ego contributes `knows`
//!   edges from the ego to every member.
//! * **Node features** of the form `@keyword` / `#tag`, stored as the
//!   node KVs `refs` / `hasTag`. Features are drawn Zipf-skewed from a
//!   global vocabulary mixed with an ego-local topic pool, so members of
//!   the same ego share interests (as real ego networks do).
//! * **Edge KVs by intersection**: "for edge e: a follows b, the
//!   {KVs of e} = {KVs of a} ∩ {KVs of b}", for both `follows` and
//!   `knows` edges.
//!
//! At `scale = 1.0` the generated cardinalities land close to Table 6
//! (76,245 nodes / 1,796,085 edges / 1.2M node KVs / 3.3M edge KVs);
//! tests and benches use small scales for speed.

#![warn(missing_docs)]

pub mod degree;
pub mod rng;
pub mod snap;
pub mod zipf;

use std::collections::BTreeSet;

use propertygraph::{PropertyGraph, VertexId};
use rng::Rng;
use zipf::{poisson, Zipf};

/// Generator configuration. The `Default` instance matches the paper's
/// dataset at `scale = 1.0`; shrink `scale` for tests/benches.
#[derive(Debug, Clone)]
pub struct TwitterGenConfig {
    /// RNG seed — same seed, same graph.
    pub seed: u64,
    /// Linear scale factor on egos / nodes / vocabulary.
    pub scale: f64,
    /// Ego networks at scale 1.0 (paper: 973).
    pub base_egos: usize,
    /// Node pool at scale 1.0 (paper: 76,245).
    pub base_nodes: usize,
    /// Mean members per ego (paper: 128,200 knows edges / 973 egos ≈ 132).
    pub mean_members: f64,
    /// Mean follows out-degree within an ego network (paper:
    /// 1,667,885 follows / 128,200 member slots ≈ 13).
    pub mean_follows_per_member: f64,
    /// Mean `refs @keyword` features added per node per ego membership.
    pub mean_refs_per_touch: f64,
    /// Mean `hasTag #tag` features added per node per ego membership.
    pub mean_tags_per_touch: f64,
    /// Distinct `#tag` vocabulary at scale 1.0 (paper: 33,422 tags).
    pub base_tag_vocab: usize,
    /// Distinct `@keyword` vocabulary at scale 1.0.
    pub base_keyword_vocab: usize,
    /// Zipf exponent of the feature popularity distribution.
    pub zipf_s: f64,
}

impl Default for TwitterGenConfig {
    fn default() -> Self {
        TwitterGenConfig {
            seed: 0x77_1773,
            scale: 1.0,
            base_egos: 973,
            base_nodes: 76_245,
            mean_members: 132.0,
            mean_follows_per_member: 13.0,
            mean_refs_per_touch: 6.5,
            mean_tags_per_touch: 1.6,
            base_tag_vocab: 33_422,
            base_keyword_vocab: 28_000,
            zipf_s: 0.9,
        }
    }
}

impl TwitterGenConfig {
    /// A config at the given scale with a fixed default seed.
    pub fn at_scale(scale: f64) -> Self {
        TwitterGenConfig {
            scale,
            ..TwitterGenConfig::default()
        }
    }

    /// A config at the given scale and seed.
    pub fn with_seed(scale: f64, seed: u64) -> Self {
        TwitterGenConfig {
            scale,
            seed,
            ..TwitterGenConfig::default()
        }
    }

    fn egos(&self) -> usize {
        ((self.base_egos as f64 * self.scale).round() as usize).max(1)
    }

    fn nodes(&self) -> usize {
        ((self.base_nodes as f64 * self.scale).round() as usize).max(16)
    }

    fn tag_vocab(&self) -> usize {
        ((self.base_tag_vocab as f64 * self.scale).round() as usize).max(24)
    }

    fn keyword_vocab(&self) -> usize {
        ((self.base_keyword_vocab as f64 * self.scale).round() as usize).max(24)
    }
}

/// Generates the synthetic Twitter ego-network property graph.
///
/// ```
/// use twittergen::TwitterGenConfig;
///
/// let graph = twittergen::generate(&TwitterGenConfig::with_seed(0.002, 7));
/// assert!(graph.edge_count() > graph.vertex_count()); // highly connected (§4.2)
/// let labels = graph.edge_labels();
/// assert_eq!(labels, vec!["follows".to_string(), "knows".to_string()]);
/// ```
pub fn generate(config: &TwitterGenConfig) -> PropertyGraph {
    let mut rng = Rng::seed_from_u64(config.seed);
    let n_nodes = config.nodes();
    let n_egos = config.egos();
    let tag_vocab = config.tag_vocab();
    let kw_vocab = config.keyword_vocab();
    let tag_zipf = Zipf::new(tag_vocab, config.zipf_s);
    let kw_zipf = Zipf::new(kw_vocab, config.zipf_s);
    // Node popularity for member sampling (hubs belong to many egos).
    let node_zipf = Zipf::new(n_nodes, 0.6);

    let mut graph = PropertyGraph::new();
    // Global deduplication of (src, label, dst): the SNAP combined dataset
    // stores each relationship once even if it appears in several egos.
    let mut seen_edges: BTreeSet<(VertexId, u8, VertexId)> = BTreeSet::new();
    const FOLLOWS: u8 = 0;
    const KNOWS: u8 = 1;

    for _ in 0..n_egos {
        // Ego and members, drawn from the shared node pool.
        let ego = node_zipf.sample(&mut rng) as VertexId;
        // Cap ego size at a quarter of the pool so scaled-down graphs keep
        // a realistic density instead of every node joining every ego.
        let cap = (n_nodes / 4).max(8);
        let m = poisson(&mut rng, config.mean_members).max(8).min(cap);
        let mut members: BTreeSet<VertexId> = BTreeSet::new();
        // Half the members cluster around the ego's pool region (locality:
        // shared nodes between "nearby" egos), half are popularity draws.
        while members.len() < m {
            let candidate = if rng.gen_bool(0.5) {
                let offset = rng.gen_range(0..(m * 4).max(1)) as u64;
                (ego + 1 + offset) % n_nodes as u64
            } else {
                node_zipf.sample(&mut rng) as VertexId
            };
            if candidate != ego {
                members.insert(candidate);
            }
        }
        let members: Vec<VertexId> = members.into_iter().collect();

        // Ego-local topic pools: members of one ego share interests.
        let local_tags: Vec<usize> = (0..10).map(|_| tag_zipf.sample(&mut rng)).collect();
        let local_kws: Vec<usize> = (0..28).map(|_| kw_zipf.sample(&mut rng)).collect();

        // Feature assignment per membership "touch" (ego included).
        for &node in members.iter().chain(std::iter::once(&ego)) {
            graph.add_vertex(node);
            let n_refs = poisson(&mut rng, config.mean_refs_per_touch);
            for _ in 0..n_refs {
                let kw = if rng.gen_bool(0.8) && !local_kws.is_empty() {
                    local_kws[rng.gen_range(0..local_kws.len())]
                } else {
                    kw_zipf.sample(&mut rng)
                };
                graph
                    .add_vertex_prop(node, "refs", format!("@kw{kw}"))
                    .expect("vertex exists");
            }
            let n_tags = poisson(&mut rng, config.mean_tags_per_touch);
            for _ in 0..n_tags {
                let tag = if rng.gen_bool(0.8) && !local_tags.is_empty() {
                    local_tags[rng.gen_range(0..local_tags.len())]
                } else {
                    tag_zipf.sample(&mut rng)
                };
                graph
                    .add_vertex_prop(node, "hasTag", format!("#tag{tag}"))
                    .expect("vertex exists");
            }
        }

        // knows edges: ego knows every member.
        for &member in &members {
            if seen_edges.insert((ego, KNOWS, member)) {
                graph.add_edge(ego, "knows", member);
            }
        }

        // follows edges among members, preferential within the ego.
        let member_zipf = Zipf::new(members.len(), 0.8);
        let target_edges = (members.len() as f64 * config.mean_follows_per_member).round() as usize;
        let mut attempts = 0usize;
        let mut added = 0usize;
        while added < target_edges && attempts < target_edges * 3 {
            attempts += 1;
            let b = members[rng.gen_range(0..members.len())];
            let c = members[member_zipf.sample(&mut rng)];
            if b == c {
                continue;
            }
            if seen_edges.insert((b, FOLLOWS, c)) {
                graph.add_edge(b, "follows", c);
                added += 1;
            }
        }
    }

    // Edge KVs: {KVs of e} = {KVs of src} ∩ {KVs of dst} (§4.2).
    apply_edge_kv_intersections(&mut graph);
    graph
}

/// Computes every edge's KV set as the intersection of its endpoints'
/// KV sets — the paper's §4.2 construction, exposed separately so tests
/// and alternative datasets can reuse it.
pub fn apply_edge_kv_intersections(graph: &mut PropertyGraph) {
    let edge_ids: Vec<u64> = graph.edges().map(|(id, _)| id).collect();
    for eid in edge_ids {
        let (src, dst) = {
            let e = graph.edge(eid).expect("edge listed");
            (e.src, e.dst)
        };
        let mut shared: Vec<(String, propertygraph::PropValue)> = Vec::new();
        {
            let sv = graph.vertex(src).expect("src exists");
            let dv = graph.vertex(dst).expect("dst exists");
            for (key, values) in &sv.props {
                if let Some(dvals) = dv.props.get(key) {
                    for v in values {
                        if dvals.contains(v) {
                            shared.push((key.clone(), v.clone()));
                        }
                    }
                }
            }
        }
        for (key, value) in shared {
            graph.add_edge_prop(eid, &key, value).expect("edge exists");
        }
    }
}

/// The IRI vertex prefix used by the paper's Twitter experiments: node
/// IRIs look like `<http://pg/n6160742>` (EQ11), i.e. prefix `n`.
pub const TWITTER_VERTEX_PREFIX: &str = "n";

/// Picks the EQ11 start node: a node with high out-degree (the paper uses
/// a specific user, `n6160742`; we pick the max-out-degree node so the
/// path counts grow the same way).
pub fn eq11_start_node(graph: &PropertyGraph) -> VertexId {
    graph
        .vertex_ids()
        .max_by_key(|&v| graph.out_neighbors(v, Some("follows")).count())
        .expect("graph has vertices")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PropertyGraph {
        generate(&TwitterGenConfig::with_seed(0.01, 42))
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = generate(&TwitterGenConfig::with_seed(0.005, 1));
        let b = generate(&TwitterGenConfig::with_seed(0.005, 1));
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.node_kv_count(), b.node_kv_count());
        assert_eq!(a.edge_kv_count(), b.edge_kv_count());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TwitterGenConfig::with_seed(0.005, 1));
        let b = generate(&TwitterGenConfig::with_seed(0.005, 2));
        assert_ne!(
            (a.edge_count(), a.node_kv_count()),
            (b.edge_count(), b.node_kv_count())
        );
    }

    #[test]
    fn has_both_edge_labels() {
        let g = tiny();
        let labels = g.edge_labels();
        assert!(labels.contains(&"follows".to_string()));
        assert!(labels.contains(&"knows".to_string()));
    }

    #[test]
    fn follows_dominate_knows() {
        // Paper ratio: 1.67M follows vs 128K knows (≈13:1).
        let g = tiny();
        let follows = g.edges().filter(|(_, e)| e.label == "follows").count();
        let knows = g.edges().filter(|(_, e)| e.label == "knows").count();
        assert!(follows > 4 * knows, "follows={follows} knows={knows}");
    }

    #[test]
    fn edge_kvs_are_endpoint_intersections() {
        let g = tiny();
        let mut checked = 0;
        for (_, e) in g.edges() {
            let sv = g.vertex(e.src).unwrap();
            let dv = g.vertex(e.dst).unwrap();
            for (key, values) in &e.props {
                for v in values {
                    assert!(sv.props.get(key).is_some_and(|vs| vs.contains(v)));
                    assert!(dv.props.get(key).is_some_and(|vs| vs.contains(v)));
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "some edge KVs exist");
    }

    #[test]
    fn kv_counts_dominate_edges_in_shape() {
        // Table 6 shape: total KVs exceed the edge count.
        let g = tiny();
        assert!(g.node_kv_count() + g.edge_kv_count() > g.edge_count());
    }

    #[test]
    fn eq11_start_has_out_edges() {
        let g = tiny();
        let start = eq11_start_node(&g);
        assert!(g.out_neighbors(start, Some("follows")).count() > 0);
    }

    #[test]
    fn node_features_use_expected_keys() {
        let g = tiny();
        let keys = g.node_keys();
        assert_eq!(keys, vec!["hasTag", "refs"]);
    }
}
