//! Deterministic query parameters and expected answers, both taken from
//! the generated `PropertyGraph` itself.
//!
//! Every choice is made by a total order (count distance, then name or
//! id) over `BTreeMap`s; nothing depends on `HashMap` iteration order.
//! The earlier harness broke ties by that order and picked a different
//! benchmark tag in every process (see README, finding 1).

use std::collections::BTreeMap;
use std::fmt::Write;

use propertygraph::traversal::Traversal;
use propertygraph::PropertyGraph;
use twittergen::rng::Rng;

/// Size of the `lookup` parameter pools.
pub const POOL: usize = 256;
/// Tags `analytic` cycles through. The optimizer picks a 10-40x slower SP
/// plan for EQ6/EQ7 on about one tag in four; with a single tag the whole
/// workload would hinge on which side of that choice the tag falls.
pub const ANALYTIC_TAGS: usize = 8;
/// The tag `mixed_rw` writes; the generator only emits `#tag<N>`.
pub const WRITE_TAG: &str = "#pgbench";

/// What the benchmark needs to know about the graph to pick parameters
/// and to check answers without asking the engine.
pub struct GraphFacts {
    /// tag -> vertices carrying `hasTag = tag`, ascending.
    pub tag_nodes: BTreeMap<String, Vec<u64>>,
    /// tag -> `follows` edges `(src, dst)` carrying `hasTag = tag`.
    pub tag_edges: BTreeMap<String, Vec<(u64, u64)>>,
    /// vertex -> `follows` out-neighbours, ascending.
    pub out_follows: BTreeMap<u64, Vec<u64>>,
    /// vertex -> `follows` in-degree.
    pub in_follows: BTreeMap<u64, usize>,
    /// vertex -> out-degree over `knows|follows` (EQ10's inner GROUP BY).
    pub out_deg: BTreeMap<u64, usize>,
    /// vertex -> in-degree over `knows|follows` (EQ9's inner GROUP BY).
    pub in_deg: BTreeMap<u64, usize>,
    /// vertex -> number of node key/value pairs.
    pub node_kvs: BTreeMap<u64, usize>,
    /// Number of `follows` edges.
    pub follows_edges: usize,
    /// Largest vertex id.
    pub max_vertex: u64,
    /// Largest edge id.
    pub max_edge: u64,
}

impl GraphFacts {
    pub fn collect(graph: &PropertyGraph) -> GraphFacts {
        let mut f = GraphFacts {
            tag_nodes: BTreeMap::new(),
            tag_edges: BTreeMap::new(),
            out_follows: BTreeMap::new(),
            in_follows: BTreeMap::new(),
            out_deg: BTreeMap::new(),
            in_deg: BTreeMap::new(),
            node_kvs: BTreeMap::new(),
            follows_edges: 0,
            max_vertex: 0,
            max_edge: 0,
        };
        for (id, v) in graph.vertices() {
            f.max_vertex = f.max_vertex.max(id);
            f.node_kvs.insert(id, v.props.values().map(Vec::len).sum());
            for tag in v
                .props
                .get("hasTag")
                .into_iter()
                .flatten()
                .filter_map(|t| t.as_str())
            {
                f.tag_nodes.entry(tag.to_string()).or_default().push(id);
            }
        }
        for (id, e) in graph.edges() {
            f.max_edge = f.max_edge.max(id);
            *f.out_deg.entry(e.src).or_default() += 1;
            *f.in_deg.entry(e.dst).or_default() += 1;
            if e.label != "follows" {
                continue;
            }
            f.follows_edges += 1;
            f.out_follows.entry(e.src).or_default().push(e.dst);
            *f.in_follows.entry(e.dst).or_default() += 1;
            for tag in e
                .props
                .get("hasTag")
                .into_iter()
                .flatten()
                .filter_map(|t| t.as_str())
            {
                f.tag_edges
                    .entry(tag.to_string())
                    .or_default()
                    .push((e.src, e.dst));
            }
        }
        for dsts in f.out_follows.values_mut() {
            dsts.sort_unstable();
        }
        f
    }

    fn nodes(&self, tag: &str) -> &[u64] {
        self.tag_nodes.get(tag).map_or(&[], Vec::as_slice)
    }

    fn edges(&self, tag: &str) -> &[(u64, u64)] {
        self.tag_edges.get(tag).map_or(&[], Vec::as_slice)
    }

    fn out(&self, v: u64) -> &[u64] {
        self.out_follows.get(&v).map_or(&[], Vec::as_slice)
    }

    /// EQ1: nodes with the tag.
    pub fn eq1(&self, tag: &str) -> usize {
        self.nodes(tag).len()
    }

    /// EQ2: `(n, follower)` pairs over nodes with the tag.
    pub fn eq2(&self, tag: &str) -> usize {
        self.nodes(tag)
            .iter()
            .map(|n| self.in_follows.get(n).copied().unwrap_or(0))
            .sum()
    }

    /// EQ3: 3-hop `follows` paths whose four nodes all carry the tag.
    pub fn eq3(&self, tag: &str) -> usize {
        let tagged = self.nodes(tag);
        let has = |v: &u64| tagged.binary_search(v).is_ok();
        let mut paths = 0;
        for n in tagged {
            for n2 in self.out(*n).iter().filter(|v| has(v)) {
                for n3 in self.out(*n2).iter().filter(|v| has(v)) {
                    paths += self.out(*n3).iter().filter(|v| has(v)).count();
                }
            }
        }
        paths
    }

    /// EQ5: `follows` edges with the tag.
    pub fn eq5(&self, tag: &str) -> usize {
        self.edges(tag).len()
    }

    /// EQ7: 3-hop paths whose three `follows` edges all carry the tag.
    pub fn eq7(&self, tag: &str) -> usize {
        let edges = self.edges(tag);
        let mut from: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(s, d) in edges {
            from.entry(s).or_default().push(d);
        }
        let next = |v: u64| from.get(&v).map_or(&[][..], Vec::as_slice);
        edges
            .iter()
            .map(|&(_, n2)| next(n2).iter().map(|&n3| next(n3).len()).sum::<usize>())
            .sum()
    }

    /// Degree histogram `(degree, vertices)` in the order EQ9/EQ10 return it.
    pub fn histogram(degrees: &BTreeMap<u64, usize>) -> Vec<(i64, i64)> {
        let mut hist: BTreeMap<usize, i64> = BTreeMap::new();
        for &d in degrees.values() {
            *hist.entry(d).or_default() += 1;
        }
        hist.into_iter().rev().map(|(d, c)| (d as i64, c)).collect()
    }

    /// EQ12: closed walks `x→y→z→x` of `follows` edges.
    fn triangles(&self) -> u64 {
        let mut total = 0u64;
        for (x, ys) in &self.out_follows {
            for y in ys {
                for z in self.out(*y) {
                    total += self.out(*z).binary_search(x).is_ok() as u64;
                }
            }
        }
        total
    }
}

/// The parameters of one seed.
pub struct Params {
    pub seed: u64,
    pub scale: f64,
    /// `analytic` tags: node counts closest to 0.33 % of the nodes.
    pub analytic_tags: Vec<String>,
    /// EQ11 start node: largest `follows` out-degree, smallest id on ties.
    pub start_node: u64,
    /// `lookup` tag pool, name order then seeded shuffle.
    pub tag_pool: Vec<String>,
    /// `lookup` vertex pool, id order then seeded shuffle.
    pub vertex_pool: Vec<u64>,
    /// For each pool vertex, its smallest `follows` out-neighbour (P3).
    pub p3_targets: Vec<u64>,
    /// EQ11b / EQ11c: 2- and 3-hop `follows` path counts from the start
    /// node, by the Blueprints-style traversal API.
    pub eq11: [u64; 2],
    /// EQ12: `follows` triangles.
    pub triangles: u64,
    /// First vertex id `mixed_rw` may create.
    pub new_vertex_base: u64,
    /// First edge id `mixed_rw` may create.
    pub new_edge_base: u64,
}

impl Params {
    pub fn choose(facts: &GraphFacts, graph: &PropertyGraph, scale: f64, seed: u64) -> Params {
        // The paper's #webseries has 251 of 76,245 nodes; floor 15 so the
        // 3-hop chains have matches on small graphs.
        let target = ((graph.vertex_count() as f64 * 251.0 / 76_245.0) as usize).max(15);
        let mut by_distance: Vec<(usize, &str)> = facts
            .tag_nodes
            .iter()
            .map(|(t, nodes)| (nodes.len().abs_diff(target), t.as_str()))
            .collect();
        by_distance.sort_unstable();
        let mut analytic_tags: Vec<String> = by_distance
            .iter()
            .map(|&(_, t)| t)
            .filter(|t| facts.eq3(t) > 0 && facts.eq7(t) > 0)
            .take(ANALYTIC_TAGS)
            .map(str::to_string)
            .collect();
        if analytic_tags.is_empty() {
            let nearest = by_distance.first().expect("the generated graph has tags");
            analytic_tags.push(nearest.1.to_string());
        }

        let start_node = facts
            .out_follows
            .iter()
            .map(|(&v, dsts)| (std::cmp::Reverse(dsts.len()), v))
            .min()
            .expect("the generated graph has follows edges")
            .1;

        // Tags with 10-40 nodes and at least one tagged edge come first
        // (distance 0); the order stays total when fewer than POOL qualify.
        let mut tags: Vec<(usize, &str)> = facts
            .tag_nodes
            .iter()
            .filter(|(t, _)| facts.eq5(t) > 0)
            .map(|(t, nodes)| {
                let n = nodes.len();
                (10usize.saturating_sub(n) + n.saturating_sub(40), t.as_str())
            })
            .collect();
        tags.sort_unstable();
        tags.truncate(POOL);
        let mut tag_pool: Vec<String> = tags.into_iter().map(|(_, t)| t.to_string()).collect();
        tag_pool.sort_unstable();

        let mut vertex_pool: Vec<u64> = facts.out_follows.keys().copied().collect();
        let mut rng = Rng::seed_from_u64(seed ^ 0x70_6762_656e_6368);
        shuffle(&mut tag_pool, &mut rng);
        shuffle(&mut vertex_pool, &mut rng);
        vertex_pool.truncate(POOL);
        let p3_targets = vertex_pool.iter().map(|v| facts.out(*v)[0]).collect();

        let hops = |k| {
            Traversal::start(graph, start_node)
                .out_hops(Some("follows"), k)
                .path_count()
        };
        Params {
            seed,
            scale,
            analytic_tags,
            start_node,
            eq11: [hops(2), hops(3)],
            triangles: facts.triangles(),
            tag_pool,
            vertex_pool,
            p3_targets,
            new_vertex_base: (facts.max_vertex + 1).next_multiple_of(1_000_000),
            new_edge_base: (facts.max_edge + 1).next_multiple_of(1_000_000),
        }
    }

    /// The text `pgbench params` prints: byte-identical for one seed.
    pub fn render(&self, facts: &GraphFacts, graph: &PropertyGraph) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "seed {} scale {}", self.seed, self.scale);
        let _ = writeln!(
            s,
            "graph vertices {} edges {} follows {} node_kvs {} edge_kvs {}",
            graph.vertex_count(),
            graph.edge_count(),
            facts.follows_edges,
            graph.node_kv_count(),
            graph.edge_kv_count()
        );
        for t in &self.analytic_tags {
            let _ = writeln!(
                s,
                "analytic_tag {t} eq1 {} eq2 {} eq3 {} eq5 {} eq7 {}",
                facts.eq1(t),
                facts.eq2(t),
                facts.eq3(t),
                facts.eq5(t),
                facts.eq7(t)
            );
        }
        let _ = writeln!(
            s,
            "start_node {} eq11b {} eq11c {}",
            self.start_node, self.eq11[0], self.eq11[1]
        );
        let _ = writeln!(s, "eq12 {}", self.triangles);
        let _ = writeln!(
            s,
            "write_tag {WRITE_TAG} new_vertex_base {} new_edge_base {}",
            self.new_vertex_base, self.new_edge_base
        );
        let _ = writeln!(s, "tag_pool {}", self.tag_pool.join(" "));
        let ids: Vec<String> = self.vertex_pool.iter().map(u64::to_string).collect();
        let _ = writeln!(s, "vertex_pool {}", ids.join(" "));
        s
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}
