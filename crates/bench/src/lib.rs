//! # pgrdf-bench
//!
//! Shared fixtures, query routing, and paper reference values for the
//! `repro` binary, which regenerates every table and figure of the
//! paper's evaluation. Performance is measured by `pgbench/`, not here.

#![warn(missing_docs)]

pub mod paper;

use std::time::{Duration, Instant};

use pgrdf::{LoadOptions, PartitionLayout, PgRdfModel, PgRdfStore, PgVocab, QuerySet};
use propertygraph::PropertyGraph;
use sparql::Solutions;
use twittergen::TwitterGenConfig;

/// The experiment queries of Table 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Eq {
    Eq1,
    Eq2,
    Eq3,
    Eq4,
    Eq5,
    Eq6,
    Eq7,
    Eq8,
    Eq9,
    Eq10,
    /// EQ11 with hop count 1..=5.
    Eq11(usize),
    Eq12,
}

impl Eq {
    /// Display label (EQ5–EQ8 get the paper's a/b suffix per model).
    pub fn label(self, model: PgRdfModel) -> String {
        let suffix = |base: &str| match model {
            PgRdfModel::NG => format!("{base}a"),
            PgRdfModel::SP => format!("{base}b"),
            PgRdfModel::RF => format!("{base}r"),
        };
        match self {
            Eq::Eq1 => "EQ1".into(),
            Eq::Eq2 => "EQ2".into(),
            Eq::Eq3 => "EQ3".into(),
            Eq::Eq4 => "EQ4".into(),
            Eq::Eq5 => suffix("EQ5"),
            Eq::Eq6 => suffix("EQ6"),
            Eq::Eq7 => suffix("EQ7"),
            Eq::Eq8 => suffix("EQ8"),
            Eq::Eq9 => "EQ9".into(),
            Eq::Eq10 => "EQ10".into(),
            Eq::Eq11(h) => format!("EQ11{}", (b'a' + (h as u8) - 1) as char),
            Eq::Eq12 => "EQ12".into(),
        }
    }
}

/// A loaded experiment fixture: the generated property graph plus one
/// [`PgRdfStore`] per PG-as-RDF model (partitioned layout, the paper's
/// four indexes).
pub struct Fixture {
    /// The generated property graph.
    pub graph: PropertyGraph,
    /// Scale factor used.
    pub scale: f64,
    /// The benchmark tag (the `#webseries` analogue).
    pub tag: String,
    /// EQ11's start node (high out-degree, like the paper's n6160742).
    pub start_node: u64,
    /// NG-model store.
    pub ng: PgRdfStore,
    /// SP-model store.
    pub sp: PgRdfStore,
    /// RF-model store (§2 ablation; the paper drops RF after §2).
    pub rf: PgRdfStore,
}

impl Fixture {
    /// Builds the fixture at a scale factor (1.0 = paper size).
    pub fn at_scale(scale: f64) -> Fixture {
        Self::with_seed(scale, 0x77_1773)
    }

    /// Builds with an explicit seed.
    pub fn with_seed(scale: f64, seed: u64) -> Fixture {
        let graph = twittergen::generate(&TwitterGenConfig::with_seed(scale, seed));
        let tag = pick_benchmark_tag(&graph);
        let start_node = twittergen::eq11_start_node(&graph);
        let load = |model| {
            PgRdfStore::load_with(
                &graph,
                model,
                LoadOptions {
                    vocab: PgVocab::twitter(),
                    layout: PartitionLayout::Partitioned,
                    ..Default::default()
                },
            )
            .expect("load fixture")
        };
        let ng = load(PgRdfModel::NG);
        let sp = load(PgRdfModel::SP);
        let rf = load(PgRdfModel::RF);
        Fixture {
            graph,
            scale,
            tag,
            start_node,
            ng,
            sp,
            rf,
        }
    }

    /// The store for a model.
    pub fn store(&self, model: PgRdfModel) -> &PgRdfStore {
        match model {
            PgRdfModel::NG => &self.ng,
            PgRdfModel::SP => &self.sp,
            PgRdfModel::RF => &self.rf,
        }
    }

    /// The SPARQL text of an experiment query for a model.
    pub fn query_text(&self, eq: Eq, model: PgRdfModel) -> String {
        let qs: QuerySet = self.store(model).queries();
        match eq {
            Eq::Eq1 => qs.eq1(&self.tag),
            Eq::Eq2 => qs.eq2(&self.tag),
            Eq::Eq3 => qs.eq3(&self.tag),
            Eq::Eq4 => qs.eq4(&self.tag),
            Eq::Eq5 => qs.eq5(&self.tag),
            Eq::Eq6 => qs.eq6(&self.tag),
            Eq::Eq7 => qs.eq7(&self.tag),
            Eq::Eq8 => qs.eq8(&self.tag),
            Eq::Eq9 => qs.eq9(),
            Eq::Eq10 => qs.eq10(),
            Eq::Eq11(hops) => qs.eq11(self.start_node, hops),
            Eq::Eq12 => qs.eq12(),
        }
    }

    /// The Table 4 dataset routing: which partition (or union of
    /// partitions) each query type targets.
    pub fn dataset_for(&self, eq: Eq, model: PgRdfModel) -> String {
        let names = self
            .store(model)
            .partition_names()
            .expect("fixture stores are partitioned");
        match (eq, model) {
            // Node-KV only.
            (Eq::Eq1 | Eq::Eq4, _) => names.node_kv,
            // Node-KV + topology.
            (Eq::Eq2 | Eq::Eq3, _) => names.topology_nodekv,
            // Edge-KV queries: SP's whole target fits the edge-KV
            // partition (§3.2); the extra hop of EQ6 needs topology.
            (Eq::Eq5 | Eq::Eq7 | Eq::Eq8, PgRdfModel::SP) => names.edge_kv,
            (Eq::Eq6, PgRdfModel::SP) => names.topology_edgekv,
            (Eq::Eq5 | Eq::Eq6 | Eq::Eq7 | Eq::Eq8, _) => names.topology_edgekv,
            // Aggregates / traversals / triangles: topology only.
            (Eq::Eq9 | Eq::Eq10 | Eq::Eq11(_) | Eq::Eq12, _) => names.topology,
        }
    }

    /// Runs one experiment query the [`timed`] way, returning
    /// `(elapsed, result_rows)`.
    pub fn run(&self, eq: Eq, model: PgRdfModel) -> (Duration, usize) {
        let store = self.store(model);
        let text = self.query_text(eq, model);
        let dataset = self.dataset_for(eq, model);
        timed(|| {
            store
                .select_in(&dataset, &text)
                .unwrap_or_else(|e| panic!("{} on {model} failed: {e}", eq.label(model)))
        })
    }
}

/// The paper's methodology: one warm-up run, then the timed run. Returns
/// the timed run's wall time and result count (a COUNT query's count,
/// else the number of rows).
pub fn timed(run: impl Fn() -> Solutions) -> (Duration, usize) {
    run();
    let t0 = Instant::now();
    let sols = run();
    let elapsed = t0.elapsed();
    (
        elapsed,
        sols.scalar_i64().map(|n| n as usize).unwrap_or(sols.len()),
    )
}

/// Picks the `#webseries` analogue: among tags that occur on at least one
/// *edge* (so the edge-centric queries EQ5–EQ8 have matches, like the
/// paper's 206 edges), the tag whose node count is closest to 0.33% of
/// the node count (the paper's 251 / 76,245). Ties go to the smaller tag
/// name (pgbench's `params.rs` rule), so every process picks the same tag.
pub fn pick_benchmark_tag(graph: &PropertyGraph) -> String {
    let mut node_counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (_, v) in graph.vertices() {
        if let Some(tags) = v.props.get("hasTag") {
            for t in tags {
                if let Some(s) = t.as_str() {
                    *node_counts.entry(s).or_default() += 1;
                }
            }
        }
    }
    let mut edge_counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (_, e) in graph.edges() {
        if let Some(tags) = e.props.get("hasTag") {
            for t in tags {
                if let Some(s) = t.as_str() {
                    *edge_counts.entry(s).or_default() += 1;
                }
            }
        }
    }
    // Paper proportion (251 / 76,245 nodes), floored at 15 nodes so the
    // 3-hop chain queries (EQ3/EQ7) have matches at small scales.
    let target = (graph.vertex_count() as f64 * 251.0 / 76_245.0).max(15.0) as usize;
    let candidates: Vec<(&str, usize)> = node_counts
        .iter()
        .filter(|(t, _)| edge_counts.get(*t).copied().unwrap_or(0) > 0)
        .map(|(t, c)| (*t, *c))
        .collect();
    let pool = if candidates.is_empty() {
        node_counts.iter().map(|(t, c)| (*t, *c)).collect()
    } else {
        candidates
    };
    pool.into_iter()
        .min_by_key(|&(t, c)| (c.abs_diff(target), t))
        .map(|(t, _)| t.to_string())
        .unwrap_or_else(|| "#tag0".to_string())
}

/// Formats a duration in the paper's style (ms with one decimal).
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Eq::Eq5.label(PgRdfModel::NG), "EQ5a");
        assert_eq!(Eq::Eq5.label(PgRdfModel::SP), "EQ5b");
        assert_eq!(Eq::Eq11(1).label(PgRdfModel::NG), "EQ11a");
        assert_eq!(Eq::Eq11(5).label(PgRdfModel::NG), "EQ11e");
    }

    #[test]
    fn tag_ties_break_by_name() {
        // Target is the 15-node floor. "#a" (14 nodes) and "#b" (16) tie
        // at distance 1; "#0" sits at distance 0 but tags no edge.
        let mut g = PropertyGraph::new();
        for (tag, nodes) in [("#b", 0..16), ("#a", 16..30), ("#0", 30..45)] {
            for id in nodes {
                g.add_vertex_with_props(id, [("hasTag", tag)]);
            }
        }
        for (tag, src) in [("#b", 0), ("#a", 16)] {
            let e = g.add_edge(src, "follows", src + 1);
            g.add_edge_prop(e, "hasTag", tag).expect("edge exists");
        }
        for _ in 0..32 {
            assert_eq!(pick_benchmark_tag(&g), "#a");
        }
    }

    #[test]
    fn tiny_fixture_runs_every_query() {
        let fixture = Fixture::at_scale(0.002);
        for model in [PgRdfModel::NG, PgRdfModel::SP] {
            for eq in [
                Eq::Eq1,
                Eq::Eq2,
                Eq::Eq3,
                Eq::Eq4,
                Eq::Eq5,
                Eq::Eq6,
                Eq::Eq7,
                Eq::Eq8,
                Eq::Eq9,
                Eq::Eq10,
                Eq::Eq11(1),
                Eq::Eq11(2),
                Eq::Eq12,
            ] {
                let (_, _rows) = fixture.run(eq, model);
            }
        }
    }

    #[test]
    fn ng_and_sp_agree_on_results() {
        let fixture = Fixture::at_scale(0.002);
        for eq in [
            Eq::Eq1,
            Eq::Eq2,
            Eq::Eq4,
            Eq::Eq5,
            Eq::Eq6,
            Eq::Eq8,
            Eq::Eq12,
        ] {
            let (_, ng) = fixture.run(eq, PgRdfModel::NG);
            let (_, sp) = fixture.run(eq, PgRdfModel::SP);
            assert_eq!(
                ng,
                sp,
                "{} differs between NG and SP",
                eq.label(PgRdfModel::NG)
            );
        }
    }
}
