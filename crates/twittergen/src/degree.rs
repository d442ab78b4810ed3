//! Degree-distribution reports (Figure 4 of the paper: out-degree and
//! in-degree distribution by count, log-log).

use std::collections::BTreeMap;

use propertygraph::PropertyGraph;

/// A degree histogram: degree -> number of vertices with that degree.
pub type DegreeHistogram = BTreeMap<usize, usize>;

/// Out-degree distribution over all edge labels.
pub fn out_degree_distribution(graph: &PropertyGraph) -> DegreeHistogram {
    let mut hist = DegreeHistogram::new();
    for (_, v) in graph.vertices() {
        *hist.entry(v.out_edges.len()).or_insert(0) += 1;
    }
    hist
}

/// In-degree distribution over all edge labels.
pub fn in_degree_distribution(graph: &PropertyGraph) -> DegreeHistogram {
    let mut hist = DegreeHistogram::new();
    for (_, v) in graph.vertices() {
        *hist.entry(v.in_edges.len()).or_insert(0) += 1;
    }
    hist
}

/// Summary statistics of a histogram, for the repro harness output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeSummary {
    /// Number of distinct degrees (the paper's EQ9/EQ10 result sizes).
    pub distinct_degrees: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
}

/// Summarises a histogram.
pub fn summarize(hist: &DegreeHistogram) -> DegreeSummary {
    let vertices: usize = hist.values().sum();
    let total: usize = hist.iter().map(|(d, c)| d * c).sum();
    DegreeSummary {
        distinct_degrees: hist.len(),
        max_degree: hist.keys().max().copied().unwrap_or(0),
        mean_degree: if vertices == 0 {
            0.0
        } else {
            total as f64 / vertices as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwitterGenConfig;

    #[test]
    fn distributions_cover_all_vertices() {
        let g = crate::generate(&TwitterGenConfig::with_seed(0.01, 7));
        let out = out_degree_distribution(&g);
        let inn = in_degree_distribution(&g);
        assert_eq!(out.values().sum::<usize>(), g.vertex_count());
        assert_eq!(inn.values().sum::<usize>(), g.vertex_count());
        // Directed graph: total in-degree == total out-degree == |E|.
        let out_total: usize = out.iter().map(|(d, c)| d * c).sum();
        let in_total: usize = inn.iter().map(|(d, c)| d * c).sum();
        assert_eq!(out_total, g.edge_count());
        assert_eq!(in_total, g.edge_count());
    }

    #[test]
    fn heavy_tail_exists() {
        let g = crate::generate(&TwitterGenConfig::with_seed(0.01, 7));
        let out = summarize(&out_degree_distribution(&g));
        assert!(out.max_degree as f64 > 3.0 * out.mean_degree);
    }

    #[test]
    fn summary_of_empty() {
        let s = summarize(&DegreeHistogram::new());
        assert_eq!(s.distinct_degrees, 0);
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.mean_degree, 0.0);
    }
}
