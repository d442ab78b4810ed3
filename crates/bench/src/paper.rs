//! Reference values reported by the paper (Tables 6–10, Figures 5–9),
//! used by the `repro` binary to print paper-vs-measured comparisons and
//! by EXPERIMENTS.md.

/// Table 6 — Twitter dataset characteristics.
pub mod table6 {
    /// Nodes.
    pub const NODES: usize = 76_245;
    /// Edges.
    pub const EDGES: usize = 1_796_085;
    /// Node KVs.
    pub const NODE_KVS: usize = 1_218_763;
    /// Edge KVs.
    pub const EDGE_KVS: usize = 3_345_982;
    /// Nodes occurring as subjects.
    pub const SUBJECT_NODES: usize = 70_097;
    /// Ego networks.
    pub const EGOS: usize = 973;
    /// Distinct tags.
    pub const DISTINCT_TAGS: usize = 33_422;
}

/// Table 7 — transformed RDF dataset characteristics (triples).
pub mod table7 {
    /// `follows` edges.
    pub const FOLLOWS: usize = 1_667_885;
    /// `knows` edges.
    pub const KNOWS: usize = 128_200;
    /// `refs` KV triples.
    pub const REFS: usize = 3_771_755;
    /// `hasTag` KV triples.
    pub const HAS_TAG: usize = 792_990;
    /// NG total triples/quads.
    pub const NG_TOTAL: usize = 6_360_830;
    /// SP total triples.
    pub const SP_TOTAL: usize = 9_953_000;
}

/// Table 8 — transformed RDF dataset characteristics (resources).
pub mod table8 {
    /// NG distinct subjects.
    pub const NG_SUBJECTS: usize = 1_019_549;
    /// SP distinct subjects.
    pub const SP_SUBJECTS: usize = 1_866_182;
    /// NG distinct predicates.
    pub const NG_PREDICATES: usize = 4;
    /// SP distinct predicates.
    pub const SP_PREDICATES: usize = 1_796_090;
    /// NG distinct objects.
    pub const NG_OBJECTS: usize = 288_392;
    /// SP distinct objects.
    pub const SP_OBJECTS: usize = 288_394;
    /// NG named graphs.
    pub const NG_NAMED_GRAPHS: usize = 1_796_085;
    /// SP named graphs.
    pub const SP_NAMED_GRAPHS: usize = 0;
}

/// Table 9 — physical storage characteristics (MB in the paper; our
/// report is logical entries + estimated bytes, so only the *ratios*
/// transfer).
pub mod table9 {
    /// NG total MB.
    pub const NG_TOTAL_MB: usize = 1_625;
    /// SP total MB.
    pub const SP_TOTAL_MB: usize = 1_794;
}

/// Table 10 / Figures 5–9 — query result counts at paper scale.
pub mod results {
    /// `(label, count)` for every query of Table 10.
    pub const COUNTS: &[(&str, usize)] = &[
        ("EQ1", 251),
        ("EQ2", 1_249),
        ("EQ3", 11_440),
        ("EQ4", 3_011),
        ("EQ5", 206),
        ("EQ6", 13_012),
        ("EQ7", 11_440),
        ("EQ8", 1_269),
        ("EQ9", 580),
        ("EQ10", 412),
        ("EQ11a", 21),
        ("EQ11b", 900),
        ("EQ11c", 52_540),
        ("EQ11d", 3_573_916),
        ("EQ11e", 257_861_728),
        ("EQ12", 20_211_887),
    ];

    /// Paper count for a label, if recorded.
    pub fn count_for(label: &str) -> Option<usize> {
        // EQ5a/EQ5b share the EQ5 reference count, etc.
        let base = label.trim_end_matches(['a', 'b', 'r']);
        let full = COUNTS.iter().find(|(l, _)| *l == label);
        full.or_else(|| COUNTS.iter().find(|(l, _)| *l == base))
            .map(|(_, c)| *c)
    }
}

/// The qualitative shapes the paper's figures report; the repro harness
/// checks these hold on the measured timings.
pub mod shapes {
    /// Figure 6: "the NG approach performs better for queries involving
    /// multiple edge key/value pair accesses", widest on EQ7.
    pub const NG_BEATS_SP_ON_EDGE_KV: &str =
        "NG <= SP on EQ5-EQ8 (extra joins in SP), widest gap on EQ7";
    /// Figure 5/7: node-centric and aggregate queries show no significant
    /// difference between NG and SP.
    pub const NODE_CENTRIC_PARITY: &str = "NG ~= SP on EQ1-EQ4 and EQ9-EQ10 (same node-KV triples)";
    /// Figures 8/9: NG slightly ahead (smaller topology table).
    pub const NG_SLIGHTLY_AHEAD_ON_SCANS: &str =
        "NG <= SP on EQ11-EQ12 (smaller triples table feeding hash joins)";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_lookup_handles_suffixes() {
        assert_eq!(results::count_for("EQ5a"), Some(206));
        assert_eq!(results::count_for("EQ5b"), Some(206));
        assert_eq!(results::count_for("EQ11e"), Some(257_861_728));
        assert_eq!(results::count_for("EQ99"), None);
    }

    #[test]
    fn totals_are_consistent() {
        // Table 7 internal consistency: NG total = edges + KVs.
        assert_eq!(
            table7::NG_TOTAL,
            table7::FOLLOWS + table7::KNOWS + table7::REFS + table7::HAS_TAG
        );
        // SP adds 2 extra triples per edge.
        assert_eq!(
            table7::SP_TOTAL,
            table7::NG_TOTAL + 2 * (table7::FOLLOWS + table7::KNOWS)
        );
        // Table 6 edge split matches Table 7.
        assert_eq!(table6::EDGES, table7::FOLLOWS + table7::KNOWS);
    }
}
