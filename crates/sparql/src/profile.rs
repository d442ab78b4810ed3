//! Structured per-query profiles: the JSON-able counterpart of
//! `EXPLAIN ANALYZE`.
//!
//! A [`QueryProfile`] bundles everything one profiled execution learned:
//! the plan text, the annotated `EXPLAIN ANALYZE` text, one
//! [`StepProfile`] per numbered plan step (estimate vs. actual rows,
//! loops, inclusive time, chosen access path), compile/cache facts, and
//! total wall time. `PgRdfStore::select_profiled` returns one per query;
//! `pgq --profile` prints it.

use crate::json::escape;

/// Per-step actuals and plan facts for one numbered EXPLAIN step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepProfile {
    /// Step number in EXPLAIN output order (1-based, per SELECT scope).
    pub ordinal: usize,
    /// The triple/path pattern as rendered in the plan.
    pub pattern: String,
    /// The access path: chosen index + scan kind (or `closure`).
    pub index: String,
    /// Join strategy (`NLJ`, `HASH JOIN on ?x`, `INTERSECT on ?x`, `PATH`).
    pub strategy: String,
    /// Planner's estimated scan rows.
    pub est_rows: u64,
    /// Optimizer's estimated output rows after the join at this step.
    pub est_out_rows: u64,
    /// Whether the executor ever pulled from this step.
    pub executed: bool,
    /// Rows the step actually emitted.
    pub actual_rows: u64,
    /// Input rows the step was probed with (1 for the driving step).
    pub loops: u64,
    /// Inclusive nanoseconds spent in this step's `next()` calls.
    pub nanos: u64,
}

impl StepProfile {
    /// Renders this step as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"ordinal\": {}, \"pattern\": \"{}\", \"index\": \"{}\", ",
                "\"strategy\": \"{}\", \"est_rows\": {}, \"est_out_rows\": {}, ",
                "\"executed\": {}, ",
                "\"actual_rows\": {}, \"loops\": {}, \"nanos\": {}}}"
            ),
            self.ordinal,
            escape(&self.pattern),
            escape(&self.index),
            escape(&self.strategy),
            self.est_rows,
            self.est_out_rows,
            self.executed,
            self.actual_rows,
            self.loops,
            self.nanos
        )
    }
}

/// Everything one profiled query execution learned, JSON-able without
/// external dependencies.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Process-unique query id — joins this profile against the flight
    /// recorder (`pgrdf:sys/queries`), the slow-query log, and trace
    /// export.
    pub query_id: u64,
    /// The query text as submitted.
    pub query: String,
    /// The dataset (model or virtual model) it ran against.
    pub dataset: String,
    /// `EXPLAIN` plan text (estimates only).
    pub plan: String,
    /// `EXPLAIN ANALYZE` text (plan annotated with actuals).
    pub analyze: String,
    /// One entry per numbered plan step, in EXPLAIN order.
    pub steps: Vec<StepProfile>,
    /// Result rows returned to the client.
    pub result_rows: u64,
    /// Total execution wall time in nanoseconds (excludes compile).
    pub wall_nanos: u64,
    /// Parse+compile time in nanoseconds (0 on a plan-cache hit).
    pub compile_nanos: u64,
    /// Whether the plan came from the plan cache.
    pub cache_hit: bool,
}

impl QueryProfile {
    /// Renders the whole profile as a JSON object.
    pub fn to_json(&self) -> String {
        let steps: Vec<String> = self.steps.iter().map(|s| s.to_json()).collect();
        format!(
            concat!(
                "{{\"query_id\": {}, \"query\": \"{}\", \"dataset\": \"{}\", ",
                "\"cache_hit\": {}, ",
                "\"compile_nanos\": {}, \"wall_nanos\": {}, \"result_rows\": {}, ",
                "\"plan\": \"{}\", \"analyze\": \"{}\", \"steps\": [{}]}}"
            ),
            self.query_id,
            escape(&self.query),
            escape(&self.dataset),
            self.cache_hit,
            self.compile_nanos,
            self.wall_nanos,
            self.result_rows,
            escape(&self.plan),
            escape(&self.analyze),
            steps.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_json_escapes_and_nests() {
        let profile = QueryProfile {
            query_id: 12,
            query: "SELECT ?v WHERE { ?v \"x\" ?o }".into(),
            dataset: "node_kv".into(),
            plan: "1: line\n".into(),
            analyze: "1: line (actual: rows=2 loops=1 time=3ns)\n".into(),
            steps: vec![StepProfile {
                ordinal: 1,
                pattern: "?v <p> ?o".into(),
                index: "PCSGM range scan".into(),
                strategy: "NLJ".into(),
                est_rows: 5,
                est_out_rows: 5,
                executed: true,
                actual_rows: 2,
                loops: 1,
                nanos: 3,
            }],
            result_rows: 2,
            wall_nanos: 10,
            compile_nanos: 7,
            cache_hit: false,
        };
        let json = profile.to_json();
        assert!(
            json.contains("\\\"x\\\""),
            "query text must be escaped: {json}"
        );
        assert!(json.contains("\"steps\": [{\"ordinal\": 1,"), "{json}");
        assert!(json.contains("\"cache_hit\": false"));
        assert!(json.contains("\\n"), "plan newlines must be escaped");
        // Sanity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
