//! Query-family latency histograms and the slow-query log.
//!
//! The facade classifies every query it executes into a small family
//! (`select`, `aggregate`, `path`, `ask`, `construct`) and records its
//! end-to-end latency into a per-family histogram in the global
//! [`telemetry`] registry — the Prometheus series
//! `pgrdf_query_latency_nanos{family="..."}`. Independently of the
//! telemetry flag, queries slower than a per-store threshold land in a
//! bounded in-memory slow-query log (see
//! [`crate::PgRdfStore::set_slow_query_threshold`]).

use std::sync::{Arc, OnceLock};

use sparql::plan::{CForm, CSelect, Node};
use sparql::CompiledQuery;
use telemetry::{Counter, Histogram};

macro_rules! counter_fn {
    ($fn:ident, $name:expr, $help:expr) => {
        /// Cached global counter (see the metric catalog in DESIGN.md §11).
        pub(crate) fn $fn() -> &'static Counter {
            static C: OnceLock<Arc<Counter>> = OnceLock::new();
            C.get_or_init(|| telemetry::global().counter($name, $help))
        }
    };
}

counter_fn!(
    governor_admitted,
    "pgrdf_governor_admitted_total",
    "Queries admitted by the resource governor"
);
counter_fn!(
    governor_queued,
    "pgrdf_governor_queued_total",
    "Queries that waited in the admission queue"
);
counter_fn!(
    governor_shed,
    "pgrdf_governor_shed_total",
    "Queries shed by the governor (queue full or timeout)"
);

/// Cached global histogram of admission queue waits.
pub(crate) fn governor_queue_wait_nanos() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        telemetry::global().histogram(
            "pgrdf_governor_queue_wait_nanos",
            "Admission queue wait in nanoseconds",
        )
    })
}

/// One retained slow-query record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Process-unique query id — joins this entry against the flight
    /// recorder (`pgrdf:sys/queries`) and trace export.
    pub query_id: u64,
    /// The query text as submitted.
    pub query: String,
    /// The dataset it ran against.
    pub dataset: String,
    /// The query family (`select`, `aggregate`, `path`, `ask`,
    /// `construct`).
    pub family: &'static str,
    /// End-to-end execution wall time in nanoseconds.
    pub wall_nanos: u64,
    /// Result rows returned (0 for ASK/CONSTRUCT, or before an abort).
    pub result_rows: u64,
    /// Terminal state: `ok`, `cancelled`, `deadline`,
    /// `memory_exhausted`, or `shed`. Aborted queries are logged
    /// whenever the log is armed, regardless of their wall time.
    pub outcome: &'static str,
}

/// Classifies a compiled plan into its latency family.
pub fn family(compiled: &CompiledQuery) -> &'static str {
    match &compiled.form {
        CForm::Ask(_) => "ask",
        CForm::Construct(..) => "construct",
        CForm::Select(sel) => {
            if sel.is_grouped() {
                "aggregate"
            } else if select_has_path(sel) {
                "path"
            } else {
                "select"
            }
        }
    }
}

fn select_has_path(sel: &CSelect) -> bool {
    node_has_path(&sel.root)
}

fn node_has_path(node: &Node) -> bool {
    match node {
        Node::Path(_) => true,
        Node::Steps(_) | Node::Values { .. } | Node::Extend(..) => false,
        Node::Join(children) => children.iter().any(node_has_path),
        Node::Filter(_, _, inner) | Node::Minus(inner) | Node::Unsatisfiable(inner) => {
            node_has_path(inner)
        }
        Node::Union(a, b) | Node::Optional(a, b) => node_has_path(a) || node_has_path(b),
        Node::SubSelect(sel) => select_has_path(sel),
    }
}

/// Cached `pgrdf_query_latency_nanos{family=...}` handle. Families are a
/// closed set, so each gets its own `OnceLock`; unknown strings fold into
/// `select`.
pub(crate) fn family_latency(family: &'static str) -> &'static Histogram {
    static SELECT: OnceLock<Arc<Histogram>> = OnceLock::new();
    static AGGREGATE: OnceLock<Arc<Histogram>> = OnceLock::new();
    static PATH: OnceLock<Arc<Histogram>> = OnceLock::new();
    static ASK: OnceLock<Arc<Histogram>> = OnceLock::new();
    static CONSTRUCT: OnceLock<Arc<Histogram>> = OnceLock::new();
    let (cell, label) = match family {
        "aggregate" => (&AGGREGATE, "aggregate"),
        "path" => (&PATH, "path"),
        "ask" => (&ASK, "ask"),
        "construct" => (&CONSTRUCT, "construct"),
        _ => (&SELECT, "select"),
    };
    cell.get_or_init(|| {
        telemetry::global().histogram_with(
            "pgrdf_query_latency_nanos",
            "family",
            label,
            "End-to-end query latency in nanoseconds by query family",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classify(text: &str) -> &'static str {
        let store = quadstore::Store::new();
        store.create_model("m").unwrap();
        let view = store.dataset("m").unwrap();
        let parsed = sparql::parse_query(text).unwrap();
        let compiled = sparql::compile(&view, &parsed).unwrap();
        family(&compiled)
    }

    #[test]
    fn families_cover_the_query_shapes() {
        assert_eq!(classify("SELECT ?s WHERE { ?s <http://p> ?o }"), "select");
        assert_eq!(
            classify("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://p> ?o }"),
            "aggregate"
        );
        assert_eq!(classify("SELECT ?s WHERE { ?s <http://p>+ ?o }"), "path");
        assert_eq!(classify("ASK { ?s <http://p> ?o }"), "ask");
        assert_eq!(
            classify("CONSTRUCT { ?s <http://q> ?o } WHERE { ?s <http://p> ?o }"),
            "construct"
        );
    }
}
