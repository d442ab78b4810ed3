//! SPARQL-queryable system views: the engine's own telemetry, query
//! history, plan cache, and storage stats as RDF quads.
//!
//! Following the paper's core move — expose one data model through
//! another's machinery — the engine's operational state (the analogue
//! of Oracle's `V$` dynamic performance views) is materialized on
//! demand into four virtual named graphs and queried with the engine's
//! own SPARQL:
//!
//! | graph | contents |
//! |---|---|
//! | `pgrdf:sys/metrics` | every registry counter/gauge/histogram |
//! | `pgrdf:sys/queries` | recent flight-recorder entries |
//! | `pgrdf:sys/plans`   | live plan-cache entries + cache counters |
//! | `pgrdf:sys/store`   | per-index/model storage stats |
//!
//! Predicates live in the `pgrdf:sys#` namespace (`PREFIX sys:
//! <pgrdf:sys#>`), e.g. `sys:execNanos`, `sys:outcome`, `sys:hits`.
//!
//! The graphs are an **overlay**: each query against them materializes
//! a fresh, snapshot-consistent ephemeral store (one registry read, one
//! recorder snapshot, one plan-cache snapshot, one MVCC store snapshot)
//! that is discarded afterwards. Sys quads therefore never enter the
//! WAL, persistence, or the plan-cache dataset signature, and a `GRAPH
//! ?g` wildcard over the real dataset never sees them — they exist only
//! when explicitly named. Sys queries bypass the plan cache, the
//! admission governor, and the flight recorder itself, so querying the
//! engine's state does not perturb it; for the same reason they cannot
//! be profiled (`select_profiled` refuses them with `Unsupported`).

use quadstore::{DatasetView, StorageReport, Store};
use rdf_model::{GraphName, Literal, Quad, Term};
use sparql::{ExecOptions, QueryResults};
use telemetry::{MetricValue, QueryEvent};

use crate::error::CoreError;
use crate::store::PgRdfStore;

/// IRI of the metrics system graph.
pub const SYS_GRAPH_METRICS: &str = "pgrdf:sys/metrics";
/// IRI of the query-history (flight recorder) system graph.
pub const SYS_GRAPH_QUERIES: &str = "pgrdf:sys/queries";
/// IRI of the plan-cache system graph.
pub const SYS_GRAPH_PLANS: &str = "pgrdf:sys/plans";
/// IRI of the storage-stats system graph.
pub const SYS_GRAPH_STORE: &str = "pgrdf:sys/store";
/// Predicate namespace of the sys vocabulary (`PREFIX sys: <pgrdf:sys#>`).
pub const SYS_NS: &str = "pgrdf:sys#";

/// Whether a query references the system graphs. The facade routes such
/// queries to the introspection overlay instead of the real dataset —
/// the heuristic is a substring test for `pgrdf:sys/`, which can only
/// appear in a sys-graph IRI (or a literal deliberately naming one).
pub fn is_sys_query(text: &str) -> bool {
    text.contains("pgrdf:sys/")
}

fn pred(local: &str) -> Term {
    Term::iri(format!("{SYS_NS}{local}"))
}

fn int_t(v: u64) -> Term {
    Term::Literal(Literal::integer(i64::try_from(v).unwrap_or(i64::MAX)))
}

fn bool_t(v: bool) -> Term {
    Term::Literal(Literal::boolean(v))
}

fn push(quads: &mut Vec<Quad>, graph: &'static str, s: &Term, p: &str, o: Term) {
    quads.push(Quad::new_unchecked(
        s.clone(),
        pred(p),
        o,
        GraphName::iri(graph),
    ));
}

/// `pgrdf:sys/metrics`: one subject per registry series.
fn metrics_quads(quads: &mut Vec<Quad>) {
    for sample in telemetry::global().samples() {
        let subject = match &sample.label {
            None => Term::iri(format!("pgrdf:sys/metric/{}", sample.name)),
            Some((k, v)) => Term::iri(format!("pgrdf:sys/metric/{}/{}/{}", sample.name, k, v)),
        };
        let g = SYS_GRAPH_METRICS;
        push(quads, g, &subject, "name", Term::string(&sample.name));
        if let Some((k, v)) = &sample.label {
            push(
                quads,
                g,
                &subject,
                "label",
                Term::string(format!("{k}={v}")),
            );
        }
        push(quads, g, &subject, "help", Term::string(&sample.help));
        match sample.value {
            MetricValue::Counter(v) => {
                push(quads, g, &subject, "kind", Term::string("counter"));
                push(quads, g, &subject, "value", int_t(v));
            }
            MetricValue::Gauge(v) => {
                push(quads, g, &subject, "kind", Term::string("gauge"));
                push(
                    quads,
                    g,
                    &subject,
                    "value",
                    Term::Literal(Literal::integer(v)),
                );
            }
            MetricValue::Histogram {
                count,
                sum,
                p50,
                p95,
                p99,
            } => {
                push(quads, g, &subject, "kind", Term::string("histogram"));
                push(quads, g, &subject, "count", int_t(count));
                push(quads, g, &subject, "sum", int_t(sum));
                push(quads, g, &subject, "p50", int_t(p50));
                push(quads, g, &subject, "p95", int_t(p95));
                push(quads, g, &subject, "p99", int_t(p99));
            }
        }
    }
}

/// `pgrdf:sys/queries`: one subject per retained flight-recorder entry.
fn event_quads(quads: &mut Vec<Quad>, e: &QueryEvent) {
    let s = Term::iri(format!("pgrdf:sys/query/{}", e.query_id));
    let g = SYS_GRAPH_QUERIES;
    push(quads, g, &s, "queryId", int_t(e.query_id));
    push(quads, g, &s, "family", Term::string(e.family));
    push(
        quads,
        g,
        &s,
        "textHash",
        Term::string(format!("{:016x}", e.text_hash)),
    );
    push(
        quads,
        g,
        &s,
        "admissionWaitNanos",
        int_t(e.admission_wait_nanos),
    );
    push(quads, g, &s, "cacheHit", bool_t(e.cache_hit));
    push(quads, g, &s, "compileNanos", int_t(e.compile_nanos));
    push(quads, g, &s, "execNanos", int_t(e.exec_nanos));
    push(quads, g, &s, "rowsOut", int_t(e.rows_out));
    push(quads, g, &s, "peakMemBytes", int_t(e.peak_mem_bytes));
    push(quads, g, &s, "threads", int_t(e.threads as u64));
    push(quads, g, &s, "vectorized", bool_t(e.vectorized));
    push(quads, g, &s, "outcome", Term::string(e.outcome.as_str()));
    push(quads, g, &s, "spanCount", int_t(e.spans.len() as u64));
}

/// `pgrdf:sys/plans`: one subject per live plan-cache entry plus the
/// cache-wide counters under `pgrdf:sys/plancache`.
fn plan_quads(quads: &mut Vec<Quad>, store: &PgRdfStore) {
    let g = SYS_GRAPH_PLANS;
    let cache = store.plan_cache();
    let s = Term::iri("pgrdf:sys/plancache");
    push(quads, g, &s, "hits", int_t(cache.hits()));
    push(quads, g, &s, "misses", int_t(cache.misses()));
    push(quads, g, &s, "invalidations", int_t(cache.invalidations()));
    push(quads, g, &s, "compiles", int_t(cache.compiles()));
    push(quads, g, &s, "evictions", int_t(cache.evictions()));
    push(quads, g, &s, "size", int_t(cache.len() as u64));
    for (i, entry) in cache.entries().iter().enumerate() {
        let s = Term::iri(format!("pgrdf:sys/plan/{i}"));
        push(quads, g, &s, "dataset", Term::string(&entry.dataset));
        push(quads, g, &s, "text", Term::string(&entry.text));
        push(quads, g, &s, "dictLen", int_t(entry.dict_len));
        push(quads, g, &s, "statsVersion", int_t(entry.stats));
        push(
            quads,
            g,
            &s,
            "genericParams",
            int_t(entry.generic_params as u64),
        );
        push(quads, g, &s, "hits", int_t(entry.hits));
        push(quads, g, &s, "ageTicks", int_t(entry.age_ticks));
        push(quads, g, &s, "estimatedRows", int_t(entry.estimated_rows));
        if let Some(actual) = entry.actual_rows {
            push(quads, g, &s, "actualRows", int_t(actual));
        }
    }
}

/// `pgrdf:sys/store`: dataset facts, per-model sizes, and the storage
/// report rows — all read off one pinned MVCC snapshot.
fn store_quads(quads: &mut Vec<Quad>, store: &PgRdfStore) {
    let g = SYS_GRAPH_STORE;
    let snapshot = store.snapshot();
    let model_names: Vec<String> = match store.partition_names() {
        None => vec![store.dataset_name()],
        Some(names) => {
            vec![
                names.topology.clone(),
                names.node_kv.clone(),
                names.edge_kv.clone(),
            ]
        }
    };
    let s = Term::iri("pgrdf:sys/store");
    push(quads, g, &s, "dataset", Term::string(store.dataset_name()));
    push(quads, g, &s, "pgModel", Term::string(store.model().name()));
    push(quads, g, &s, "epoch", int_t(snapshot.epoch()));
    let name_refs: Vec<&str> = model_names.iter().map(|n| n.as_str()).collect();
    let report = StorageReport::compute_at(&snapshot, &name_refs);
    push(
        quads,
        g,
        &s,
        "totalBytes",
        int_t(report.total_bytes() as u64),
    );
    for (i, row) in report.rows.iter().enumerate() {
        let s = Term::iri(format!("pgrdf:sys/store/object/{i}"));
        push(quads, g, &s, "object", Term::string(&row.object));
        push(quads, g, &s, "entries", int_t(row.entries as u64));
        push(quads, g, &s, "bytes", int_t(row.bytes as u64));
    }
    for name in &model_names {
        if let Some(model) = snapshot.model(name) {
            let s = Term::iri(format!("pgrdf:sys/store/model/{name}"));
            push(quads, g, &s, "name", Term::string(name.as_str()));
            push(quads, g, &s, "quads", int_t(model.len() as u64));
            let indexes: Vec<String> = model.index_kinds().iter().map(|k| k.to_string()).collect();
            push(quads, g, &s, "indexes", Term::string(indexes.join(",")));
        }
    }
}

impl PgRdfStore {
    /// Materializes the four system graphs as quads (see the module
    /// docs for the vocabulary). Each call is one snapshot-consistent
    /// read of the registry, the flight recorder, the plan cache, and
    /// the store.
    pub fn sys_quads(&self) -> Vec<Quad> {
        let mut quads = Vec::new();
        metrics_quads(&mut quads);
        for event in telemetry::flight_recorder().snapshot() {
            event_quads(&mut quads, &event);
        }
        plan_quads(&mut quads, self);
        store_quads(&mut quads, self);
        quads
    }

    /// The system graphs as a queryable [`DatasetView`] over an
    /// ephemeral overlay store — independent of the real dataset, so
    /// sys quads never touch the WAL, persistence, or the plan cache.
    pub fn sys_view(&self) -> Result<DatasetView, CoreError> {
        let quads = self.sys_quads();
        let overlay = Store::new();
        overlay.create_model("sys")?;
        overlay.bulk_load("sys", &quads)?;
        Ok(overlay.dataset("sys")?)
    }

    /// Runs a SPARQL query against the system graphs. The main query
    /// entry points ([`PgRdfStore::query`], [`PgRdfStore::select`], …)
    /// already route here for any text naming a `pgrdf:sys/` graph, so
    /// calling this directly is only needed to disambiguate.
    pub fn query_sys(&self, text: &str) -> Result<QueryResults, CoreError> {
        self.query_sys_with(text, ExecOptions::default())
    }

    /// [`PgRdfStore::query_sys`] with explicit execution options. Sys
    /// queries bypass the plan cache (the overlay is rebuilt per call),
    /// the governor, and the flight recorder.
    pub(crate) fn query_sys_with(
        &self,
        text: &str,
        options: ExecOptions,
    ) -> Result<QueryResults, CoreError> {
        let view = self.sys_view()?;
        let parsed = sparql::parse_query(text)?;
        let compiled = sparql::compile(&view, &parsed)?;
        Ok(sparql::execute_compiled_with_options(
            &view, &compiled, options,
        )?)
    }

    /// Renders the recorded span timeline of `query_id` as Chrome
    /// `chrome://tracing` JSON (load via `chrome://tracing` or
    /// ui.perfetto.dev). `None` when the query has aged out of the
    /// flight recorder or was recorded without spans (spans are kept
    /// when profiling, or when the slow-query log is armed and the
    /// query was slow or aborted).
    pub fn trace_json(&self, query_id: u64) -> Option<String> {
        let event = telemetry::flight_recorder().find(query_id)?;
        if event.spans.is_empty() {
            return None;
        }
        Some(telemetry::render_chrome_trace(query_id, &event.spans))
    }
}
