//! The high-level facade: load a property graph into the RDF store under
//! one of the three models and query it with SPARQL.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use propertygraph::PropertyGraph;
use quadstore::{DatasetView, IndexKind, ModelStats, Snapshot, StorageReport, Store};
use rdf_model::Quad;
use sparql::{
    ExecObserver, ExecOptions, PlanCache, QueryProfile, QueryResults, Solutions, SparqlError,
    UpdateStats,
};
use telemetry::{QueryEvent, QueryOutcome, TraceSink};

use crate::convert::{convert_with, ConvertOptions, PgRdfModel};
use crate::error::CoreError;
use crate::governor::{AdmissionPermit, Governor, GovernorConfig};
use crate::metrics::SlowQuery;
use crate::partition::{classify, PartitionNames, QuadClass};
use crate::queries::QuerySet;
use crate::roundtrip;
use crate::vocab::PgVocab;

/// Physical layout of the generated RDF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionLayout {
    /// One semantic model holding everything (the §4 experiment setup).
    Monolithic,
    /// Three partition models + a virtual union model (§3.2).
    Partitioned,
}

/// Load-time options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// IRI-generation vocabulary.
    pub vocab: PgVocab,
    /// Physical layout.
    pub layout: PartitionLayout,
    /// Semantic-network indexes per model (§4.4 uses
    /// PCSGM, PSCGM, SPCGM, GPSCM).
    pub indexes: Vec<IndexKind>,
    /// Conversion options (ablations).
    pub convert: ConvertOptions,
    /// Base name of the semantic model(s).
    pub base_name: String,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            vocab: PgVocab::default(),
            layout: PartitionLayout::Monolithic,
            indexes: IndexKind::PAPER_FOUR.to_vec(),
            convert: ConvertOptions::default(),
            base_name: "pg".to_string(),
        }
    }
}

/// A property graph stored as RDF, queryable with SPARQL.
///
/// ```
/// use pgrdf::{PgRdfStore, PgRdfModel};
/// use propertygraph::PropertyGraph;
///
/// let graph = PropertyGraph::sample_figure1();
/// let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
/// // "who follows whom since when?" (§2)
/// let sols = store
///     .select(
///         "PREFIX rel: <http://pg/r/> PREFIX key: <http://pg/k/>\n\
///          SELECT ?xname ?yname ?yr WHERE {\n\
///            GRAPH ?g {?x rel:follows ?y . ?g key:since ?yr }\n\
///            ?x key:name ?xname . ?y key:name ?yname }",
///     )
///     .unwrap();
/// assert_eq!(sols.len(), 1);
/// ```
#[derive(Debug)]
pub struct PgRdfStore {
    store: Store,
    model: PgRdfModel,
    vocab: PgVocab,
    layout: PartitionLayout,
    base: String,
    /// Compiled-plan cache shared by every query entry point, keyed by
    /// query shape. Entries are validated against the dictionary and the
    /// statistics of the snapshot a query runs on, so they survive writes
    /// that leave both alone.
    plan_cache: PlanCache,
    /// Each dataset's plan-cache key (`"{dataset}={index signature}"`)
    /// with the epoch of the generation it was built for: index sets
    /// change only in a new generation.
    dataset_keys: Mutex<HashMap<String, (u64, Arc<str>)>>,
    /// Slow-query trigger in nanoseconds; 0 disables the log entirely
    /// (the default), so the query hot path pays one relaxed load.
    slow_threshold_nanos: AtomicU64,
    /// Bounded ring of the most recent queries over the threshold.
    slow_log: Mutex<VecDeque<SlowQuery>>,
    /// Admission governor; `None` (the default) admits everything.
    governor: Mutex<Option<Arc<Governor>>>,
}

/// Retained slow-query entries before the oldest is dropped.
const SLOW_LOG_CAP: usize = 64;

impl PgRdfStore {
    /// Loads a property graph with default options (monolithic layout,
    /// the paper's four indexes).
    pub fn load(graph: &PropertyGraph, model: PgRdfModel) -> Result<Self, CoreError> {
        Self::load_with(graph, model, LoadOptions::default())
    }

    /// Loads with explicit options.
    pub fn load_with(
        graph: &PropertyGraph,
        model: PgRdfModel,
        options: LoadOptions,
    ) -> Result<Self, CoreError> {
        let quads = convert_with(graph, model, &options.vocab, options.convert);
        Self::load_quads(quads, model, options)
    }

    /// Loads pre-converted quads (used by enrichment flows that add
    /// ontology triples before loading).
    pub fn load_quads(
        quads: Vec<Quad>,
        model: PgRdfModel,
        options: LoadOptions,
    ) -> Result<Self, CoreError> {
        // Table 9: "the GPSCM index is not required in the SP scheme" —
        // RF and SP produce no named graphs, so G-led indexes are dead
        // weight and are dropped (this is what keeps the SP total storage
        // close to NG despite its extra triples).
        let mut indexes = options.indexes.clone();
        if !matches!(model, PgRdfModel::NG) {
            indexes.retain(|k| k.0[0] != quadstore::Component::G);
            if indexes.is_empty() {
                indexes = options.indexes.clone();
            }
        }
        let store = Store::with_default_indexes(&indexes);
        match options.layout {
            PartitionLayout::Monolithic => {
                store.create_model(&options.base_name)?;
                store.bulk_load(&options.base_name, &quads)?;
            }
            PartitionLayout::Partitioned => {
                let names = PartitionNames::new(&options.base_name);
                for class in QuadClass::ALL {
                    store.create_model(names.of(class))?;
                }
                let mut buckets: [Vec<&Quad>; 3] = [Vec::new(), Vec::new(), Vec::new()];
                for quad in &quads {
                    let class = classify(quad, &options.vocab, model);
                    let idx = QuadClass::ALL
                        .iter()
                        .position(|&c| c == class)
                        .expect("class in ALL");
                    buckets[idx].push(quad);
                }
                for (class, bucket) in QuadClass::ALL.iter().zip(buckets) {
                    store.bulk_load(names.of(*class), bucket)?;
                }
                store.create_virtual_model(
                    &names.all,
                    &[
                        names.topology.as_str(),
                        names.node_kv.as_str(),
                        names.edge_kv.as_str(),
                    ],
                )?;
                store.create_virtual_model(
                    &names.topology_nodekv,
                    &[names.topology.as_str(), names.node_kv.as_str()],
                )?;
                store.create_virtual_model(
                    &names.topology_edgekv,
                    &[names.topology.as_str(), names.edge_kv.as_str()],
                )?;
            }
        }
        Ok(PgRdfStore {
            store,
            model,
            vocab: options.vocab,
            layout: options.layout,
            base: options.base_name,
            plan_cache: PlanCache::default(),
            dataset_keys: Mutex::new(HashMap::new()),
            slow_threshold_nanos: AtomicU64::new(0),
            slow_log: Mutex::new(VecDeque::new()),
            governor: Mutex::new(None),
        })
    }

    /// The PG-as-RDF model in use.
    pub fn model(&self) -> PgRdfModel {
        self.model
    }

    /// The IRI vocabulary.
    pub fn vocab(&self) -> &PgVocab {
        &self.vocab
    }

    /// The physical layout.
    pub fn layout(&self) -> PartitionLayout {
        self.layout
    }

    /// The underlying quad store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The dataset name queries run against (the model, or the virtual
    /// union model when partitioned).
    pub fn dataset_name(&self) -> String {
        match self.layout {
            PartitionLayout::Monolithic => self.base.clone(),
            PartitionLayout::Partitioned => PartitionNames::new(&self.base).all,
        }
    }

    /// Partition names (partitioned layout only).
    pub fn partition_names(&self) -> Option<PartitionNames> {
        match self.layout {
            PartitionLayout::Monolithic => None,
            PartitionLayout::Partitioned => Some(PartitionNames::new(&self.base)),
        }
    }

    /// Installs a process-wide admission [`Governor`] on this store:
    /// every query entry point first acquires a permit (waiting in the
    /// governor's FIFO queue at capacity) and sheds with
    /// [`CoreError::Overloaded`] when the queue overflows or times out.
    pub fn set_governor(&self, config: GovernorConfig) -> Arc<Governor> {
        let governor = Governor::new(config);
        *self.governor.lock().expect("governor slot") = Some(Arc::clone(&governor));
        governor
    }

    /// Removes the admission governor; queries run ungated again.
    pub fn clear_governor(&self) {
        *self.governor.lock().expect("governor slot") = None;
    }

    /// The installed governor, if any.
    pub fn governor(&self) -> Option<Arc<Governor>> {
        self.governor.lock().expect("governor slot").clone()
    }

    /// Acquires an admission permit when a governor is installed. The
    /// reservation is the query's memory budget, else the governor's
    /// default.
    fn admit(&self, options: &ExecOptions) -> Result<Option<AdmissionPermit>, CoreError> {
        let governor = self.governor.lock().expect("governor slot").clone();
        match governor {
            None => Ok(None),
            Some(g) => g.admit(options.limits.max_memory.unwrap_or(0)).map(Some),
        }
    }

    /// The one query path behind every entry point: admission, the plan
    /// cache, execution, then [`Self::observe_end`]. `snapshot` pins the
    /// MVCC generation the plan is validated against, its constant IDs
    /// resolve in and its scans read, even with DML racing on other
    /// threads. With `profile` the executor also tallies every plan step
    /// and the span timeline is kept; the engine, thread count and morsels
    /// are the ones the same options get unprofiled.
    fn run(
        &self,
        snapshot: &Snapshot,
        dataset: &str,
        text: &str,
        options: ExecOptions,
        profile: bool,
    ) -> Result<(QueryResults, Option<QueryProfile>), CoreError> {
        // Queries naming a system graph run against the introspection
        // overlay (see `crate::sysview`), which is never cached, governed,
        // recorded or profiled.
        if crate::sysview::is_sys_query(text) {
            if profile {
                let msg = "system-graph queries cannot be profiled";
                return Err(SparqlError::Unsupported(msg.into()).into());
            }
            return Ok((self.query_sys_with(text, options)?, None));
        }
        let threshold = self.slow_threshold_nanos.load(Ordering::Relaxed);
        // Spans are collected only when someone will read them: the
        // profile's caller, or the slow-query log.
        let sink = (profile || threshold > 0).then(|| Arc::new(TraceSink::new()));
        let now = || sink.as_ref().map(|s| s.now_nanos());
        let span = |scope, started: Option<u64>| {
            if let (Some(s), Some(started)) = (&sink, started) {
                s.record(scope, String::new(), 0, started);
            }
        };
        let mut event = QueryEvent {
            query_id: telemetry::next_query_id(),
            family: "unknown",
            text_hash: telemetry::fnv1a64(text.as_bytes()),
            ..QueryEvent::default()
        };
        // Every step that can fail runs in this closure, so a failure's
        // outcome is classified once, below, wherever it happened.
        let result = (|| -> Result<(QueryResults, Option<QueryProfile>), CoreError> {
            // The permit is held until the query ends (RAII: released on
            // every exit path).
            let (admit_t0, admit_start) = (now(), Instant::now());
            let permit = self.admit(&options);
            event.admission_wait_nanos = admit_start.elapsed().as_nanos() as u64;
            span("admit", admit_t0);
            let _permit = permit?;
            let view = snapshot.dataset(dataset)?;
            let key = self.dataset_key(dataset, snapshot, &view);
            let copts = sparql::CompileOptions::default();
            let (compile_t0, compile_start) = (now(), Instant::now());
            let cached = self.plan_cache.lookup(&key, text, copts, &view)?;
            event.cache_hit = !cached.compiled;
            if cached.compiled {
                event.compile_nanos = compile_start.elapsed().as_nanos() as u64;
                span("compile", compile_t0);
            }
            let plan = &cached.plan;
            event.family = crate::metrics::family(plan);
            let observer = Arc::new(ExecObserver::with_trace(sink.clone()));
            let options = options.with_observer(Arc::clone(&observer));
            let exec_start = Instant::now();
            let result = if profile {
                sparql::execute_profiled(&view, plan, options).map(|(r, p)| (r, Some(p)))
            } else {
                sparql::execute_compiled_with_options(&view, plan, options).map(|r| (r, None))
            };
            event.exec_nanos = exec_start.elapsed().as_nanos() as u64;
            event.peak_mem_bytes = observer.peak_mem_bytes();
            event.threads = observer.threads();
            event.vectorized = observer.vectorized();
            let (results, exec_profile) = result?;
            event.rows_out = result_rows(&results);
            cached.note_result(event.rows_out);
            let query_profile = exec_profile.map(|prof| {
                // One clock for EXPLAIN ANALYZE, the profile and the recorder.
                event.exec_nanos = prof.wall_nanos;
                QueryProfile {
                    query_id: event.query_id,
                    query: text.to_string(),
                    dataset: dataset.to_string(),
                    plan: sparql::explain::render(plan),
                    analyze: sparql::explain::render_analyze(plan, &prof),
                    steps: sparql::explain::step_profiles(plan, &prof),
                    result_rows: event.rows_out,
                    wall_nanos: prof.wall_nanos,
                    compile_nanos: event.compile_nanos,
                    cache_hit: event.cache_hit,
                }
            });
            Ok((results, query_profile))
        })();
        // A shed or aborted query is still a terminal outcome the operator
        // will ask about; a parse, compile or store error is not.
        event.outcome = match &result {
            Ok(_) => QueryOutcome::Ok,
            Err(err) => match outcome_of(err) {
                Some(outcome) => outcome,
                None => return result,
            },
        };
        self.observe_end(text, dataset, event, sink.as_deref(), profile, threshold);
        result
    }

    /// The plan-cache key of `dataset` at `snapshot`: the dataset name
    /// *and* its physical index signature, since plans bake index choices
    /// into their access paths. Built once per dataset and generation.
    fn dataset_key(&self, dataset: &str, snapshot: &Snapshot, view: &DatasetView) -> Arc<str> {
        let epoch = snapshot.epoch();
        let mut keys = self.dataset_keys.lock().expect("dataset keys poisoned");
        match keys.get(dataset) {
            Some((at, key)) if *at == epoch => Arc::clone(key),
            _ => {
                let key: Arc<str> = format!("{dataset}={}", view.index_signature()).into();
                keys.insert(dataset.to_string(), (epoch, Arc::clone(&key)));
                key
            }
        }
    }

    /// Terminal bookkeeping for one query: the family-latency histogram
    /// (telemetry on), the flight recorder (recorder on), and the
    /// slow-query log when armed. Aborted queries land in the log
    /// regardless of wall time, so a cancelled or shed query is never
    /// silently absent from the store's own post-mortem surfaces. The
    /// span timeline is kept for a profiled, slow or aborted query.
    fn observe_end(
        &self,
        text: &str,
        dataset: &str,
        mut event: QueryEvent,
        sink: Option<&TraceSink>,
        profiled: bool,
        threshold: u64,
    ) {
        let slow =
            threshold > 0 && (event.exec_nanos >= threshold || event.outcome != QueryOutcome::Ok);
        if let Some(s) = sink.filter(|_| profiled || slow) {
            event.spans = s.take();
        }
        if telemetry::enabled() && event.outcome != QueryOutcome::Shed {
            crate::metrics::family_latency(event.family).record(event.exec_nanos);
        }
        if slow {
            let mut log = self.slow_log.lock().expect("slow log poisoned");
            if log.len() >= SLOW_LOG_CAP {
                log.pop_front();
            }
            log.push_back(SlowQuery {
                query_id: event.query_id,
                query: text.to_string(),
                dataset: dataset.to_string(),
                family: event.family,
                wall_nanos: event.exec_nanos,
                result_rows: event.rows_out,
                outcome: event.outcome.as_str(),
            });
        }
        telemetry::flight_recorder().record(event);
    }

    /// Sets the slow-query threshold: any query whose end-to-end
    /// execution takes at least `nanos` is retained in the slow-query log
    /// (newest 64 entries). `0` disables the log. Works
    /// independently of the global [`telemetry::enabled`] flag.
    pub fn set_slow_query_threshold(&self, nanos: u64) {
        self.slow_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// The retained slow-query entries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log
            .lock()
            .expect("slow log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Runs a SELECT with per-step profiling and returns its solutions
    /// together with the full [`QueryProfile`] (plan text,
    /// `EXPLAIN ANALYZE` text, per-step actuals, compile/cache facts).
    pub fn select_profiled(&self, text: &str) -> Result<(Solutions, QueryProfile), CoreError> {
        self.select_profiled_in(&self.dataset_name(), text, ExecOptions::default())
    }

    /// [`Self::select_profiled`] against an explicit dataset with explicit
    /// execution options. The query runs exactly as [`Self::select_in_with`]
    /// would run it — same engine, same thread count — so the profile
    /// describes the execution that served it. Per-step time is summed
    /// over workers. A system-graph query is refused with
    /// [`SparqlError::Unsupported`].
    pub fn select_profiled_in(
        &self,
        dataset: &str,
        text: &str,
        options: ExecOptions,
    ) -> Result<(Solutions, QueryProfile), CoreError> {
        let (results, profile) = self.run(&self.store.snapshot(), dataset, text, options, true)?;
        Ok((
            results.into_solutions()?,
            profile.expect("a profiled run returns its profile"),
        ))
    }

    /// Pins the store's current MVCC generation. Queries run via
    /// [`Self::select_at`] against the handle all see this one consistent
    /// `(dictionary, indexes, epoch)` view regardless of concurrent DML.
    pub fn snapshot(&self) -> Snapshot {
        self.store.snapshot()
    }

    /// Runs a SELECT against an explicitly pinned snapshot (see
    /// [`Self::snapshot`]). Plan-cache entries are validated against the
    /// *snapshot's* dictionary and statistics, never the live store's.
    pub fn select_at(&self, snapshot: &Snapshot, text: &str) -> Result<Solutions, CoreError> {
        let dataset = self.dataset_name();
        let (results, _) = self.run(snapshot, &dataset, text, ExecOptions::default(), false)?;
        Ok(results.into_solutions()?)
    }

    /// Runs a SPARQL query against the full dataset.
    pub fn query(&self, text: &str) -> Result<QueryResults, CoreError> {
        self.query_with(text, ExecOptions::default())
    }

    /// [`Self::query`] with explicit execution options (limits, threads,
    /// cancellation token).
    pub fn query_with(&self, text: &str, options: ExecOptions) -> Result<QueryResults, CoreError> {
        let dataset = self.dataset_name();
        Ok(self
            .run(&self.store.snapshot(), &dataset, text, options, false)?
            .0)
    }

    /// Runs a SELECT and returns solutions.
    pub fn select(&self, text: &str) -> Result<Solutions, CoreError> {
        self.select_in_with(&self.dataset_name(), text, ExecOptions::default())
    }

    /// Runs a SELECT against one partition (Table 4: "a user can choose
    /// the appropriate RDF dataset for each query").
    pub fn select_in(&self, dataset: &str, text: &str) -> Result<Solutions, CoreError> {
        self.select_in_with(dataset, text, ExecOptions::default())
    }

    /// [`Self::select_in`] with explicit execution options (limits,
    /// threads, a [`sparql::CancelToken`] via
    /// [`ExecOptions::with_cancel`]) — the bench harness uses this to pin
    /// sequential vs parallel execution.
    pub fn select_in_with(
        &self,
        dataset: &str,
        text: &str,
        options: ExecOptions,
    ) -> Result<Solutions, CoreError> {
        let (results, _) = self.run(&self.store.snapshot(), dataset, text, options, false)?;
        Ok(results.into_solutions()?)
    }

    /// The compiled-plan cache (hit/miss/invalidation counters for tests
    /// and benchmarks).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Scalar convenience for COUNT queries.
    pub fn count(&self, text: &str) -> Result<i64, CoreError> {
        let sols = self.select(text)?;
        sols.scalar_i64()
            .ok_or_else(|| CoreError::NotScalar(sols.len()))
    }

    /// Renders the query plan (Table 5 analogue).
    pub fn explain(&self, text: &str) -> Result<String, CoreError> {
        Ok(sparql::explain_query(
            &self.store,
            &self.dataset_name(),
            text,
        )?)
    }

    /// Renders the query tree after the rewrite rules and before
    /// planning, headed by the rules that fired (`pgq --explain-logical`).
    pub fn explain_logical(&self, text: &str) -> Result<String, CoreError> {
        Ok(sparql::explain_logical_query(
            &self.store,
            &self.dataset_name(),
            text,
        )?)
    }

    /// `ANALYZE`: recomputes the optimizer statistics of every member
    /// model from current data. DML refreshes stats automatically once
    /// quad-count drift passes the rebuild threshold; this forces it now.
    /// Moves the stats version *without* bumping the mutation epoch, so
    /// cached plans costed under the old statistics are invalidated on
    /// their next lookup.
    pub fn refresh_stats(&self) -> Result<(), CoreError> {
        let view = self.store.dataset(&self.dataset_name())?;
        for model in view.members() {
            model.refresh_cbo_stats();
        }
        Ok(())
    }

    /// A query builder for this store's model and vocabulary.
    pub fn queries(&self) -> QuerySet {
        QuerySet::new(self.vocab.clone(), self.model)
    }

    /// Executes a SPARQL Update. Only available on the monolithic layout
    /// (partitioned DML would need per-class routing, which the paper
    /// leaves to future work). Takes `&self`: the statement goes through
    /// the store's writer path and publishes atomically, so readers on
    /// other threads are never blocked and never see a torn statement.
    pub fn update(&self, text: &str) -> Result<UpdateStats, CoreError> {
        match self.layout {
            PartitionLayout::Monolithic => Ok(sparql::update(&self.store, &self.base, text)?),
            PartitionLayout::Partitioned => Err(CoreError::UpdateOnPartitioned),
        }
    }

    /// Dataset statistics (Table 8 analogue).
    pub fn stats(&self) -> ModelStats {
        match self.layout {
            PartitionLayout::Monolithic => {
                ModelStats::compute(&self.store.model(&self.base).expect("model exists"))
            }
            PartitionLayout::Partitioned => {
                let names = PartitionNames::new(&self.base);
                let models: Vec<_> = QuadClass::ALL
                    .iter()
                    .map(|&c| self.store.model(names.of(c)).expect("partition exists"))
                    .collect();
                ModelStats::compute_union(&names.all, models.iter().map(|m| m.as_ref()))
            }
        }
    }

    /// Storage report (Table 9 analogue).
    pub fn storage_report(&self) -> StorageReport {
        match self.layout {
            PartitionLayout::Monolithic => StorageReport::compute(&self.store, &[&self.base]),
            PartitionLayout::Partitioned => {
                let names = PartitionNames::new(&self.base);
                StorageReport::compute(
                    &self.store,
                    &[&names.topology, &names.node_kv, &names.edge_kv],
                )
            }
        }
    }

    /// All stored quads, decoded.
    pub fn quads(&self) -> Vec<Quad> {
        let view = self
            .store
            .dataset(&self.dataset_name())
            .expect("dataset exists");
        view.scan_decoded(quadstore::QuadPattern::any()).collect()
    }

    /// Reconstructs the property graph (round trip).
    pub fn to_property_graph(&self) -> Result<PropertyGraph, CoreError> {
        roundtrip::to_property_graph(&self.quads(), self.model, &self.vocab)
    }

    /// Persists the store (quads, indexes, partitions) plus the PG-as-RDF
    /// metadata into a directory.
    pub fn save_to_dir(&self, dir: &std::path::Path) -> Result<(), CoreError> {
        quadstore::persist::save_to_dir(&self.store, dir)?;
        let meta = format!(
            "model\t{}\nlayout\t{}\nbase\t{}\nvocab\t{}\t{}\t{}\t{}\t{}\n",
            self.model.name(),
            match self.layout {
                PartitionLayout::Monolithic => "monolithic",
                PartitionLayout::Partitioned => "partitioned",
            },
            self.base,
            self.vocab.base,
            self.vocab.rel_ns,
            self.vocab.key_ns,
            self.vocab.vertex_prefix,
            self.vocab.edge_prefix,
        );
        // Atomic metadata write: a crash mid-write must leave either the
        // previous pgrdf.meta or the new one, never a torn file next to a
        // committed quadstore snapshot.
        let io = |e: std::io::Error| CoreError::Store(quadstore::StoreError::Io(e.to_string()));
        let tmp = dir.join("pgrdf.meta.tmp");
        std::fs::write(&tmp, meta).map_err(io)?;
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(io)?;
        std::fs::rename(&tmp, dir.join("pgrdf.meta")).map_err(io)?;
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Loads a store previously written by [`Self::save_to_dir`].
    pub fn load_from_dir(dir: &std::path::Path) -> Result<Self, CoreError> {
        let store = quadstore::persist::load_from_dir(dir)?;
        let meta = std::fs::read_to_string(dir.join("pgrdf.meta"))
            .map_err(|e| CoreError::Store(quadstore::StoreError::Io(e.to_string())))?;
        let mut model = None;
        let mut layout = None;
        let mut base = None;
        let mut vocab = None;
        for line in meta.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.first().copied() {
                Some("model") if fields.len() == 2 => {
                    model = match fields[1] {
                        "RF" => Some(PgRdfModel::RF),
                        "NG" => Some(PgRdfModel::NG),
                        "SP" => Some(PgRdfModel::SP),
                        _ => None,
                    };
                }
                Some("layout") if fields.len() == 2 => {
                    layout = match fields[1] {
                        "monolithic" => Some(PartitionLayout::Monolithic),
                        "partitioned" => Some(PartitionLayout::Partitioned),
                        _ => None,
                    };
                }
                Some("base") if fields.len() == 2 => base = Some(fields[1].to_string()),
                Some("vocab") if fields.len() == 6 => {
                    vocab = Some(PgVocab {
                        base: fields[1].to_string(),
                        rel_ns: fields[2].to_string(),
                        key_ns: fields[3].to_string(),
                        vertex_prefix: fields[4].to_string(),
                        edge_prefix: fields[5].to_string(),
                    });
                }
                _ => {}
            }
        }
        let bad_meta = || {
            CoreError::Store(quadstore::StoreError::Manifest(
                "pgrdf.meta incomplete".into(),
            ))
        };
        Ok(PgRdfStore {
            store,
            model: model.ok_or_else(bad_meta)?,
            vocab: vocab.ok_or_else(bad_meta)?,
            layout: layout.ok_or_else(bad_meta)?,
            base: base.ok_or_else(bad_meta)?,
            plan_cache: PlanCache::default(),
            dataset_keys: Mutex::new(HashMap::new()),
            slow_threshold_nanos: AtomicU64::new(0),
            slow_log: Mutex::new(VecDeque::new()),
            governor: Mutex::new(None),
        })
    }
}

/// Result-row count of a finished query, as recorded by the flight
/// recorder (`0` for ASK; quad count for CONSTRUCT).
fn result_rows(results: &QueryResults) -> u64 {
    match results {
        QueryResults::Solutions(s) => s.len() as u64,
        QueryResults::Boolean(_) => 0,
        QueryResults::Graph(g) => g.len() as u64,
    }
}

/// The recorded terminal outcome of a failed query: shed at admission,
/// or aborted in execution. `None` means the error is not an outcome
/// (parse, compile, or store failure) and the query is not recorded.
fn outcome_of(err: &CoreError) -> Option<QueryOutcome> {
    match err {
        CoreError::Overloaded(_) => Some(QueryOutcome::Shed),
        CoreError::Sparql(SparqlError::Cancelled) => Some(QueryOutcome::Cancelled),
        // The row budget and the memory budget both read as
        // `memory_exhausted` — the same kind of budget trip; only the
        // deadline gets its own state.
        CoreError::Sparql(SparqlError::ResourceExhausted(why)) if why.contains("deadline") => {
            Some(QueryOutcome::Deadline)
        }
        CoreError::Sparql(SparqlError::ResourceExhausted(_)) => Some(QueryOutcome::MemoryExhausted),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_query_all_models() {
        let graph = PropertyGraph::sample_figure1();
        for model in PgRdfModel::ALL {
            let store = PgRdfStore::load(&graph, model).unwrap();
            let qs = store.queries();
            // "who follows whom since when" via Q2-style edge-KV access.
            let sols = store.select(&qs.q2_edge_kvs()).unwrap();
            assert_eq!(
                sols.rows.len(),
                1,
                "{model}: one follows edge with one KV, got {sols:?}"
            );
        }
    }

    #[test]
    fn partitioned_layout_matches_monolithic_results() {
        let graph = PropertyGraph::sample_figure1();
        for model in PgRdfModel::ALL {
            let mono = PgRdfStore::load(&graph, model).unwrap();
            let part = PgRdfStore::load_with(
                &graph,
                model,
                LoadOptions {
                    layout: PartitionLayout::Partitioned,
                    ..Default::default()
                },
            )
            .unwrap();
            let qs = mono.queries();
            for q in [qs.q2_edge_kvs(), qs.q3_node_kvs("Amy"), qs.q4_all_edges()] {
                let a = mono.select(&q).unwrap();
                let b = part.select(&q).unwrap();
                assert_eq!(a.len(), b.len(), "{model}: {q}");
            }
        }
    }

    #[test]
    fn partition_targeted_query() {
        let graph = PropertyGraph::sample_figure1();
        let store = PgRdfStore::load_with(
            &graph,
            PgRdfModel::NG,
            LoadOptions {
                layout: PartitionLayout::Partitioned,
                ..Default::default()
            },
        )
        .unwrap();
        let names = store.partition_names().unwrap();
        // Q1 (edge traversal only) can run against the topology partition
        // alone (Table 4).
        let qs = store.queries();
        let sols = store
            .select_in(&names.topology, &qs.q4_all_edges())
            .unwrap();
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn save_is_atomic_and_resaveable() {
        let dir = std::env::temp_dir().join(format!("pgrdf_atomic_meta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let graph = PropertyGraph::sample_figure1();
        let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
        store.save_to_dir(&dir).unwrap();
        // Regression: the metadata write must go through a temp file that
        // does not survive, and saving over an existing store directory
        // must leave it loadable.
        assert!(!dir.join("pgrdf.meta.tmp").exists());
        store.save_to_dir(&dir).unwrap();
        // A stale temp file from a crashed earlier save must not break
        // the next save or load.
        std::fs::write(dir.join("pgrdf.meta.tmp"), "torn garbage").unwrap();
        store.save_to_dir(&dir).unwrap();
        let loaded = PgRdfStore::load_from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded.quads().len(), store.quads().len());
    }

    #[test]
    fn roundtrip_through_store() {
        let graph = PropertyGraph::sample_figure1();
        for model in PgRdfModel::ALL {
            let store = PgRdfStore::load(&graph, model).unwrap();
            let back = store.to_property_graph().unwrap();
            assert_eq!(back.vertex_count(), graph.vertex_count());
            assert_eq!(back.edge_count(), graph.edge_count());
            assert_eq!(back.edge_kv_count(), graph.edge_kv_count());
        }
    }

    #[test]
    fn update_on_monolithic_only() {
        let graph = PropertyGraph::sample_figure1();
        let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
        let stats = store
            .update(
                "PREFIX key: <http://pg/k/>\n\
                 INSERT DATA { <http://pg/v1> key:city \"Boston\" }",
            )
            .unwrap();
        assert_eq!(stats.inserted, 1);
        let part = PgRdfStore::load_with(
            &graph,
            PgRdfModel::NG,
            LoadOptions {
                layout: PartitionLayout::Partitioned,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(
            part.update("INSERT DATA { <http://x> <http://y> <http://z> }"),
            Err(CoreError::UpdateOnPartitioned)
        ));
    }

    #[test]
    fn select_profiled_reports_actuals_and_cache() {
        let graph = PropertyGraph::sample_figure1();
        let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
        let q = store.queries().q2_edge_kvs();
        let (sols, p1) = store.select_profiled(&q).unwrap();
        assert_eq!(sols.len(), 1);
        assert!(!p1.cache_hit, "first run must compile");
        assert!(p1.compile_nanos > 0);
        assert_eq!(p1.result_rows, 1);
        assert!(!p1.steps.is_empty());
        assert!(p1.analyze.contains("(actual:"), "{}", p1.analyze);
        assert!(p1.steps.iter().any(|s| s.executed && s.loops >= 1));
        // Second run replays the cached plan: no compile time billed.
        let (_, p2) = store.select_profiled(&q).unwrap();
        assert!(p2.cache_hit);
        assert_eq!(p2.compile_nanos, 0);
    }

    #[test]
    fn slow_query_log_captures_over_threshold() {
        let graph = PropertyGraph::sample_figure1();
        let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
        let q = store.queries().q2_edge_kvs();
        store.select(&q).unwrap();
        assert!(store.slow_queries().is_empty(), "log off by default");
        store.set_slow_query_threshold(1);
        store.select(&q).unwrap();
        let log = store.slow_queries();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].family, "select");
        assert_eq!(log[0].query, q);
        assert!(log[0].wall_nanos >= 1);
        store.set_slow_query_threshold(0);
        store.select(&q).unwrap();
        assert_eq!(store.slow_queries().len(), 1, "disabled log must not grow");
    }

    #[test]
    fn count_helper() {
        let graph = PropertyGraph::sample_figure1();
        let store = PgRdfStore::load(&graph, PgRdfModel::NG).unwrap();
        let n = store
            .count(
                "PREFIX rel: <http://pg/r/>\n\
                 SELECT (COUNT(*) AS ?c) WHERE { ?x rel:follows ?y }",
            )
            .unwrap();
        assert_eq!(n, 1);
    }
}
