//! The streaming query executor.
//!
//! Solutions are rows of `Option<u64>` term IDs indexed by binding slot.
//! IDs with [`COMPUTED_BIT`] set refer to query-computed terms (aggregate
//! results, `CONCAT` outputs, ...) held in a query-local side table; a
//! computed term that also exists in the store dictionary is given its
//! store ID instead, so joins and grouping treat value-equal terms as
//! equal regardless of where they came from.
//!
//! One result tail serves every form ([`exec_select`]). Its only blocking
//! stage, ORDER BY, keeps the best `offset + limit` rows in bounded heaps.

use std::cmp;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use quadstore::{DatasetView, GraphConstraint, Morsel, QuadPattern};
use rdf_model::{Term, TermId};

use crate::error::SparqlError;
use crate::expr::{CExpr, ExprEnv, SortKey, TermKind, Value};
use crate::path;
use crate::plan::{
    CAggregate, CForm, CGraph, CPos, CSelect, CTriple, CompiledQuery, Node, Step, Strategy,
    VarTable,
};

/// High bit marks query-computed term IDs.
pub const COMPUTED_BIT: u64 = 1 << 63;

/// A solution row: one optional term ID per binding slot.
pub type Row = Vec<Option<u64>>;

type BoxIter<'it> = Box<dyn Iterator<Item = Row> + 'it>;

/// Resource bounds on one query execution. Operators charge the context
/// for every intermediate row they produce, so a pathological query (a
/// cross product, a runaway property path) aborts with
/// [`SparqlError::ResourceExhausted`] instead of consuming unbounded
/// memory or wall-clock time.
///
/// Both budgets follow the work actually done, not the size of the
/// relations a query names. Rows are produced on demand, so a result tail
/// that stops pulling (`LIMIT k` without ORDER BY, DISTINCT or grouping;
/// `DISTINCT ... LIMIT k` at its k-th fresh key; `ASK` at its first
/// solution) ends the scans beneath it: the row budget is charged for the
/// rows scanned up to that point — whole morsels of the driving scan, so
/// up to `morsel_size` rows past the last one used at `threads == 1` and
/// one round of morsels past it above — and the memory budget for the
/// state retained at any one time (the collected result, the DISTINCT
/// set, an ORDER BY's kept rows, hash builds, one round of morsel output).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecLimits {
    /// Abort after producing this many intermediate rows across all
    /// operators (`None` = unbounded).
    pub max_rows: Option<u64>,
    /// Abort once this instant passes (`None` = no deadline). Checked
    /// every ~1024 row charges to keep the clock off the hot path.
    pub deadline: Option<Instant>,
    /// Abort once the estimated bytes of retained intermediate state
    /// (hash-join build sides, group-by partials, sort/DISTINCT buffers,
    /// path-search frontiers, morsel output buffers) exceed this budget
    /// (`None` = unbounded).
    pub max_memory: Option<u64>,
}

impl ExecLimits {
    /// A limit on intermediate rows only.
    pub fn rows(max_rows: u64) -> ExecLimits {
        ExecLimits { max_rows: Some(max_rows), ..ExecLimits::default() }
    }

    /// A deadline `timeout` from now.
    pub fn timeout(timeout: std::time::Duration) -> ExecLimits {
        ExecLimits { deadline: Some(Instant::now() + timeout), ..ExecLimits::default() }
    }

    /// A memory budget only.
    pub fn memory(bytes: u64) -> ExecLimits {
        ExecLimits { max_memory: Some(bytes), ..ExecLimits::default() }
    }

    /// Sets the memory budget on existing limits.
    pub fn with_max_memory(mut self, bytes: u64) -> Self {
        self.max_memory = Some(bytes);
        self
    }
}

/// How often (in row charges or phase ticks) the deadline and the cancel
/// token are checked.
const DEADLINE_STRIDE: u64 = 1024;

/// A shareable handle that cooperatively cancels one query execution.
/// Cloning is cheap (an `Arc`); every clone observes the same flag. The
/// executor polls the token at the same strided periodic check as the
/// deadline — on the row-charge path and in the rowless phases (hash
/// builds, aggregation, path expansion) — so cancellation lands mid-morsel
/// in bounded time and surfaces as [`SparqlError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent and safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A per-query observation channel the flight recorder reads after
/// execution: peak memory charged, the resolved worker-thread count,
/// whether a vectorized pipeline ran, and (optionally) a span sink
/// collecting the query's timeline.
/// Attach one via [`ExecOptions::with_observer`]; all fields are
/// written with relaxed atomics so observing a parallel execution
/// costs nothing measurable.
#[derive(Debug, Default)]
pub struct ExecObserver {
    peak_mem_bytes: AtomicU64,
    threads: AtomicU64,
    vectorized: AtomicBool,
    /// Span sink for the query's trace timeline (`None` = spans are
    /// not collected; memory/thread observation still happens).
    pub trace: Option<Arc<telemetry::TraceSink>>,
}

impl ExecObserver {
    /// An observer without a span sink.
    pub fn new() -> ExecObserver {
        ExecObserver::default()
    }

    /// An observer that also collects span records into `trace`, if any.
    pub fn with_trace(trace: Option<Arc<telemetry::TraceSink>>) -> ExecObserver {
        ExecObserver { trace, ..ExecObserver::default() }
    }

    /// Peak estimated bytes of retained intermediate state seen by
    /// [`EvalCtx::charge_mem`] (tracked even without a memory budget).
    pub fn peak_mem_bytes(&self) -> u64 {
        self.peak_mem_bytes.load(Ordering::Relaxed)
    }

    /// Worker threads the executor resolved to (0 until execution
    /// starts).
    pub fn threads(&self) -> u32 {
        self.threads.load(Ordering::Relaxed) as u32
    }

    /// Whether any part of the query ran on the vectorized columnar
    /// pipeline (`false` until one does: plans it cannot express run on
    /// the row evaluator).
    pub fn vectorized(&self) -> bool {
        self.vectorized.load(Ordering::Relaxed)
    }

    #[inline]
    fn note_mem(&self, total: u64) {
        self.peak_mem_bytes.fetch_max(total, Ordering::Relaxed);
    }
}

/// Default number of driving-scan rows per morsel. The vectorized
/// pipeline runs each morsel as one column batch.
pub const DEFAULT_MORSEL_SIZE: usize = 2048;

pub(crate) mod batch;
mod join_table;

use join_table::{row_hash, BuildTable, Chains};

/// Execution tuning knobs: resource limits, worker threads, morsel size.
///
/// `threads == 0` means "use [`std::thread::available_parallelism`]";
/// `threads == 1` runs every morsel on the calling thread. None of these
/// selects an engine: that follows from the plan's shape alone.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Resource limits (row budget, memory budget, deadline).
    pub limits: ExecLimits,
    /// Worker thread count (0 = auto-detect, 1 = sequential).
    pub threads: usize,
    /// Driving-scan rows per morsel (clamped to at least 1).
    pub morsel_size: usize,
    /// Cooperative cancellation token (`None` = not cancellable).
    pub cancel: Option<CancelToken>,
    /// Optional per-query observer (peak memory, resolved threads,
    /// span timeline) read by the flight recorder after execution.
    pub observer: Option<Arc<ExecObserver>>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            limits: ExecLimits::default(),
            threads: 0,
            morsel_size: DEFAULT_MORSEL_SIZE,
            cancel: None,
            observer: None,
        }
    }
}

impl ExecOptions {
    /// Options with an explicit worker thread count.
    pub fn threads(n: usize) -> ExecOptions {
        ExecOptions { threads: n, ..ExecOptions::default() }
    }

    /// Sets resource limits.
    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the morsel size (clamped to at least 1).
    pub fn with_morsel_size(mut self, size: usize) -> Self {
        self.morsel_size = size.max(1);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a per-query observer.
    pub fn with_observer(mut self, observer: Arc<ExecObserver>) -> Self {
        self.observer = Some(observer);
        self
    }
}

/// Read-only state shared across worker threads within one execution,
/// keyed by the address of the plan node that owns it. Each entry is
/// computed at most once (`OnceLock`) no matter how many workers race.
#[derive(Default)]
struct SharedState {
    builds: Mutex<HashMap<usize, Arc<OnceLock<BuildTable>>>>,
    rows: Mutex<HashMap<usize, Arc<OnceLock<Vec<Row>>>>>,
}

/// Per-step actuals recorded during a profiled execution: output rows,
/// input rows (loops), and inclusive time spent pulling this operator
/// (Postgres-style: includes the operators beneath it in the pipeline).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepTally {
    /// Rows this step emitted.
    pub rows: u64,
    /// Input rows the step was probed with (1 for the driving step).
    pub loops: u64,
    /// Inclusive nanoseconds spent inside this step's `next()` calls.
    pub nanos: u64,
}

/// Accumulates [`StepTally`]s during execution, keyed by the address of
/// the plan's [`Step`]/`PathStep` — the same address-keying scheme the
/// shared hash-build cells use, valid because the profile is read back
/// while the same [`CompiledQuery`] allocation is alive.
#[derive(Debug, Default)]
pub struct ProfileState {
    tallies: Mutex<HashMap<usize, StepTally>>,
}

impl ProfileState {
    fn add(&self, key: usize, rows: u64, loops: u64, nanos: u64) {
        let mut tallies = self.tallies.lock().expect("profile state poisoned");
        let t = tallies.entry(key).or_default();
        t.rows += rows;
        t.loops += loops;
        t.nanos += nanos;
    }
}

/// The result of a profiled execution: per-step actuals plus total wall
/// time. Look up a step's tally by the same plan node reference that was
/// executed (`EXPLAIN ANALYZE` rendering does exactly that).
#[derive(Debug, Clone)]
pub struct ExecProfile {
    tallies: HashMap<usize, StepTally>,
    /// Wall-clock nanoseconds for the whole execution.
    pub wall_nanos: u64,
}

impl ExecProfile {
    /// Actuals of a BGP step, if it was reached during execution.
    pub fn step(&self, step: &Step) -> Option<StepTally> {
        self.tallies.get(&(step as *const Step as usize)).copied()
    }

    /// Actuals of a closure-path step, if it was reached.
    pub fn path(&self, pstep: &crate::plan::PathStep) -> Option<StepTally> {
        self.tallies
            .get(&(pstep as *const crate::plan::PathStep as usize))
            .copied()
    }
}

/// Evaluation context: the dataset plus the computed-terms side table.
/// All interior mutability is thread-safe so morsel workers can share one
/// context by reference.
pub struct EvalCtx {
    /// The dataset being queried.
    pub view: DatasetView,
    /// The query's variable table.
    pub vars: VarTable,
    /// Compiled EXISTS patterns (referenced by `CExpr::ExistsRef`).
    pub exists: Vec<Node>,
    computed: RwLock<Computed>,
    limits: ExecLimits,
    /// Whether the strided periodic check has anything to look at (a
    /// deadline or a cancel token) — precomputed so the row-charge hot
    /// path pays nothing when neither is configured.
    check_periodic: bool,
    cancel: Option<CancelToken>,
    threads: usize,
    morsel_size: usize,
    /// Set only by [`execute_reference`]: every pattern streams through
    /// [`eval_node`] on the calling thread.
    reference: bool,
    charged: AtomicU64,
    next_deadline_check: AtomicU64,
    /// Phase ticks from rowless work (hash builds, aggregate finalization,
    /// path expansion) — a separate counter so blocked phases get the same
    /// periodic deadline/cancel coverage without consuming the row budget.
    ticks: AtomicU64,
    next_tick_check: AtomicU64,
    /// Estimated bytes of retained intermediate state.
    mem_bytes: AtomicU64,
    exhausted_flag: AtomicBool,
    exhausted: Mutex<Option<(AbortKind, String)>>,
    shared: SharedState,
    profile: Option<Arc<ProfileState>>,
    observer: Option<Arc<ExecObserver>>,
}

/// Why an execution was aborted: a resource limit fired, or the user
/// cancelled it. Distinguished so the surfaced error is typed correctly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortKind {
    Resource,
    Cancelled,
}

/// Estimated retained bytes per hash-join build-side quad. The flat
/// table holds 40–44 (the quad, its `next` link, its share of `heads`)
/// plus up to 32 of `Vec` growth slack.
const BUILD_ROW_BYTES: u64 = 56;
/// Estimated retained bytes per newly visited path-search node (frontier,
/// visited set, and result set entries).
const PATH_NODE_BYTES: u64 = 48;
/// Estimated retained bytes per materialised output row slot.
const SLOT_BYTES: u64 = 9;
/// Estimated retained bytes per evaluated ORDER BY key.
const KEY_BYTES: u64 = 32;
/// How many uncharged units a local accumulator may hold before it must
/// charge the shared context.
const MEM_CHARGE_CHUNK: u64 = 1024;

#[derive(Default)]
struct Computed {
    terms: Vec<Term>,
    ids: HashMap<Term, u64>,
}

impl EvalCtx {
    /// Creates a context for one query execution.
    pub fn new(view: DatasetView, vars: VarTable) -> Self {
        Self::with_exists(view, vars, Vec::new())
    }

    /// A context for one execution of `compiled` against `view`.
    fn for_query(view: &DatasetView, compiled: &CompiledQuery) -> Self {
        Self::with_exists(view.clone(), compiled.vars.clone(), compiled.exists.clone())
    }

    /// A context carrying compiled EXISTS patterns. Defaults to sequential
    /// execution; use [`Self::with_options`] to enable parallelism.
    pub fn with_exists(view: DatasetView, vars: VarTable, exists: Vec<Node>) -> Self {
        EvalCtx {
            view,
            vars,
            exists,
            computed: RwLock::new(Computed::default()),
            limits: ExecLimits::default(),
            check_periodic: false,
            cancel: None,
            threads: 1,
            morsel_size: DEFAULT_MORSEL_SIZE,
            reference: false,
            charged: AtomicU64::new(0),
            next_deadline_check: AtomicU64::new(DEADLINE_STRIDE),
            ticks: AtomicU64::new(0),
            next_tick_check: AtomicU64::new(DEADLINE_STRIDE),
            mem_bytes: AtomicU64::new(0),
            exhausted_flag: AtomicBool::new(false),
            exhausted: Mutex::new(None),
            shared: SharedState::default(),
            profile: None,
            observer: None,
        }
    }

    /// Applies resource limits to this execution.
    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self.check_periodic = limits.deadline.is_some() || self.cancel.is_some();
        if self.check_periodic {
            // A token cancelled (or a deadline expired) before execution
            // starts must abort up front — queries small enough to finish
            // within one stride would otherwise never observe it.
            self.check_now();
        }
        self
    }

    /// Applies execution options, resolving `threads == 0` to the
    /// machine's available parallelism.
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.cancel = options.cancel;
        self = self.with_limits(options.limits);
        self.threads = if options.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            options.threads
        };
        self.morsel_size = options.morsel_size.max(1);
        self.observer = options.observer;
        if let Some(obs) = &self.observer {
            obs.threads.store(self.threads as u64, Ordering::Relaxed);
        }
        self
    }

    /// The attached span sink, if an observer with tracing is present.
    #[inline]
    fn trace(&self) -> Option<&telemetry::TraceSink> {
        self.observer.as_ref().and_then(|o| o.trace.as_deref())
    }

    /// Charges `n` produced rows against the limits. Returns `false` once
    /// a limit is hit — the calling operator must stop producing rows.
    /// Exhaustion is sticky: every later charge also fails, and
    /// [`exec_select`] turns the recorded reason into an error even when
    /// an intermediate operator (e.g. a sub-select) discards it.
    pub fn charge(&self, n: u64) -> bool {
        if self.exhausted_flag.load(Ordering::Relaxed) {
            return false;
        }
        let total = self
            .charged
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        if let Some(max) = self.limits.max_rows {
            if total > max {
                self.exhaust(format!("produced more than {max} intermediate rows"));
                return false;
            }
        }
        if self.check_periodic && total >= self.next_deadline_check.load(Ordering::Relaxed) {
            self.next_deadline_check
                .store(total + DEADLINE_STRIDE, Ordering::Relaxed);
            return self.check_now();
        }
        true
    }

    /// Charges `n` units of rowless work (build-side quads scanned, groups
    /// finalized, path nodes expanded) against the periodic deadline and
    /// cancellation check *without* consuming the row budget. Phases that
    /// produce no rows route through this so they observe limits with the
    /// same stride as row-producing operators.
    pub fn tick(&self, n: u64) -> bool {
        if self.exhausted_flag.load(Ordering::Relaxed) {
            return false;
        }
        if !self.check_periodic {
            return true;
        }
        let total = self.ticks.fetch_add(n, Ordering::Relaxed).saturating_add(n);
        if total >= self.next_tick_check.load(Ordering::Relaxed) {
            self.next_tick_check
                .store(total + DEADLINE_STRIDE, Ordering::Relaxed);
            return self.check_now();
        }
        true
    }

    /// The immediate deadline/cancellation check behind the strides.
    fn check_now(&self) -> bool {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.exhaust_kind(AbortKind::Cancelled, "cancelled".into());
                return false;
            }
        }
        if let Some(deadline) = self.limits.deadline {
            if Instant::now() >= deadline {
                self.exhaust("deadline exceeded".into());
                return false;
            }
        }
        true
    }

    /// Charges `bytes` of retained intermediate state against the memory
    /// budget. Returns `false` (sticky, like [`Self::charge`]) once the
    /// budget is exceeded; a no-op when no budget is configured.
    pub fn charge_mem(&self, bytes: u64) -> bool {
        let Some(max) = self.limits.max_memory else {
            // No budget to enforce, but an attached observer still wants
            // the peak; callers batch charges (MEM_CHARGE_CHUNK), so this
            // costs two relaxed atomics per chunk, not per row.
            if let Some(obs) = &self.observer {
                let total = self
                    .mem_bytes
                    .fetch_add(bytes, Ordering::Relaxed)
                    .saturating_add(bytes);
                obs.note_mem(total);
            }
            return !self.exhausted_flag.load(Ordering::Relaxed);
        };
        if self.exhausted_flag.load(Ordering::Relaxed) {
            return false;
        }
        let total = self
            .mem_bytes
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if let Some(obs) = &self.observer {
            obs.note_mem(total);
        }
        if total > max {
            self.exhaust(format!(
                "memory budget of {max} bytes exceeded (an estimated {total} bytes of \
                 intermediate state)"
            ));
            return false;
        }
        true
    }

    /// Returns `bytes` of previously charged intermediate state to the
    /// memory budget — used by operators whose buffers are transient
    /// (column batches are freed at morsel boundaries, unlike hash builds
    /// that live for the whole query).
    pub fn release_mem(&self, bytes: u64) {
        if self.limits.max_memory.is_some() || self.observer.is_some() {
            self.mem_bytes.fetch_sub(bytes.min(self.mem_bytes.load(Ordering::Relaxed)), Ordering::Relaxed);
        }
    }

    fn exhaust(&self, reason: String) {
        self.exhaust_kind(AbortKind::Resource, reason);
    }

    fn exhaust_kind(&self, kind: AbortKind, reason: String) {
        let mut guard = self.exhausted.lock().unwrap();
        if guard.is_none() {
            *guard = Some((kind, reason));
        }
        self.exhausted_flag.store(true, Ordering::Relaxed);
    }

    fn is_exhausted(&self) -> bool {
        self.exhausted_flag.load(Ordering::Relaxed)
    }

    /// Why execution was aborted, if a limit was hit or it was cancelled.
    pub fn exhaustion(&self) -> Option<String> {
        self.exhausted
            .lock()
            .unwrap()
            .as_ref()
            .map(|(_, reason)| reason.clone())
    }

    /// The typed error for an aborted execution, if any: cancellation
    /// surfaces as [`SparqlError::Cancelled`], everything else as
    /// [`SparqlError::ResourceExhausted`].
    fn abort_error(&self) -> Option<SparqlError> {
        self.exhausted
            .lock()
            .unwrap()
            .as_ref()
            .map(|(kind, reason)| match kind {
                AbortKind::Cancelled => SparqlError::Cancelled,
                AbortKind::Resource => SparqlError::ResourceExhausted(reason.clone()),
            })
    }

    /// Resolves an ID (store or computed) to an owned term.
    pub fn resolve(&self, id: u64) -> Option<Term> {
        if id & COMPUTED_BIT != 0 {
            self.computed
                .read()
                .unwrap()
                .terms
                .get((id & !COMPUTED_BIT) as usize)
                .cloned()
        } else {
            self.view.term(TermId(id)).cloned()
        }
    }

    /// The kind of the term behind an ID without cloning it.
    pub fn kind(&self, id: u64) -> Option<TermKind> {
        if id & COMPUTED_BIT != 0 {
            self.computed
                .read()
                .unwrap()
                .terms
                .get((id & !COMPUTED_BIT) as usize)
                .map(TermKind::of)
        } else {
            self.view.term(TermId(id)).map(TermKind::of)
        }
    }

    /// Interns a term: store ID when the term exists in the store, else a
    /// computed ID (stable within this execution, across all workers).
    pub fn intern_term(&self, term: &Term) -> u64 {
        if let Some(id) = self.view.term_id(term) {
            return id.0;
        }
        if let Some(&id) = self.computed.read().unwrap().ids.get(term) {
            return id;
        }
        let mut computed = self.computed.write().unwrap();
        if let Some(&id) = computed.ids.get(term) {
            return id;
        }
        let id = COMPUTED_BIT | computed.terms.len() as u64;
        computed.terms.push(term.clone());
        computed.ids.insert(term.clone(), id);
        id
    }

    /// Interns a runtime value.
    pub fn intern_value(&self, value: Value) -> u64 {
        self.intern_term(&value.into_term())
    }

    fn empty_row(&self) -> Row {
        vec![None; self.vars.len()]
    }

    /// Estimated retained bytes of one buffered full-width row.
    fn row_bytes(&self) -> u64 {
        self.vars.len() as u64 * SLOT_BYTES + 32
    }

    /// The shared hash-join build cell for a step (keyed by address).
    fn build_cell(&self, step: &Step) -> Arc<OnceLock<BuildTable>> {
        let key = step as *const Step as usize;
        self.shared
            .builds
            .lock()
            .unwrap()
            .entry(key)
            .or_default()
            .clone()
    }

    fn rows_cell(&self, key: usize) -> Arc<OnceLock<Vec<Row>>> {
        self.shared.rows.lock().unwrap().entry(key).or_default().clone()
    }

    /// A sub-select's result rows, computed once per execution (the input
    /// rows never influence them — `exec_select` starts from an empty row).
    fn shared_select_rows(&self, sel: &CSelect) -> Vec<Row> {
        let cell = self.rows_cell(sel as *const CSelect as usize);
        cell.get_or_init(|| exec_select(self, sel).unwrap_or_default())
            .clone()
    }

    /// A MINUS right side's rows, computed once per execution.
    fn shared_minus_rows(&self, inner: &Node) -> Vec<Row> {
        let cell = self.rows_cell(inner as *const Node as usize);
        cell.get_or_init(|| {
            let probe: BoxIter = Box::new(std::iter::once(self.empty_row()));
            eval_node(self, inner, probe).collect()
        })
        .clone()
    }
}

impl path::PathBudget for EvalCtx {
    /// Path expansion is a blocked phase: newly visited search nodes are
    /// retained (visited/frontier/result sets), so they charge the memory
    /// budget, and tick the periodic deadline/cancel check.
    fn path_nodes(&self, nodes: u64) -> bool {
        self.charge_mem(nodes * PATH_NODE_BYTES) && self.tick(nodes)
    }
}

/// Expression environment over one row.
pub struct RowEnv<'a> {
    ctx: &'a EvalCtx,
    row: &'a Row,
    aggs: Option<&'a [Value]>,
}

impl ExprEnv for RowEnv<'_> {
    fn term_of_slot(&self, slot: usize) -> Option<Term> {
        self.row.get(slot).copied().flatten().and_then(|id| self.ctx.resolve(id))
    }
    fn id_of_slot(&self, slot: usize) -> Option<u64> {
        self.row.get(slot).copied().flatten()
    }
    fn kind_of_slot(&self, slot: usize) -> Option<TermKind> {
        self.row
            .get(slot)
            .copied()
            .flatten()
            .and_then(|id| self.ctx.kind(id))
    }
    fn aggregate_value(&self, index: usize) -> Option<Value> {
        self.aggs.and_then(|a| a.get(index).cloned())
    }
    fn exists(&self, index: usize) -> Option<bool> {
        let node = self.ctx.exists.get(index)?;
        let input: Box<dyn Iterator<Item = Row>> =
            Box::new(std::iter::once(self.row.clone()));
        Some(eval_node(self.ctx, node, input).next().is_some())
    }
}

/// Final results of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResults {
    /// SELECT solutions.
    Solutions(crate::results::Solutions),
    /// ASK verdict.
    Boolean(bool),
    /// CONSTRUCT output: deduplicated, sorted quads.
    Graph(Vec<rdf_model::Quad>),
}

impl QueryResults {
    /// The solutions of a SELECT; any other form is
    /// [`SparqlError::Unsupported`].
    pub fn into_solutions(self) -> Result<crate::results::Solutions, SparqlError> {
        match self {
            QueryResults::Solutions(s) => Ok(s),
            QueryResults::Boolean(_) | QueryResults::Graph(_) => {
                Err(SparqlError::Unsupported("expected a SELECT query".into()))
            }
        }
    }
}

/// Executes a compiled query against a dataset view with default options
/// (auto-detected parallelism, no resource limits).
pub fn execute_compiled(
    view: &DatasetView,
    compiled: &CompiledQuery,
) -> Result<QueryResults, SparqlError> {
    execute_compiled_with_options(view, compiled, ExecOptions::default())
}

/// Executes a compiled query with explicit execution options. With
/// `threads > 1` (or auto-detected parallelism on a multi-core machine)
/// eligible plans run on the morsel-parallel executor; results are
/// guaranteed identical to `threads == 1` sequential execution.
pub fn execute_compiled_with_options(
    view: &DatasetView,
    compiled: &CompiledQuery,
    options: ExecOptions,
) -> Result<QueryResults, SparqlError> {
    let ctx = EvalCtx::for_query(view, compiled).with_options(options);
    execute_with_ctx(&ctx, compiled)
}

/// Executes a compiled query with per-step profiling: returns the
/// results plus an [`ExecProfile`] holding each BGP/path step's actual
/// rows, loops, and inclusive time. It runs the engines, thread count
/// and morsels that serve the same options unprofiled; rows and loops
/// equal [`execute_reference`]'s at any thread count, and time is summed
/// over workers.
pub fn execute_profiled(
    view: &DatasetView,
    compiled: &CompiledQuery,
    options: ExecOptions,
) -> Result<(QueryResults, ExecProfile), SparqlError> {
    let ctx = EvalCtx::for_query(view, compiled).with_options(options);
    run_profiled(ctx, compiled)
}

/// The reference evaluator differential tests compare against: every
/// pattern streams through [`eval_node`] on the calling thread — no
/// morsels, no vectorized pipeline, no fused aggregation. Returns the
/// per-step tallies too, so tally parity has a reference as well. A
/// separate entry point rather than an option: nothing caches or keys on
/// it.
#[doc(hidden)]
pub fn execute_reference(
    view: &DatasetView,
    compiled: &CompiledQuery,
    limits: ExecLimits,
) -> Result<(QueryResults, ExecProfile), SparqlError> {
    let mut ctx = EvalCtx::for_query(view, compiled).with_limits(limits);
    ctx.reference = true;
    run_profiled(ctx, compiled)
}

/// Runs with a profile collector attached: every BGP/path step records
/// its input rows, output rows, and inclusive time (summed over workers).
fn run_profiled(
    mut ctx: EvalCtx,
    compiled: &CompiledQuery,
) -> Result<(QueryResults, ExecProfile), SparqlError> {
    let start = Instant::now();
    let profile = Arc::new(ProfileState::default());
    ctx.profile = Some(Arc::clone(&profile));
    let results = execute_with_ctx(&ctx, compiled)?;
    drop(ctx); // flush any iterator tallies still alive in the context
    let tallies = profile.tallies.lock().expect("profile state poisoned").clone();
    Ok((results, ExecProfile { tallies, wall_nanos: start.elapsed().as_nanos() as u64 }))
}

fn execute_with_ctx(ctx: &EvalCtx, compiled: &CompiledQuery) -> Result<QueryResults, SparqlError> {
    match &compiled.form {
        CForm::Select(sel) => {
            let rows = exec_select(ctx, sel)?;
            Ok(QueryResults::Solutions(decode_solutions(ctx, sel, rows)))
        }
        CForm::Ask(node) => {
            let input: BoxIter = Box::new(std::iter::once(ctx.empty_row()));
            let mut out = eval_node(ctx, node, input);
            let answer = out.next().is_some();
            if let Some(err) = ctx.abort_error() {
                return Err(err);
            }
            Ok(QueryResults::Boolean(answer))
        }
        CForm::Construct(templates, sel) => {
            let rows = exec_select(ctx, sel)?;
            let solutions = decode_solutions(ctx, sel, rows);
            let mut quads = crate::update::instantiate(templates, &solutions);
            quads.sort();
            quads.dedup();
            Ok(QueryResults::Graph(quads))
        }
    }
}

/// Narrows result rows to the projected slots and decodes their IDs to
/// terms (the "emit" span of a traced query).
fn decode_solutions(ctx: &EvalCtx, sel: &CSelect, rows: Vec<Row>) -> crate::results::Solutions {
    let emit_started = ctx.trace().map(|t| t.now_nanos());
    let slots = sel.projected_slots();
    let vars: Vec<String> = slots.iter().map(|&s| ctx.vars.name(s).to_string()).collect();
    let rows: Vec<Vec<Option<Term>>> = rows
        .into_iter()
        .map(|row| slots.iter().map(|&s| row[s].and_then(|id| ctx.resolve(id))).collect())
        .collect();
    if let (Some(t), Some(started)) = (ctx.trace(), emit_started) {
        t.record("emit", format!("{} rows", rows.len()), 0, started);
    }
    crate::results::Solutions { vars, rows }
}

/// Rows the result tail can use before it stops pulling: `offset + limit`
/// when nothing between the producer and the slice reorders, drops or
/// folds rows; `None` when every row is needed.
pub(crate) fn appetite(sel: &CSelect) -> Option<usize> {
    let plain = sel.order_by.is_empty() && !sel.distinct && !sel.is_grouped();
    sel.limit.filter(|_| plain).map(|limit| limit.saturating_add(sel.offset.unwrap_or(0)))
}

/// The rows an ORDER BY keeps: `offset + limit` under a LIMIT without
/// DISTINCT (duplicates would take heap places); `None` keeps them all.
pub(crate) fn top_k(sel: &CSelect) -> Option<usize> {
    sel.limit.filter(|_| !sel.distinct).map(|limit| limit.saturating_add(sel.offset.unwrap_or(0)))
}

/// Evaluates a SELECT pipeline, returning full-width rows (only the
/// projected slots set). One pull chain serves top-level SELECT,
/// CONSTRUCT, sub-SELECT and grouped output: expression projection →
/// order stage → narrow → DISTINCT → OFFSET → LIMIT → collect. Only the
/// order stage blocks; without ORDER BY the slice ends the scan.
pub fn exec_select(ctx: &EvalCtx, sel: &CSelect) -> Result<Vec<Row>, SparqlError> {
    let mut rows: BoxIter = if sel.is_grouped() {
        Box::new(grouped_rows(ctx, sel).into_iter())
    } else {
        Box::new(produce(ctx, sel, appetite(sel)).map(|mut row| {
            project(ctx, sel, &mut row);
            row
        }))
    };
    if !sel.order_by.is_empty() {
        rows = Box::new(order_rows(ctx, sel, rows)?.into_iter());
    }

    // Narrow rows to the projected slots in place (DISTINCT keys and
    // sub-select joins read nothing else), then dedup and slice as rows
    // are pulled: DISTINCT stops at the fresh key that fills the LIMIT.
    let slots = sel.projected_slots();
    let mut keep = vec![false; ctx.vars.len()];
    for &s in &slots {
        keep[s] = true;
    }
    let narrowed = rows.map(|mut row| {
        for (value, keep) in row.iter_mut().zip(&keep) {
            if !keep {
                *value = None;
            }
        }
        row
    });
    // Keys are term IDs, as in the group maps; a duplicate allocates nothing.
    let mut seen: HashSet<Vec<Option<u64>>, IdHashState> = HashSet::default();
    let mut key = Vec::with_capacity(slots.len());
    let key_bytes = slots.len() as u64 * SLOT_BYTES + 48;
    let fresh = narrowed.filter(|row| {
        if !sel.distinct {
            return true;
        }
        key.clear();
        key.extend(slots.iter().map(|&s| row[s]));
        !seen.contains(&key) && seen.insert(key.clone()) && ctx.charge_mem(key_bytes)
    });
    let sliced = fresh.skip(sel.offset.unwrap_or(0)).take(sel.limit.unwrap_or(usize::MAX));
    collect_rows(ctx, sliced)
}

/// Evaluates a flat SELECT's projection expressions into their slots.
fn project(ctx: &EvalCtx, sel: &CSelect, row: &mut Row) {
    for proj in &sel.projection {
        if let Some(expr) = &proj.expr {
            row[proj.slot] = expr.eval(&RowEnv { ctx, row, aggs: None }).map(|v| ctx.intern_value(v));
        }
    }
}

/// The order stage: each row's keys are computed once and the best
/// [`top_k`] rows (all without one) kept in bounded heaps — per morsel
/// worker ([`par_top_k`]) or over `rows` — then sorted; ties keep arrival
/// order, so the result is a stable sort's prefix.
fn order_rows<'it>(
    ctx: &'it EvalCtx,
    sel: &'it CSelect,
    rows: BoxIter<'it>,
) -> Result<Vec<Row>, SparqlError> {
    let k = top_k(sel).unwrap_or(usize::MAX);
    let fused = if sel.is_grouped() || ctx.reference { None } else { par_top_k(ctx, sel, k) };
    let heaps = fused.unwrap_or_else(|| {
        let mut heap = TopK::new(ctx, sel, k);
        let _ = rows.enumerate().all(|(n, row)| heap.offer(&row, (0, n)));
        vec![heap]
    });
    // `offer` charged whole chunks of entries; charge each last one, then
    // release them all: the final collection charges the rows it keeps.
    let mut bytes = 0;
    for h in &heaps {
        let _ = ctx.charge_mem(h.heap.len() as u64 % MEM_CHARGE_CHUNK * h.entry_bytes);
        bytes += h.heap.len() as u64 * h.entry_bytes;
    }
    let mut ranked: Vec<Ranked> = heaps.into_iter().flat_map(|h| h.heap.into_vec()).collect();
    ranked.sort_unstable();
    ranked.truncate(k);
    ctx.release_mem(bytes);
    match ctx.abort_error() {
        Some(err) => Err(err),
        None => Ok(ranked.into_iter().map(|r| r.row).collect()),
    }
}

/// An ORDER BY key in its direction: a row's keys compare in order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Directed<'a> {
    Asc(SortKey<'a>),
    Desc(cmp::Reverse<SortKey<'a>>),
}

/// A row ordered by its keys, then by arrival: sorting is stable.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Ranked<'a> {
    keys: Vec<Directed<'a>>,
    seq: (usize, usize),
    row: Row,
}

/// Evaluates a row's ORDER BY keys into `keys`. A variable bound to a
/// store term borrows its key from the pinned dictionary; computed terms
/// and expression keys own theirs.
fn sort_keys<'a>(ctx: &'a EvalCtx, sel: &CSelect, row: &Row, keys: &mut Vec<Directed<'a>>) {
    keys.clear();
    keys.extend(sel.order_by.iter().map(|(expr, desc)| {
        let key = match *expr {
            CExpr::Var(s) if row[s].is_some_and(|id| id & COMPUTED_BIT == 0) => {
                let term = row[s].and_then(|id| ctx.view.term(TermId(id)));
                term.map_or(SortKey::Unbound, SortKey::of_term)
            }
            _ => expr
                .eval(&RowEnv { ctx, row, aggs: None })
                .map_or(SortKey::Unbound, |v| SortKey::of(&v).into_owned()),
        };
        if *desc { Directed::Desc(cmp::Reverse(key)) } else { Directed::Asc(key) }
    }));
}

/// The `k` best rows offered so far, worst on top: a row that does not
/// beat it is dropped after one key comparison, one that does takes its
/// place and buffers. Entries are charged to the memory budget in chunks
/// as they are added, like [`collect_rows`]' buffer.
struct TopK<'a> {
    ctx: &'a EvalCtx,
    sel: &'a CSelect,
    k: usize,
    heap: BinaryHeap<Ranked<'a>>,
    /// The offered row's keys.
    keys: Vec<Directed<'a>>,
    /// Estimated retained bytes of one entry.
    entry_bytes: u64,
}

impl<'a> TopK<'a> {
    /// A heap of `k` rows, at least one (`LIMIT 0` truncates it away).
    fn new(ctx: &'a EvalCtx, sel: &'a CSelect, k: usize) -> Self {
        let entry_bytes = ctx.row_bytes() + sel.order_by.len() as u64 * KEY_BYTES;
        TopK { ctx, sel, k: k.max(1), heap: BinaryHeap::new(), keys: Vec::new(), entry_bytes }
    }

    /// Offers the `seq`-th row to arrive (arrivals only grow, so a tie
    /// loses to the row kept); `false` once a memory charge fails.
    fn offer(&mut self, row: &Row, seq: (usize, usize)) -> bool {
        sort_keys(self.ctx, self.sel, row, &mut self.keys);
        if self.heap.len() < self.k {
            let keys = std::mem::take(&mut self.keys);
            self.heap.push(Ranked { keys, seq, row: row.clone() });
            let whole = self.heap.len() as u64 % MEM_CHARGE_CHUNK == 0;
            return !whole || self.ctx.charge_mem(MEM_CHARGE_CHUNK * self.entry_bytes);
        }
        let mut worst = self.heap.peek_mut().expect("a full heap of k >= 1 rows");
        if self.keys < worst.keys {
            std::mem::swap(&mut worst.keys, &mut self.keys);
            worst.row.clone_from(row);
            worst.seq = seq;
        }
        true
    }
}

/// Collects the rows a blocking stage keeps. The buffer is retained state
/// like any other: it is charged in chunks as it grows, so a wide result
/// stops being pulled once it exceeds the memory budget. A limit hit
/// anywhere below — including inside a sub-select whose error was
/// discarded — surfaces here rather than as silently truncated results.
fn collect_rows(ctx: &EvalCtx, rows: impl Iterator<Item = Row>) -> Result<Vec<Row>, SparqlError> {
    let chunk = MEM_CHARGE_CHUNK as usize;
    let mut out: Vec<Row> = Vec::new();
    for row in rows {
        out.push(row);
        if out.len() % chunk == 0 && !ctx.charge_mem(MEM_CHARGE_CHUNK * ctx.row_bytes()) {
            break;
        }
    }
    let _ = ctx.charge_mem((out.len() % chunk) as u64 * ctx.row_bytes());
    match ctx.abort_error() {
        Some(err) => Err(err),
        None => Ok(out),
    }
}

enum Acc {
    CountAll(u64),
    Count(u64),
    CountDistinct(HashSet<u64>),
    Sum { int: i64, float: f64, any_float: bool, seen: bool },
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(agg: &CAggregate) -> Acc {
        match agg {
            CAggregate::CountAll => Acc::CountAll(0),
            CAggregate::Count { distinct: true, .. } => Acc::CountDistinct(HashSet::new()),
            CAggregate::Count { .. } => Acc::Count(0),
            CAggregate::Sum(_) => Acc::Sum { int: 0, float: 0.0, any_float: false, seen: false },
            CAggregate::Avg(_) => Acc::Avg { sum: 0.0, n: 0 },
            CAggregate::Min(_) => Acc::Min(None),
            CAggregate::Max(_) => Acc::Max(None),
        }
    }

    fn update(&mut self, ctx: &EvalCtx, agg: &CAggregate, row: &Row) {
        let eval = |expr: &CExpr| {
            let env = RowEnv { ctx, row, aggs: None };
            expr.eval(&env)
        };
        match (self, agg) {
            (Acc::CountAll(n), _) => *n += 1,
            (Acc::Count(n), CAggregate::Count { expr, .. }) => {
                if eval(expr).is_some() {
                    *n += 1;
                }
            }
            (Acc::CountDistinct(set), CAggregate::Count { expr, .. }) => {
                if let Some(v) = eval(expr) {
                    if set.insert(ctx.intern_value(v)) {
                        // Sticky on failure; the operator loop above
                        // notices via its own charges or the final check.
                        let _ = ctx.charge_mem(16);
                    }
                }
            }
            (Acc::Sum { int, float, any_float, seen }, CAggregate::Sum(expr)) => {
                if let Some(v) = eval(expr) {
                    match v {
                        Value::Int(i) => *int += i,
                        other => {
                            if let Some(f) = other.as_number() {
                                *float += f;
                                *any_float = true;
                            } else {
                                return;
                            }
                        }
                    }
                    *seen = true;
                }
            }
            (Acc::Avg { sum, n }, CAggregate::Avg(expr)) => {
                if let Some(f) = eval(expr).and_then(|v| v.as_number()) {
                    *sum += f;
                    *n += 1;
                }
            }
            (Acc::Min(best), CAggregate::Min(expr)) => {
                if let Some(v) = eval(expr) {
                    let replace = best
                        .as_ref()
                        .map(|b| v.sparql_cmp(b) == std::cmp::Ordering::Less)
                        .unwrap_or(true);
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            (Acc::Max(best), CAggregate::Max(expr)) => {
                if let Some(v) = eval(expr) {
                    let replace = best
                        .as_ref()
                        .map(|b| v.sparql_cmp(b) == std::cmp::Ordering::Greater)
                        .unwrap_or(true);
                    if replace {
                        *best = Some(v);
                    }
                }
            }
            _ => unreachable!("accumulator/aggregate mismatch"),
        }
    }

    fn finish(self) -> Option<Value> {
        match self {
            Acc::CountAll(n) | Acc::Count(n) => Some(Value::Int(n as i64)),
            Acc::CountDistinct(set) => Some(Value::Int(set.len() as i64)),
            Acc::Sum { int, float, any_float, seen } => {
                if !seen {
                    Some(Value::Int(0))
                } else if any_float {
                    Some(Value::Float(float + int as f64))
                } else {
                    Some(Value::Int(int))
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Some(Value::Int(0))
                } else {
                    Some(Value::Float(sum / n as f64))
                }
            }
            Acc::Min(v) | Acc::Max(v) => v,
        }
    }
}

/// Produces the grouped rows of a grouped SELECT: fused aggregation
/// inside the morsel loop when the aggregates and the plan allow it, else
/// ordered row production streaming into the sequential aggregation loop.
fn grouped_rows(ctx: &EvalCtx, sel: &CSelect) -> Vec<Row> {
    if !ctx.reference {
        if let Some(partial) = par_grouped(ctx, sel) {
            return finalize_groups(ctx, sel, partial.groups, partial.saw_rows);
        }
    }
    group_and_aggregate(ctx, sel, produce(ctx, sel, None))
}

/// Estimated retained bytes for one group-by partial: the key vector plus
/// one accumulator per aggregate (distinct-sets grow beyond this and
/// charge separately per element).
fn group_mem_bytes(sel: &CSelect) -> u64 {
    48 + sel.group_slots.len() as u64 * SLOT_BYTES + sel.aggregates.len() as u64 * 48
}

fn group_and_aggregate(ctx: &EvalCtx, sel: &CSelect, solutions: BoxIter<'_>) -> Vec<Row> {
    // A fixed hasher: the same input gives the same group order on every
    // run, like the fused path.
    let mut groups = GroupMap::default();
    let make_accs = || sel.aggregates.iter().map(Acc::new).collect::<Vec<_>>();
    let group_bytes = group_mem_bytes(sel);
    let mut saw_rows = false;
    for row in solutions {
        saw_rows = true;
        let key: Vec<Option<u64>> = sel.group_slots.iter().map(|&s| row[s]).collect();
        let before = groups.len();
        let accs = groups.entry(key).or_insert_with(make_accs);
        for (acc, agg) in accs.iter_mut().zip(&sel.aggregates) {
            acc.update(ctx, agg, &row);
        }
        // Group-by partials are retained state: each fresh group charges
        // the memory budget, and an exceeded budget stops consuming input.
        if groups.len() > before && !ctx.charge_mem(group_bytes) {
            break;
        }
    }
    finalize_groups(ctx, sel, groups, saw_rows)
}

/// Turns accumulated groups into output rows: default group for zero-row
/// ungrouped aggregation, projection expressions and hidden ORDER BY
/// columns, and HAVING.
fn finalize_groups(
    ctx: &EvalCtx,
    sel: &CSelect,
    mut groups: GroupMap,
    saw_rows: bool,
) -> Vec<Row> {
    let make_accs = || sel.aggregates.iter().map(Acc::new).collect::<Vec<_>>();
    // SPARQL: aggregation without GROUP BY over zero rows yields one group.
    if !saw_rows && sel.group_slots.is_empty() {
        groups.insert(Vec::new(), make_accs());
    }

    let mut out = Vec::with_capacity(groups.len());
    for (key, accs) in groups {
        // Finalization charges no rows; tick so a deadline or cancel
        // lands inside a huge group sweep too.
        if !ctx.tick(1) {
            break;
        }
        let agg_values: Vec<Value> = accs
            .into_iter()
            .map(|a| a.finish().unwrap_or(Value::Int(0)))
            .collect();
        let mut row = ctx.empty_row();
        for (slot, v) in sel.group_slots.iter().zip(&key) {
            row[*slot] = *v;
        }
        for proj in sel.projection.iter().chain(&sel.hidden) {
            if let Some(expr) = &proj.expr {
                let env = RowEnv { ctx, row: &row, aggs: Some(&agg_values) };
                row[proj.slot] = expr.eval(&env).map(|v| ctx.intern_value(v));
            }
        }
        // HAVING: post-aggregation filter (projection aliases like the
        // `?n` of `HAVING (?n > 1)` are in scope by now).
        let keep = sel.having.iter().all(|h| {
            let env = RowEnv { ctx, row: &row, aggs: Some(&agg_values) };
            h.eval_filter(&env)
        });
        if !keep {
            continue;
        }
        out.push(row);
    }
    out
}

/// Evaluates one compiled node, streaming input rows through it.
pub fn eval_node<'it>(ctx: &'it EvalCtx, node: &'it Node, input: BoxIter<'it>) -> BoxIter<'it> {
    match node {
        Node::Steps(steps) => {
            let mut stream = input;
            for step in steps {
                stream = eval_step(ctx, step, stream);
            }
            stream
        }
        Node::Path(pstep) => {
            let key = pstep as *const crate::plan::PathStep as usize;
            let input = profile_input(ctx, key, input);
            let out: BoxIter = Box::new(input.flat_map(move |row| {
                let s_val = pos_value(&row, &pstep.s);
                let o_val = pos_value(&row, &pstep.o);
                // Computed IDs never match stored quads.
                let bad = |v: &Option<Option<u64>>| matches!(v, Some(None));
                if bad(&s_val) || bad(&o_val) {
                    return Vec::new().into_iter();
                }
                let pairs = path::eval_path_pairs(
                    &ctx.view,
                    &pstep.path,
                    pstep.graph,
                    s_val.flatten(),
                    o_val.flatten(),
                    ctx,
                );
                let mut out = Vec::new();
                for (s, o) in pairs {
                    let mut new_row = row.clone();
                    if extend_pos(&mut new_row, &pstep.s, s) && extend_pos(&mut new_row, &pstep.o, o) {
                        if !ctx.charge(1) {
                            break;
                        }
                        out.push(new_row);
                    }
                }
                out.into_iter()
            }));
            profile_output(ctx, key, out)
        }
        Node::Join(children) => {
            let mut stream = input;
            for child in children {
                stream = eval_node(ctx, child, stream);
            }
            stream
        }
        Node::Filter(filters, inner) => {
            let stream = eval_node(ctx, inner, input);
            Box::new(stream.filter(move |row| passes(ctx, filters, row)))
        }
        Node::Union(a, b) => {
            let rows: Vec<Row> = input.collect();
            let left: BoxIter = Box::new(rows.clone().into_iter());
            let right: BoxIter = Box::new(rows.into_iter());
            Box::new(eval_node(ctx, a, left).chain(eval_node(ctx, b, right)))
        }
        Node::Optional(a, b) => {
            let left = eval_node(ctx, a, input);
            Box::new(left.flat_map(move |row| {
                let probe: BoxIter = Box::new(std::iter::once(row.clone()));
                let matches: Vec<Row> = eval_node(ctx, b, probe).collect();
                if matches.is_empty() {
                    vec![row].into_iter()
                } else {
                    matches.into_iter()
                }
            }))
        }
        Node::SubSelect(sel) => {
            let inner = ctx.shared_select_rows(sel);
            let input_rows: Vec<Row> = input.collect();
            let slots = sel.projected_slots();
            // Join keys: projected slots bound in every input row.
            let join_slots: Vec<usize> = slots
                .iter()
                .copied()
                .filter(|&s| !input_rows.is_empty() && input_rows.iter().all(|r| r[s].is_some()))
                .collect();
            if inner.len() > join_table::MAX_ROWS {
                ctx.exhaust(format!("a sub-select joins more than {} rows", join_table::MAX_ROWS));
                return Box::new(std::iter::empty());
            }
            // Inner rows chained on the join slots; one with an unbound
            // join slot can match no input row and joins no chain.
            let chains = Chains::new(inner.len(), |i| row_hash(&inner[i], &join_slots));
            Box::new(input_rows.into_iter().flat_map(move |row| {
                let hash = row_hash(&row, &join_slots).expect("join slot bound in all input rows");
                let mut out = Vec::new();
                'outer: for m in chains.bucket(hash).map(|i| &inner[i]) {
                    if join_slots.iter().any(|&s| m[s] != row[s]) {
                        continue;
                    }
                    let mut merged = row.clone();
                    for &s in &slots {
                        match (merged[s], m[s]) {
                            (Some(a), Some(b)) if a != b => continue 'outer,
                            (None, b) => merged[s] = b,
                            _ => {}
                        }
                    }
                    out.push(merged);
                }
                out.into_iter()
            }))
        }
        Node::Values { slots, rows } => {
            let resolved: Vec<Vec<Option<u64>>> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|t| t.as_ref().map(|t| ctx.intern_term(t)))
                        .collect()
                })
                .collect();
            let slots = slots.clone();
            Box::new(input.flat_map(move |row| {
                let mut out = Vec::new();
                'rows: for vrow in &resolved {
                    let mut merged = row.clone();
                    for (&slot, value) in slots.iter().zip(vrow) {
                        if let Some(v) = value {
                            match merged[slot] {
                                Some(existing) if existing != *v => continue 'rows,
                                _ => merged[slot] = Some(*v),
                            }
                        }
                    }
                    out.push(merged);
                }
                out.into_iter()
            }))
        }
        Node::Extend(slot, expr) => {
            let slot = *slot;
            Box::new(input.map(move |mut row| {
                let value = {
                    let env = RowEnv { ctx, row: &row, aggs: None };
                    expr.eval(&env)
                };
                // Per SPARQL, a BIND error leaves the variable unbound; a
                // conflict with an existing binding drops nothing here
                // because the parser guarantees a fresh variable.
                row[slot] = value.map(|v| ctx.intern_value(v));
                row
            }))
        }
        Node::Minus(inner) => {
            // MINUS: evaluate the inner pattern bottom-up once, then drop
            // input rows that are compatible with (and share at least one
            // bound variable with) some inner solution.
            let right: Vec<Row> = ctx.shared_minus_rows(inner);
            Box::new(input.filter(move |row| {
                !right.iter().any(|r| {
                    let mut shared = false;
                    for (a, b) in row.iter().zip(r.iter()) {
                        if let (Some(x), Some(y)) = (a, b) {
                            if x != y {
                                return false;
                            }
                            shared = true;
                        }
                    }
                    shared
                })
            }))
        }
    }
}

/// Whether a row satisfies every conjunct of a FILTER.
fn passes(ctx: &EvalCtx, filters: &[CExpr], row: &Row) -> bool {
    filters.iter().all(|f| f.eval_filter(&RowEnv { ctx, row, aggs: None }))
}

/// Counts rows flowing *into* a profiled step (its loop count) and
/// flushes once on drop.
struct ProfileLoops<'it> {
    inner: BoxIter<'it>,
    profile: Arc<ProfileState>,
    key: usize,
    loops: u64,
}

impl Iterator for ProfileLoops<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        let item = self.inner.next();
        if item.is_some() {
            self.loops += 1;
        }
        item
    }
}

impl Drop for ProfileLoops<'_> {
    fn drop(&mut self) {
        self.profile.add(self.key, 0, self.loops, 0);
    }
}

/// Counts and times rows flowing *out of* a profiled step. Each `next()`
/// is clocked, so the recorded time is inclusive of the steps beneath
/// this one in the pull pipeline; flushes once on drop.
struct ProfileRows<'it> {
    inner: BoxIter<'it>,
    profile: Arc<ProfileState>,
    key: usize,
    rows: u64,
    nanos: u64,
}

impl Iterator for ProfileRows<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        let start = Instant::now();
        let item = self.inner.next();
        self.nanos += start.elapsed().as_nanos() as u64;
        if item.is_some() {
            self.rows += 1;
        }
        item
    }
}

impl Drop for ProfileRows<'_> {
    fn drop(&mut self) {
        self.profile.add(self.key, self.rows, 0, self.nanos);
    }
}

/// Wraps a profiled step's input with a loop counter (no-op without an
/// attached profile).
fn profile_input<'it>(ctx: &'it EvalCtx, key: usize, input: BoxIter<'it>) -> BoxIter<'it> {
    match &ctx.profile {
        Some(p) => Box::new(ProfileLoops { inner: input, profile: Arc::clone(p), key, loops: 0 }),
        None => input,
    }
}

/// Wraps a profiled step's output with a row counter + timer (no-op
/// without an attached profile).
fn profile_output<'it>(ctx: &'it EvalCtx, key: usize, out: BoxIter<'it>) -> BoxIter<'it> {
    match &ctx.profile {
        Some(p) => Box::new(ProfileRows {
            inner: out,
            profile: Arc::clone(p),
            key,
            rows: 0,
            nanos: 0,
        }),
        None => out,
    }
}

fn eval_step<'it>(ctx: &'it EvalCtx, step: &'it Step, input: BoxIter<'it>) -> BoxIter<'it> {
    let key = step as *const Step as usize;
    let input = profile_input(ctx, key, input);
    let out = eval_step_inner(ctx, step, input);
    profile_output(ctx, key, out)
}

fn eval_step_inner<'it>(ctx: &'it EvalCtx, step: &'it Step, input: BoxIter<'it>) -> BoxIter<'it> {
    match &step.strategy {
        // Yields as it scans: a consumer that stops pulling ends the scan.
        // A closing step of a cycle is the same probe: fully bound, it
        // replicates each row once per matching quad. A merge step is the
        // same probe too, whatever order its rows arrive in.
        Strategy::IndexNlj | Strategy::Intersect { .. } | Strategy::Merge { .. } => {
            Box::new(input.flat_map(move |row| {
                let scan = probe_pattern(&row, &step.triple).map(move |pattern| {
                    ctx.view
                        .scan(pattern)
                        .filter_map(move |quad| extend_row(&row, &step.triple, &quad))
                        .take_while(move |_| ctx.charge(1))
                });
                scan.into_iter().flatten()
            }))
        }
        Strategy::HashJoin { join_slots } => {
            Box::new(HashJoinIter::new(ctx, step, join_slots, input))
        }
    }
}

/// Builds a hash-join build side: the step's pattern scanned with
/// constants only, keyed by the join positions.
fn build_table(ctx: &EvalCtx, step: &Step, join_slots: &[usize]) -> BuildTable {
    build_table_capped(ctx, step, join_slots, join_table::MAX_ROWS)
}

/// [`build_table`] with at most `cap` rows: a larger build side exhausts
/// the query's resources. A build cut short (budget, deadline, cancel,
/// cap) returns an empty table: the query has already failed.
fn build_table_capped(ctx: &EvalCtx, step: &Step, join_slots: &[usize], cap: usize) -> BuildTable {
    let positions = key_positions(&step.triple, join_slots);
    let mut quads = Vec::new();
    let complete =
        step.triple.unsatisfiable() || scan_build_side(ctx, step, &positions, cap, &mut quads);
    if telemetry::enabled() {
        crate::metrics::hash_build_rows().record(quads.len() as u64);
    }
    if !complete {
        quads = Vec::new();
    }
    BuildTable::new(quads, positions)
}

/// Scans `step`'s constants-only pattern into `quads`, charging as it
/// goes. `false` once a limit stops the scan.
fn scan_build_side(
    ctx: &EvalCtx,
    step: &Step,
    positions: &[usize],
    cap: usize,
    quads: &mut Vec<quadstore::EncodedQuad>,
) -> bool {
    let row_bytes = BUILD_ROW_BYTES + positions.len() as u64 * 8;
    for quad in ctx.view.scan(step.triple.const_pattern()) {
        if quads.len() == cap {
            ctx.exhaust(format!("a hash-join build side holds more than {cap} rows"));
            return false;
        }
        quads.push(quad);
        let rows = quads.len() as u64;
        // Build sides charge no rows, so route this blocked phase
        // through the periodic deadline/cancel check and the memory
        // budget in chunks — one atomic op per chunk, not per quad.
        if rows % MEM_CHARGE_CHUNK == 0
            && (!ctx.tick(MEM_CHARGE_CHUNK) || !ctx.charge_mem(MEM_CHARGE_CHUNK * row_bytes))
        {
            return false;
        }
    }
    let rem = quads.len() as u64 % MEM_CHARGE_CHUNK;
    if rem > 0 {
        let _ = ctx.tick(rem) && ctx.charge_mem(rem * row_bytes);
    }
    true
}

/// Lazily-built hash join: the build side is materialised into a hash
/// table on first use — at most once per execution, shared across every
/// worker and re-evaluation of the step — then probed per input row.
struct HashJoinIter<'it> {
    ctx: &'it EvalCtx,
    step: &'it Step,
    join_slots: &'it [usize],
    input: BoxIter<'it>,
    cell: Arc<OnceLock<BuildTable>>,
    /// The current probe key (reused across rows).
    key: Vec<u64>,
    pending: std::vec::IntoIter<Row>,
}

impl<'it> HashJoinIter<'it> {
    fn new(
        ctx: &'it EvalCtx,
        step: &'it Step,
        join_slots: &'it [usize],
        input: BoxIter<'it>,
    ) -> Self {
        let cell = ctx.build_cell(step);
        HashJoinIter {
            ctx,
            step,
            join_slots,
            input,
            cell,
            key: Vec::with_capacity(join_slots.len()),
            pending: Vec::new().into_iter(),
        }
    }
}

impl Iterator for HashJoinIter<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(row) = self.pending.next() {
                return Some(row);
            }
            let row = self.input.next()?;
            // Join keys are usually bound — but OPTIONAL/VALUES can leave a
            // planned-bound slot UNDEF at runtime. A row with a computed ID
            // in a join slot can never match stored quads; a row with an
            // unbound slot falls back to a per-row index scan (NLJ-style).
            if self
                .join_slots
                .iter()
                .any(|&s| matches!(row[s], Some(id) if id & COMPUTED_BIT != 0))
            {
                continue;
            }
            if self.join_slots.iter().any(|&s| row[s].is_none()) {
                if let Some(pattern) = probe_pattern(&row, &self.step.triple) {
                    let mut out = Vec::new();
                    for quad in self.ctx.view.scan(pattern) {
                        if let Some(new_row) = extend_row(&row, &self.step.triple, &quad) {
                            if !self.ctx.charge(1) {
                                return None;
                            }
                            out.push(new_row);
                        }
                    }
                    self.pending = out.into_iter();
                }
                continue;
            }
            self.key.clear();
            self.key.extend(self.join_slots.iter().map(|&s| row[s].expect("checked above")));
            let (ctx, step, join_slots) = (self.ctx, self.step, self.join_slots);
            let table = self.cell.get_or_init(|| build_table(ctx, step, join_slots));
            let mut out = Vec::new();
            for quad in table.get(&self.key) {
                if let Some(new_row) = extend_row(&row, &self.step.triple, quad) {
                    if !self.ctx.charge(1) {
                        return None;
                    }
                    out.push(new_row);
                }
            }
            self.pending = out.into_iter();
        }
    }
}

/// The quad position each join slot is keyed on (first occurrence).
fn key_positions(triple: &CTriple, join_slots: &[usize]) -> Vec<usize> {
    join_slots
        .iter()
        .map(|&slot| {
            if triple.s.slot() == Some(slot) {
                quadstore::ids::S
            } else if triple.p.slot() == Some(slot) {
                quadstore::ids::P
            } else if triple.o.slot() == Some(slot) {
                quadstore::ids::O
            } else if matches!(triple.g, CGraph::Var(g) if g == slot) {
                quadstore::ids::G
            } else {
                unreachable!("join slot not in triple")
            }
        })
        .collect()
}

/// The value a position contributes given a row: `None` = unbound,
/// `Some(None)` = bound to something that cannot match stored quads
/// (a missing constant or computed ID), `Some(Some(id))` = bound.
fn pos_value(row: &Row, pos: &CPos) -> Option<Option<u64>> {
    match pos {
        CPos::Var(slot) => row[*slot].map(|id| {
            if id & COMPUTED_BIT != 0 {
                None
            } else {
                Some(id)
            }
        }),
        CPos::Const(_, Some(id)) => Some(Some(id.0)),
        CPos::Const(_, None) => Some(None),
    }
}

/// The scan pattern for a probe with the given row; `None` means the probe
/// cannot match anything.
fn probe_pattern(row: &Row, triple: &CTriple) -> Option<QuadPattern> {
    let resolve = |pos: &CPos| -> Result<Option<TermId>, ()> {
        match pos_value(row, pos) {
            None => Ok(None),
            Some(Some(id)) => Ok(Some(TermId(id))),
            Some(None) => Err(()),
        }
    };
    let s = resolve(&triple.s).ok()?;
    let p = resolve(&triple.p).ok()?;
    let o = resolve(&triple.o).ok()?;
    let g = match &triple.g {
        CGraph::Any => GraphConstraint::Any,
        CGraph::Default => GraphConstraint::DefaultOnly,
        CGraph::Const(_, Some(id)) => GraphConstraint::Named(*id),
        CGraph::Const(_, None) => return None,
        CGraph::Var(slot) => match row[*slot] {
            Some(id) if id & COMPUTED_BIT != 0 => return None,
            Some(id) => GraphConstraint::Named(TermId(id)),
            None => GraphConstraint::AnyNamed,
        },
    };
    Some(QuadPattern { s, p, o, g })
}

/// Extends a row with a matched quad, checking consistency for slots that
/// are already bound (repeated variables, join keys).
fn extend_row(row: &Row, triple: &CTriple, quad: &quadstore::EncodedQuad) -> Option<Row> {
    let mut new_row = row.clone();
    let mut set = |slot: usize, value: u64| -> bool {
        match new_row[slot] {
            Some(existing) => existing == value,
            None => {
                new_row[slot] = Some(value);
                true
            }
        }
    };
    if let CPos::Var(s) = &triple.s {
        if !set(*s, quad[quadstore::ids::S]) {
            return None;
        }
    } else if let CPos::Const(_, Some(id)) = &triple.s {
        if id.0 != quad[quadstore::ids::S] {
            return None;
        }
    }
    if let CPos::Var(s) = &triple.p {
        if !set(*s, quad[quadstore::ids::P]) {
            return None;
        }
    } else if let CPos::Const(_, Some(id)) = &triple.p {
        if id.0 != quad[quadstore::ids::P] {
            return None;
        }
    }
    if let CPos::Var(s) = &triple.o {
        if !set(*s, quad[quadstore::ids::O]) {
            return None;
        }
    } else if let CPos::Const(_, Some(id)) = &triple.o {
        if id.0 != quad[quadstore::ids::O] {
            return None;
        }
    }
    if let CGraph::Var(s) = &triple.g {
        if !set(*s, quad[quadstore::ids::G]) {
            return None;
        }
    }
    Some(new_row)
}

fn extend_pos(row: &mut Row, pos: &CPos, value: u64) -> bool {
    match pos {
        CPos::Var(slot) => match row[*slot] {
            Some(existing) => existing == value,
            None => {
                row[*slot] = Some(value);
                true
            }
        },
        CPos::Const(_, Some(id)) => id.0 == value,
        CPos::Const(_, None) => false,
    }
}

// ---------------------------------------------------------------------------
// Morsel-driven parallel execution.
//
// The driving index scan of a plan `VecPipeline` can lower is split into
// fixed-size morsels (contiguous chunks of the chosen sorted index, plus
// per-member DML-delta morsels). Workers claim morsels from a shared
// counter and run each morsel through the pipeline as one column batch, and
// the outputs are pulled in morsel order, which reproduces the sequential row
// order exactly, because step chains and FILTERs are "order-local": their
// output order depends only on their input order. Every other plan
// streams through `eval_node` on the calling thread.
// ---------------------------------------------------------------------------

/// One pipeline stage applied to each morsel's rows after the driving scan.
#[derive(Clone, Copy)]
enum Stage<'p> {
    /// Remaining steps of the driving Steps node, or a sibling Steps
    /// node of the same Join.
    Steps(&'p [Step]),
    /// A FILTER wrapper unwrapped from around the root.
    Filters(&'p [CExpr]),
}

/// A root plan rewritten for morsel-parallel execution: a base row (from a
/// leading one-row VALUES pin), a driving index scan, and the downstream
/// stages every morsel's rows flow through.
struct DrivePlan<'p> {
    base: Row,
    drive: &'p Step,
    stages: Vec<Stage<'p>>,
}

/// True when the node is a UNION, possibly under FILTER wrappers.
fn root_union(node: &Node) -> bool {
    match node {
        Node::Union(..) => true,
        Node::Filter(_, inner) => root_union(inner),
        _ => false,
    }
}

/// Splits a root into its UNION branches in sequential order, each with
/// the FILTERs unwrapped from above it as trailing stages. Every input
/// row flows through every branch exactly once, so the branches' outputs
/// concatenated are the root's rows, in its order.
fn union_branches<'p>(node: &'p Node, suffix: &[Stage<'p>]) -> Vec<(&'p Node, Vec<Stage<'p>>)> {
    match node {
        Node::Union(a, b) => {
            let mut out = union_branches(a, suffix);
            out.extend(union_branches(b, suffix));
            out
        }
        Node::Filter(filters, inner) if root_union(inner) => {
            let mut with_filter: Vec<Stage<'p>> = vec![Stage::Filters(filters)];
            with_filter.extend_from_slice(suffix);
            union_branches(inner, &with_filter)
        }
        _ => vec![(node, suffix.to_vec())],
    }
}

/// Tries to rewrite a UNION branch into a morsel-drivable plan. The node
/// must be (under optional FILTER wrappers) a non-empty Steps node, or a
/// Join of an optional leading one-row VALUES pin, a non-empty Steps node,
/// and sibling Steps nodes — the shapes [`batch::VecPipeline`] lowers.
/// The driving step must be an index scan.
/// `suffix` (the branch's trailing stages) runs last.
fn drive_plan<'p>(
    ctx: &EvalCtx,
    node: &'p Node,
    suffix: &[Stage<'p>],
) -> Option<DrivePlan<'p>> {
    let mut filters: Vec<&'p [CExpr]> = Vec::new();
    let mut cur = node;
    while let Node::Filter(f, inner) = cur {
        filters.push(f);
        cur = inner;
    }
    let mut base = ctx.empty_row();
    let mut stages: Vec<Stage<'p>> = Vec::new();
    let drive: &'p Step;
    match cur {
        Node::Steps(steps) if !steps.is_empty() => {
            drive = &steps[0];
            if steps.len() > 1 {
                stages.push(Stage::Steps(&steps[1..]));
            }
        }
        Node::Join(children) if !children.is_empty() => {
            let mut idx = 0;
            if let Node::Values { slots, rows } = &children[0] {
                // The constant-equality pushdown plants a one-row VALUES
                // pin ahead of the steps; fold it into the base row.
                if rows.len() != 1 {
                    return None;
                }
                for (&slot, t) in slots.iter().zip(&rows[0]) {
                    if let Some(t) = t {
                        base[slot] = Some(ctx.intern_term(t));
                    }
                }
                idx = 1;
            }
            let steps = match children.get(idx) {
                Some(Node::Steps(steps)) if !steps.is_empty() => steps,
                _ => return None,
            };
            drive = &steps[0];
            if steps.len() > 1 {
                stages.push(Stage::Steps(&steps[1..]));
            }
            for child in &children[idx + 1..] {
                let Node::Steps(steps) = child else { return None };
                stages.push(Stage::Steps(steps));
            }
        }
        _ => return None,
    }
    if !matches!(drive.strategy, Strategy::IndexNlj) {
        return None;
    }
    // Filters run last, innermost first (matching the nesting order).
    for f in filters.into_iter().rev() {
        stages.push(Stage::Filters(f));
    }
    stages.extend_from_slice(suffix);
    Some(DrivePlan { base, drive, stages })
}

/// One root UNION branch as every consumer runs it: a pipeline with its
/// drive scan's morsels, or a node and trailing stages for [`stream`].
#[allow(clippy::large_enum_variant)] // moved once per branch; a box would cost an allocation
enum Branch<'p> {
    Pipe(Vec<Morsel>, batch::VecPipeline<'p>),
    Stream(&'p Node, Vec<Stage<'p>>),
}

/// The root's UNION branches in sequential order, each planned as it is
/// pulled: [`drive_plan`], the pipeline (sorted by `group_slot` where an
/// index allows, see [`batch::VecPipeline::compile`]) and its morsels, or
/// left to [`stream`]. Nothing runs yet: consumers begin the pipelines they
/// start, so a fused consumer that falls back leaves no tallies behind.
fn branches<'p>(
    ctx: &'p EvalCtx,
    sel: &'p CSelect,
    group_slot: Option<usize>,
) -> impl Iterator<Item = Branch<'p>> + 'p {
    let needed = batch::needed_slots(ctx, sel);
    union_branches(&sel.root, &[]).into_iter().map(move |(node, suffix)| {
        drive_plan(ctx, node, &suffix)
            .and_then(|plan| batch::VecPipeline::compile(ctx, &plan, &needed, group_slot))
            .map_or(Branch::Stream(node, suffix), |p| Branch::Pipe(p.morsels(ctx), p))
    })
}

/// The root's solution rows in exact sequential order, branch by UNION
/// branch, produced as they are pulled: pipelined branches a round of
/// morsels at a time ([`MorselRows`]), the others through [`stream`].
/// `want` is the tail's [`appetite`].
fn produce<'it>(ctx: &'it EvalCtx, sel: &'it CSelect, want: Option<usize>) -> BoxIter<'it> {
    if ctx.reference {
        return stream(ctx, &sel.root, &[]);
    }
    Box::new(branches(ctx, sel, None).flat_map(move |branch| -> BoxIter<'it> {
        match branch {
            Branch::Pipe(morsels, pipeline) => {
                Box::new(MorselRows::new(ctx, pipeline, morsels, want))
            }
            Branch::Stream(node, suffix) => stream(ctx, node, &suffix),
        }
    }))
}

/// Streams one seed row through `node` and `stages` on the calling
/// thread.
fn stream<'it>(ctx: &'it EvalCtx, node: &'it Node, stages: &[Stage<'it>]) -> BoxIter<'it> {
    let input: BoxIter = Box::new(std::iter::once(ctx.empty_row()));
    stages
        .iter()
        .fold(eval_node(ctx, node, input), |stream, stage| apply_stage(ctx, stage, stream))
}

/// Runs the morsel tasks `tasks` across the context's workers — the one
/// place the morsel-claim policy lives. Each worker builds its own state
/// with `init`, claims task indexes from a shared counter until they run
/// out or a limit fires, and hands the state back; a single worker runs
/// on the calling thread.
fn claim_tasks<S: Send>(
    ctx: &EvalCtx,
    tasks: std::ops::Range<usize>,
    label: &str,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize) + Sync,
) -> Vec<S> {
    let track = telemetry::enabled();
    let trace = ctx.trace();
    let next = AtomicUsize::new(tasks.start);
    let worker = |tid: u32| -> S {
        let mut state = init();
        let mut claimed = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks.end || ctx.is_exhausted() {
                break;
            }
            claimed += 1;
            let started = trace.map(|t| t.now_nanos());
            run(&mut state, i);
            if let (Some(t), Some(started)) = (trace, started) {
                t.record("drive", format!("{label} {i}"), tid, started);
            }
        }
        if track {
            crate::metrics::morsels_claimed().add(claimed);
        }
        state
    };
    let workers = ctx.threads.min(tasks.len()).max(1);
    if workers == 1 {
        return vec![worker(1)];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let worker = &worker;
                scope.spawn(move || {
                    let _busy = track.then(|| crate::metrics::worker_busy_nanos().span());
                    worker(w as u32 + 1)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("morsel worker panicked"))
            .collect()
    })
}

/// One drivable UNION branch's rows in morsel order — which is the
/// sequential row order, see above — produced through its pipeline a
/// *round* of morsels per refill. At `threads == 1` a round is one
/// morsel, so a consumer that stops pulling ends the scan at the next
/// morsel boundary. Above, a round is every morsel when the
/// consumer needs every row, else enough morsels to cover its appetite
/// if each scanned row came out, doubling while it keeps pulling: the
/// rows scanned and charged depend on the thread count, never on thread
/// timing.
struct MorselRows<'it> {
    ctx: &'it EvalCtx,
    pipeline: batch::VecPipeline<'it>,
    morsels: Vec<Morsel>,
    /// The first morsel no round has run yet.
    next: usize,
    /// Morsels in the next round at `threads > 1`.
    round: usize,
    /// Rows the consumer can still use (`usize::MAX`: all of them).
    want: usize,
    /// The round's outputs by morsel; each worker fills the ones it
    /// claims. Drained buffers are kept for the next round.
    bufs: Vec<Mutex<Vec<Row>>>,
    /// The buffer being drained, and the next row in it.
    at: (usize, usize),
    /// A worker's probe memo, kept from round to round.
    memo: Option<batch::VecState>,
}

impl<'it> MorselRows<'it> {
    /// Begins `pipeline` and yields its rows over `morsels`.
    fn new(
        ctx: &'it EvalCtx,
        pipeline: batch::VecPipeline<'it>,
        morsels: Vec<Morsel>,
        want: Option<usize>,
    ) -> Self {
        pipeline.begin(ctx);
        MorselRows {
            ctx,
            pipeline,
            morsels,
            next: 0,
            round: want.map_or(usize::MAX, |w| w.div_ceil(ctx.morsel_size).max(1)),
            want: want.unwrap_or(usize::MAX),
            bufs: Vec::new(),
            at: (0, 0),
            memo: None,
        }
    }

    /// Runs the next round of morsels into `bufs`; `false` when none is
    /// left or a limit fired.
    fn refill(&mut self) -> bool {
        let ctx = self.ctx;
        let len = if ctx.threads == 1 { 1 } else { self.round };
        let tasks = self.next..self.next.saturating_add(len).min(self.morsels.len());
        if tasks.is_empty() || ctx.is_exhausted() {
            return false;
        }
        if self.bufs.len() < tasks.len() {
            self.bufs.resize_with(tasks.len(), Default::default);
        }
        let kept = Mutex::new(self.memo.take());
        let (this, want) = (&*self, self.want);
        let memo = || {
            let kept = kept.lock().expect("memo lock poisoned").take();
            kept.unwrap_or_else(|| batch::VecState::new(&this.pipeline))
        };
        let mut memos = claim_tasks(ctx, tasks.clone(), "morsel", memo, |memo, i| {
            let morsel = &this.morsels[i];
            let mut out = this.bufs[i - tasks.start].lock().expect("morsel buffer lock poisoned");
            this.pipeline.run_morsel(ctx, morsel, memo, None, &mut |row| {
                if out.len() < want {
                    out.push(row.clone());
                }
                out.len() < want
            });
            // The round's output waits in memory until it is pulled: one
            // bulk memory charge per morsel, released as it drains.
            let _ = ctx.charge_mem(out.len() as u64 * ctx.row_bytes());
        });
        self.memo = memos.pop();
        self.next = tasks.end;
        self.round = self.round.saturating_mul(2);
        self.at = (0, 0);
        true
    }
}

fn buf_of(buf: &mut Mutex<Vec<Row>>) -> &mut Vec<Row> {
    buf.get_mut().expect("morsel buffer lock poisoned")
}

impl Iterator for MorselRows<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        loop {
            let (b, i) = self.at;
            if b == self.bufs.len() {
                if !self.refill() {
                    return None;
                }
                continue;
            }
            let buf = buf_of(&mut self.bufs[b]);
            if i < buf.len() {
                self.at.1 += 1;
                self.want = self.want.saturating_sub(1);
                return Some(std::mem::take(&mut buf[i]));
            }
            // Drained: keep the allocation, return the charge.
            self.ctx.release_mem(buf.len() as u64 * self.ctx.row_bytes());
            buf.clear();
            self.at = (b + 1, 0);
        }
    }
}

impl Drop for MorselRows<'_> {
    /// Returns the charge of the buffers not drained (drained ones are
    /// empty).
    fn drop(&mut self) {
        let waiting: usize = self.bufs.iter_mut().map(|buf| buf_of(buf).len()).sum();
        self.ctx.release_mem(waiting as u64 * self.ctx.row_bytes());
    }
}

fn apply_stage<'it>(ctx: &'it EvalCtx, stage: &Stage<'it>, input: BoxIter<'it>) -> BoxIter<'it> {
    match *stage {
        Stage::Steps(steps) => {
            steps.iter().fold(input, |stream, step| eval_step(ctx, step, stream))
        }
        Stage::Filters(filters) => Box::new(input.filter(move |row| passes(ctx, filters, row))),
    }
}

// ---------------------------------------------------------------------------
// Fused consumers: top-k and parallel aggregation.
//
// When every UNION branch compiles to a `VecPipeline`, ORDER BY
// (`par_top_k`) and plain-count grouping (`par_grouped`: COUNT(*) and
// COUNT(?v), whose partial counts sum) run inside the morsel workers on
// the pipeline's reused row buffer, one heap or partial per worker. Other
// aggregates (COUNT(DISTINCT), MIN/MAX, whose ties keep the first value,
// and SUM/AVG, whose float addition is not associative) take the ordered
// sequential path instead.
// ---------------------------------------------------------------------------

/// What a plain count counts — `Some(None)` every row (COUNT(*)),
/// `Some(Some(v))` rows binding `?v` — or `None` for any other aggregate.
fn counted_slot(agg: &CAggregate) -> Option<Option<usize>> {
    match agg {
        CAggregate::CountAll => Some(None),
        CAggregate::Count { distinct: false, expr: CExpr::Var(slot) } => Some(Some(*slot)),
        _ => None,
    }
}

/// A multiply-rotate hasher for the fused path's internal group maps.
/// Far cheaper than the default SipHash on the short term-ID keys these
/// maps use — and safe here, because the keys are dictionary IDs minted
/// by the store, not attacker-controlled byte strings.
#[derive(Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for whatever the std Hash impls feed us that is
        // not a u64 (length prefixes, Option discriminants, ...).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }
}

type IdHashState = std::hash::BuildHasherDefault<IdHasher>;

/// [`IdHasher`]'s step: one ID word mixed into a running hash by
/// multiply-rotate.
fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26)
}

/// Group key -> one accumulator per aggregate.
type GroupMap = HashMap<Vec<Option<u64>>, Vec<Acc>, IdHashState>;

/// One worker's partial aggregation state.
#[derive(Default)]
struct GroupedPartial {
    groups: GroupMap,
    saw_rows: bool,
}

/// The fused consumers' plan: every UNION branch's pipeline, begun, and
/// their morsels as (branch, morsel) tasks in sequential order; `None`,
/// with nothing begun, when a branch streams.
#[allow(clippy::type_complexity)]
fn fused_tasks<'p>(
    ctx: &'p EvalCtx,
    sel: &'p CSelect,
    group_slot: Option<usize>,
) -> Option<(Vec<batch::VecPipeline<'p>>, Vec<(usize, Morsel)>)> {
    let (mut pipelines, mut tasks) = (Vec::new(), Vec::new());
    for branch in branches(ctx, sel, group_slot) {
        let Branch::Pipe(morsels, pipeline) = branch else { return None };
        tasks.extend(morsels.into_iter().map(|m| (pipelines.len(), m)));
        pipelines.push(pipeline);
    }
    pipelines.iter().for_each(|p| p.begin(ctx));
    Some((pipelines, tasks))
}

/// ORDER BY … LIMIT inside the morsel loop: each worker offers its
/// morsels' rows to its own [`TopK`] straight from the pipeline, so only
/// survivors are materialised and no morsel's rows wait in memory. A row
/// arrives as (task, row in morsel), its sequential position. `None` when
/// a UNION branch does not compile to a pipeline.
fn par_top_k<'a>(ctx: &'a EvalCtx, sel: &'a CSelect, k: usize) -> Option<Vec<TopK<'a>>> {
    let (pipelines, tasks) = fused_tasks(ctx, sel, None)?;
    let init = || {
        let memos: Vec<batch::VecState> = pipelines.iter().map(batch::VecState::new).collect();
        (TopK::new(ctx, sel, k), memos)
    };
    let heaps = claim_tasks(ctx, 0..tasks.len(), "top-k morsel", init, |(heap, memos), t| {
        let (i, morsel) = &tasks[t];
        let mut n = 0;
        pipelines[*i].run_morsel(ctx, morsel, &mut memos[*i], None, &mut |row| {
            project(ctx, sel, row);
            n += 1;
            heap.offer(row, (t, n))
        });
    });
    Some(heaps.into_iter().map(|(heap, _)| heap).collect())
}

/// Runs the fused aggregation — grouping inside the morsel loop, one
/// partial per worker — or `None` when an aggregate is not a plain count
/// or a UNION branch does not compile to a pipeline.
fn par_grouped(ctx: &EvalCtx, sel: &CSelect) -> Option<GroupedPartial> {
    let counted: Vec<Option<usize>> = sel.aggregates.iter().map(counted_slot).collect::<Option<_>>()?;
    let group_slot = if let [slot] = sel.group_slots[..] { Some(slot) } else { None };
    let (pipelines, tasks) = fused_tasks(ctx, sel, group_slot)?;
    // Each pipeline's per-row increments are static: every row binds a
    // counted slot (and counts) or none does. Rows carry only the keys.
    let incs: Vec<Vec<u64>> = pipelines
        .iter()
        .map(|p| counted.iter().map(|s| u64::from(s.is_none_or(|s| p.binds(s)))).collect())
        .collect();
    let partials: Vec<GroupedPartial> = claim_tasks(
        ctx,
        0..tasks.len(),
        "agg morsel",
        || {
            let memos: Vec<batch::VecState> = pipelines.iter().map(batch::VecState::new).collect();
            (RunSink::default(), memos)
        },
        |(sink, memos), t| {
            let (i, morsel) = &tasks[t];
            let keys = Some(&sel.group_slots[..]);
            pipelines[*i].run_morsel(ctx, morsel, &mut memos[*i], keys, &mut |row| {
                sink.push_counts(ctx, sel, row, &incs[*i]);
                true
            });
        },
    )
    .into_iter()
    .map(|(sink, _)| sink.finish(ctx, sel))
    .collect();
    let settle_started = ctx.trace().map(|t| t.now_nanos());
    let workers = partials.len();
    let mut partials = partials.into_iter();
    let mut merged = partials.next().unwrap_or_default();
    for part in partials {
        merge_partial(&mut merged, part);
    }
    if let (Some(t), Some(started)) = (ctx.trace(), settle_started) {
        t.record("settle", format!("{workers} partials"), 0, started);
    }
    Some(merged)
}

/// A worker's group accumulator with run-length batching: consecutive
/// rows with the same group key update a local accumulator vector and the
/// hash map is only touched when the key changes. Index-ordered inputs
/// (e.g. grouping by the driving scan's sort column) aggregate with one
/// map operation per *group*; random key orders degrade to one map
/// operation per row, no worse than a plain entry-per-row loop.
#[derive(Default)]
struct RunSink {
    part: GroupedPartial,
    key: Vec<Option<u64>>,
    accs: Vec<Acc>,
    active: bool,
}

impl RunSink {
    /// Counts one row of the pipeline's reused row buffer, its group keys
    /// filled in, by static per-row increments (plain counts only —
    /// enforced by [`counted_slot`]).
    fn push_counts(&mut self, ctx: &EvalCtx, sel: &CSelect, row: &Row, incs: &[u64]) {
        self.part.saw_rows = true;
        let key = sel.group_slots.iter().map(|&s| row[s]);
        if !self.active || !key.clone().eq(self.key.iter().copied()) {
            self.flush(ctx, sel);
            self.key.clear();
            self.key.extend(key);
            self.accs.clear();
            self.accs.extend(sel.aggregates.iter().map(Acc::new));
            self.active = true;
        }
        for (acc, inc) in self.accs.iter_mut().zip(incs) {
            match acc {
                Acc::CountAll(n) | Acc::Count(n) => *n += *inc,
                _ => unreachable!("columnar counts over a non-count accumulator"),
            }
        }
    }

    /// Merges the current run into the group map.
    fn flush(&mut self, ctx: &EvalCtx, sel: &CSelect) {
        if !self.active {
            return;
        }
        if let Some(accs) = self.part.groups.get_mut(self.key.as_slice()) {
            for (a, b) in accs.iter_mut().zip(self.accs.iter_mut()) {
                merge_acc(a, std::mem::replace(b, Acc::CountAll(0)));
            }
        } else {
            self.part
                .groups
                .insert(self.key.clone(), std::mem::take(&mut self.accs));
            // A fresh partial group is retained state on this worker;
            // failure is sticky and stops the worker's morsel loop.
            let _ = ctx.charge_mem(group_mem_bytes(sel));
        }
        self.active = false;
    }

    fn finish(mut self, ctx: &EvalCtx, sel: &CSelect) -> GroupedPartial {
        self.flush(ctx, sel);
        self.part
    }
}

fn merge_partial(into: &mut GroupedPartial, from: GroupedPartial) {
    into.saw_rows |= from.saw_rows;
    for (key, accs) in from.groups {
        match into.groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                for (a, b) in entry.get_mut().iter_mut().zip(accs) {
                    merge_acc(a, b);
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(accs);
            }
        }
    }
}

/// Merges two partial accumulators for the same group. Only plain counts
/// reach here (enforced by [`counted_slot`]).
fn merge_acc(a: &mut Acc, b: Acc) {
    match (a, b) {
        (Acc::CountAll(x), Acc::CountAll(y)) | (Acc::Count(x), Acc::Count(y)) => *x += y,
        _ => unreachable!("merging non-mergeable accumulators"),
    }
}
