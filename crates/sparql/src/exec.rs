//! The streaming query executor.
//!
//! Solutions are rows of `Option<u64>` term IDs indexed by binding slot.
//! IDs with [`COMPUTED_BIT`] set refer to query-computed terms (aggregate
//! results, `CONCAT` outputs, ...) held in a query-local side table; a
//! computed term that also exists in the store dictionary is given its
//! store ID instead, so joins and grouping treat value-equal terms as
//! equal regardless of where they came from.
//!
//! One result tail serves every form. The producer pushes rows into it,
//! and it returns `false` to stop them; at one thread a pipelined row goes
//! from the pipeline's row buffer to its decoded solution without a copy.
//! Its only blocking stage, ORDER BY, keeps the best `offset + limit` rows
//! in bounded heaps.

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
/// relations a query names. A result tail that stops taking rows (`LIMIT
/// k` without ORDER BY or grouping, at its `k`-th row or `k`-th fresh
/// DISTINCT key; `ASK` at its first solution) ends the scans beneath it:
/// the row budget is charged for the rows scanned up to that point — whole
/// morsels of the driving scan, so up to `morsel_size` rows past the last
/// one used at `threads == 1` and one round of morsels past it above — and
/// the memory budget for the state retained at any one time (the result
/// rows kept, the DISTINCT set, an ORDER BY's kept rows, hash builds, and
/// above one thread one round of morsel output).
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
        ExecLimits {
            max_rows: Some(max_rows),
            ..ExecLimits::default()
        }
    }

    /// A deadline `timeout` from now.
    pub fn timeout(timeout: std::time::Duration) -> ExecLimits {
        ExecLimits {
            deadline: Some(Instant::now() + timeout),
            ..ExecLimits::default()
        }
    }

    /// A memory budget only.
    pub fn memory(bytes: u64) -> ExecLimits {
        ExecLimits {
            max_memory: Some(bytes),
            ..ExecLimits::default()
        }
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
        ExecObserver {
            trace,
            ..ExecObserver::default()
        }
    }

    /// Peak estimated bytes of retained intermediate state seen by
    /// [`EvalCtx::charge_mem`] and `EvalCtx::try_charge_mem` (tracked
    /// even without a memory budget).
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
mod group_table;
mod join_table;

use group_table::{key_word, slot_value, GroupKeys};
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
        ExecOptions {
            threads: n,
            ..ExecOptions::default()
        }
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
    /// [`EvalCtx::intern_value`]'s integers: a count seen before builds
    /// no literal and probes no dictionary.
    ints: HashMap<i64, u64, IdHashState>,
}

impl EvalCtx {
    /// A context for one execution of `compiled` against `view`. Defaults
    /// to sequential execution; use [`Self::with_options`] to enable
    /// parallelism.
    fn for_query(view: &DatasetView, compiled: &CompiledQuery) -> Self {
        EvalCtx {
            view: view.clone(),
            vars: compiled.vars.clone(),
            exists: compiled.exists.clone(),
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
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
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

    /// Charges `bytes` only if they fit the memory budget, and leaves the
    /// query running either way: for state that speeds an operator up
    /// but that it can do without. Returns whether the bytes were charged.
    pub(crate) fn try_charge_mem(&self, bytes: u64) -> bool {
        let Some(max) = self.limits.max_memory else {
            return self.charge_mem(bytes);
        };
        if self.exhausted_flag.load(Ordering::Relaxed) {
            return false;
        }
        let fits = |total: u64| total.checked_add(bytes).filter(|&t| t <= max);
        let Ok(before) = self
            .mem_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fits)
        else {
            return false;
        };
        if let Some(obs) = &self.observer {
            obs.note_mem(before + bytes);
        }
        true
    }

    /// Returns `bytes` of previously charged intermediate state to the
    /// memory budget — used by operators whose buffers are transient
    /// (column batches are freed at morsel boundaries, unlike hash builds
    /// that live for the whole query).
    pub fn release_mem(&self, bytes: u64) {
        if self.limits.max_memory.is_some() || self.observer.is_some() {
            self.mem_bytes.fetch_sub(
                bytes.min(self.mem_bytes.load(Ordering::Relaxed)),
                Ordering::Relaxed,
            );
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

    /// Interns a runtime value. Integers are memoised for the execution.
    pub fn intern_value(&self, value: Value) -> u64 {
        let Value::Int(i) = value else {
            return self.intern_term(&value.into_term());
        };
        if let Some(&id) = self.computed.read().unwrap().ints.get(&i) {
            return id;
        }
        let id = self.intern_term(&value.into_term());
        self.computed.write().unwrap().ints.insert(i, id);
        id
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
        self.shared
            .rows
            .lock()
            .unwrap()
            .entry(key)
            .or_default()
            .clone()
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
        self.row
            .get(slot)
            .copied()
            .flatten()
            .and_then(|id| self.ctx.resolve(id))
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
        let input: Box<dyn Iterator<Item = Row>> = Box::new(std::iter::once(self.row.clone()));
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
/// morsels, no vectorized pipeline, no per-worker heaps or partials.
/// Returns the per-step tallies too, so tally parity has a reference as
/// well. A separate entry point rather than an option: nothing caches or
/// keys on it.
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
    let tallies = profile
        .tallies
        .lock()
        .expect("profile state poisoned")
        .clone();
    Ok((
        results,
        ExecProfile {
            tallies,
            wall_nanos: start.elapsed().as_nanos() as u64,
        },
    ))
}

fn execute_with_ctx(ctx: &EvalCtx, compiled: &CompiledQuery) -> Result<QueryResults, SparqlError> {
    match &compiled.form {
        CForm::Select(sel) => Ok(QueryResults::Solutions(select_solutions(ctx, sel)?)),
        CForm::Ask(sel) => {
            // The first solution answers: `false` stops the producer there.
            let mut answer = false;
            produce_ordered(ctx, sel, &mut |_| {
                answer = true;
                false
            });
            ctx.abort_error()
                .map_or(Ok(QueryResults::Boolean(answer)), Err)
        }
        CForm::Construct(templates, sel) => {
            let solutions = select_solutions(ctx, sel)?;
            let mut quads = crate::update::instantiate(templates, &solutions);
            quads.sort();
            quads.dedup();
            Ok(QueryResults::Graph(quads))
        }
    }
}

/// A top-level SELECT's solutions: the tail's sink decodes each result
/// row's projected slots to terms as it arrives. The "emit" span of a
/// traced query covers the tail, decoding included.
fn select_solutions(
    ctx: &EvalCtx,
    sel: &CSelect,
) -> Result<crate::results::Solutions, SparqlError> {
    let emit_started = ctx.trace().map(|t| t.now_nanos());
    let slots = sel.projected_slots();
    let vars: Vec<String> = slots
        .iter()
        .map(|&s| ctx.vars.name(s).to_string())
        .collect();
    let mut rows: Vec<Vec<Option<Term>>> = Vec::new();
    run_tail(ctx, sel, true, &mut |row| {
        rows.push(
            slots
                .iter()
                .map(|&s| row[s].and_then(|id| ctx.resolve(id)))
                .collect(),
        );
        true
    })?;
    if let (Some(t), Some(started)) = (ctx.trace(), emit_started) {
        t.record("emit", format!("{} rows", rows.len()), 0, started);
    }
    Ok(crate::results::Solutions { vars, rows })
}

/// Rows a tail without ORDER BY or grouping can use, `offset + limit`:
/// [`drive`] sizes its first round of morsels to cover them.
fn wanted(sel: &CSelect) -> Option<usize> {
    let unsorted = sel.order_by.is_empty() && !sel.is_grouped();
    sel.limit
        .filter(|_| unsorted)
        .map(|limit| limit.saturating_add(sel.offset.unwrap_or(0)))
}

/// Rows the result tail can use before it stops taking them: [`wanted`]
/// when nothing between the producer and the slice drops rows; `None`
/// when every row is needed.
pub(crate) fn appetite(sel: &CSelect) -> Option<usize> {
    wanted(sel).filter(|_| !sel.distinct)
}

/// The rows an ORDER BY keeps: `offset + limit` under a LIMIT without
/// DISTINCT (duplicates would take heap places); `None` keeps them all.
pub(crate) fn top_k(sel: &CSelect) -> Option<usize> {
    sel.limit
        .filter(|_| !sel.distinct)
        .map(|limit| limit.saturating_add(sel.offset.unwrap_or(0)))
}

/// Evaluates a SELECT into full-width rows with only the projected slots
/// set: a sub-select's rows, through the same tail as every other form.
pub fn exec_select(ctx: &EvalCtx, sel: &CSelect) -> Result<Vec<Row>, SparqlError> {
    let slots = sel.projected_slots();
    let mut rows = Vec::new();
    run_tail(ctx, sel, true, &mut |row| {
        let mut narrowed = ctx.empty_row();
        for &s in &slots {
            narrowed[s] = row[s];
        }
        rows.push(narrowed);
        true
    })?;
    Ok(rows)
}

/// Pushes a root sub-select's rows into `push` as its tail yields them,
/// until `push` returns `false`, and says whether it still takes rows.
/// The seed row binds nothing, so joining the sub-select's rows to it
/// would only copy them: each is narrowed to the projected slots in one
/// reused row instead, as [`exec_select`] narrows it, and none is kept, so
/// none is charged. A limit hit inside the sub-select has been recorded;
/// the outer tail reports it.
fn pass_through(
    ctx: &EvalCtx,
    sel: &CSelect,
    push: &mut (dyn FnMut(&mut Row) -> bool + Send),
) -> bool {
    let slots = sel.projected_slots();
    let mut row = ctx.empty_row();
    let mut more = true;
    let _ = run_tail(ctx, sel, false, &mut |out| {
        for &s in &slots {
            row[s] = out[s];
        }
        more = push(&mut row);
        more
    });
    more
}

/// A consumer of pushed rows: `false` stops the rows feeding it.
type Emit<'e> = dyn FnMut(&mut Row) -> bool + Send + 'e;

/// Runs a SELECT's result tail into `sink` until it returns `false`.
/// Rows are pushed through one closure chain — projection → DISTINCT →
/// OFFSET → LIMIT → sink — whose `false` stops the producer, so without
/// ORDER BY the slice ends the scan. ORDER BY is the only blocking stage,
/// and grouping folds every row before the tail takes one; group rows
/// then stream into the chain (or the ORDER BY heap) one at a time.
/// DISTINCT keys and the sink read only the projected slots. The rows a
/// sink `keeps` are retained state like any other: they are charged in
/// chunks, so a wide result stops once it exceeds the memory budget. Every
/// chunk also checks for an abort, so a limit hit anywhere below —
/// including inside a sub-select whose error was discarded — stops the
/// rows and surfaces here rather than as silently truncated results.
fn run_tail(
    ctx: &EvalCtx,
    sel: &CSelect,
    keeps: bool,
    sink: &mut (dyn FnMut(&Row) -> bool + Send),
) -> Result<(), SparqlError> {
    let slots = sel.projected_slots();
    // Keys are term IDs, as in the group maps; a duplicate allocates nothing.
    let mut seen: HashSet<Vec<Option<u64>>, IdHashState> = HashSet::default();
    let mut key = Vec::with_capacity(slots.len());
    let key_bytes = slots.len() as u64 * SLOT_BYTES + 48;
    let (mut skip, limit) = (sel.offset.unwrap_or(0), sel.limit.unwrap_or(usize::MAX));
    let chunk = MEM_CHARGE_CHUNK as usize;
    let row_bytes = if keeps { ctx.row_bytes() } else { 0 };
    let mut kept = 0usize;
    let mut take = |row: &Row| -> bool {
        if sel.distinct {
            key.clear();
            key.extend(slots.iter().map(|&s| row[s]));
            if seen.contains(&key) {
                return true;
            }
            seen.insert(key.clone());
            if !ctx.charge_mem(key_bytes) {
                return false;
            }
        }
        if skip > 0 {
            skip -= 1;
            return true;
        }
        let more = sink(row);
        kept += 1;
        let charged = !kept.is_multiple_of(chunk) || ctx.charge_mem(MEM_CHARGE_CHUNK * row_bytes);
        more && charged && kept < limit
    };
    if !sel.order_by.is_empty() {
        let rows = order_rows(ctx, sel)?;
        let _ = limit > 0 && rows.iter().all(&mut take);
    } else if sel.is_grouped() {
        for_each_group(ctx, sel, &mut |row| limit > 0 && take(row));
    } else if limit > 0 {
        produce_ordered(ctx, sel, &mut |row| {
            project(ctx, sel, row);
            take(row)
        });
    }
    let _ = ctx.charge_mem((kept % chunk) as u64 * row_bytes);
    match ctx.abort_error() {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

/// Evaluates a flat SELECT's projection expressions into their slots.
fn project(ctx: &EvalCtx, sel: &CSelect, row: &mut Row) {
    for proj in &sel.projection {
        if let Some(expr) = &proj.expr {
            row[proj.slot] = expr
                .eval(&RowEnv {
                    ctx,
                    row,
                    aggs: None,
                })
                .map(|v| ctx.intern_value(v));
        }
    }
}

/// The order stage: each row's keys are computed once and the best
/// [`top_k`] rows (all without one) kept in bounded heaps — one per morsel
/// worker over the projected rows [`produce`] pushes, or one over a
/// grouped SELECT's group rows — then sorted; ties keep sequential order,
/// so the result is a stable sort's prefix.
fn order_rows(ctx: &EvalCtx, sel: &CSelect) -> Result<Vec<Row>, SparqlError> {
    let k = top_k(sel).unwrap_or(usize::MAX);
    let heaps = if sel.is_grouped() {
        let mut heap = TopK::new(ctx, sel, k);
        let mut n = 0;
        for_each_group(ctx, sel, &mut |row| {
            n += 1;
            heap.offer(row, (0, n))
        });
        vec![heap]
    } else {
        let init = || TopK::new(ctx, sel, k);
        let consumer = Consumer::new(Some(&init), false, |heap, row, _, at, _| {
            project(ctx, sel, row);
            heap.offer(row, at)
        });
        produce(ctx, sel, &consumer, Vec::new())
    };
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

/// Evaluates one ORDER BY key of a row. A variable bound to a store term
/// borrows its key from the pinned dictionary; computed terms and
/// expression keys own theirs.
fn sort_key<'a>(ctx: &'a EvalCtx, row: &Row, (expr, desc): &(CExpr, bool)) -> Directed<'a> {
    let key = match *expr {
        CExpr::Var(s) if row[s].is_some_and(|id| id & COMPUTED_BIT == 0) => {
            let term = row[s].and_then(|id| ctx.view.term(TermId(id)));
            term.map_or(SortKey::Unbound, SortKey::of_term)
        }
        _ => expr
            .eval(&RowEnv {
                ctx,
                row,
                aggs: None,
            })
            .map_or(SortKey::Unbound, |v| SortKey::of(&v).into_owned()),
    };
    if *desc {
        Directed::Desc(cmp::Reverse(key))
    } else {
        Directed::Asc(key)
    }
}

/// The `k` best rows offered so far, worst on top. Once the heap is full,
/// a row's first key alone drops it when that key sorts strictly after
/// the worst row's, before its other keys are evaluated; a row that ties
/// there is compared on all its keys, then on arrival. One that beats
/// the worst row takes its place and buffers. Entries are charged to the
/// memory budget in chunks as they are added, like the rows a result sink
/// keeps ([`run_tail`]).
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
        TopK {
            ctx,
            sel,
            k: k.max(1),
            heap: BinaryHeap::new(),
            keys: Vec::new(),
            entry_bytes,
        }
    }

    /// Offers the `seq`-th row to arrive (arrivals only grow, so a tie
    /// loses to the row kept); `false` once a memory charge fails.
    fn offer(&mut self, row: &Row, seq: (usize, usize)) -> bool {
        let (ctx, order_by) = (self.ctx, &self.sel.order_by);
        let first = sort_key(ctx, row, &order_by[0]);
        let full = self.heap.len() == self.k;
        if full && self.heap.peek().is_some_and(|worst| first > worst.keys[0]) {
            return true;
        }
        self.keys.clear();
        self.keys.push(first);
        let rest = order_by[1..].iter().map(|key| sort_key(ctx, row, key));
        self.keys.extend(rest);
        if !full {
            let keys = std::mem::take(&mut self.keys);
            self.heap.push(Ranked {
                keys,
                seq,
                row: row.clone(),
            });
            let whole = (self.heap.len() as u64).is_multiple_of(MEM_CHARGE_CHUNK);
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

enum Acc {
    CountAll(u64),
    Count(u64),
    CountDistinct(HashSet<u64>),
    Sum {
        int: i64,
        float: f64,
        any_float: bool,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: u64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(agg: &CAggregate) -> Acc {
        match agg {
            CAggregate::CountAll => Acc::CountAll(0),
            CAggregate::Count { distinct: true, .. } => Acc::CountDistinct(HashSet::new()),
            CAggregate::Count { .. } => Acc::Count(0),
            CAggregate::Sum(_) => Acc::Sum {
                int: 0,
                float: 0.0,
                any_float: false,
                seen: false,
            },
            CAggregate::Avg(_) => Acc::Avg { sum: 0.0, n: 0 },
            CAggregate::Min(_) => Acc::Min(None),
            CAggregate::Max(_) => Acc::Max(None),
        }
    }

    fn update(&mut self, ctx: &EvalCtx, agg: &CAggregate, row: &Row) {
        let eval = |expr: &CExpr| {
            let env = RowEnv {
                ctx,
                row,
                aggs: None,
            };
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
            (
                Acc::Sum {
                    int,
                    float,
                    any_float,
                    seen,
                },
                CAggregate::Sum(expr),
            ) => {
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
            Acc::Sum {
                int,
                float,
                any_float,
                seen,
            } => {
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

/// Pushes a grouped SELECT's group rows into `emit` until it returns
/// `false`: plain counts from merged per-worker partials
/// ([`par_grouped`]), any other aggregate — and every aggregate under
/// [`execute_reference`] — from the sequential fold.
fn for_each_group(ctx: &EvalCtx, sel: &CSelect, emit: &mut dyn FnMut(&Row) -> bool) {
    if ctx.reference || !par_grouped(ctx, sel, emit) {
        group_and_aggregate(ctx, sel, emit)
    }
}

/// Estimated retained bytes for one group-by partial: the key vector plus
/// one accumulator per aggregate (distinct-sets grow beyond this and
/// charge separately per element).
fn group_mem_bytes(sel: &CSelect) -> u64 {
    48 + sel.group_slots.len() as u64 * SLOT_BYTES + sel.aggregates.len() as u64 * 48
}

/// Retained bytes of one [`CountPartial`] group: 8 per key word and per
/// count, 16 for its first position, and 8 for its chain link and its
/// share of the chain heads.
fn count_group_bytes(sel: &CSelect) -> u64 {
    (sel.group_slots.len() + sel.aggregates.len()) as u64 * 8 + 24
}

/// Groups the rows [`produce`] pushes, in their sequential order, and
/// pushes the group rows into `emit` in the order the groups first
/// appeared.
fn group_and_aggregate(ctx: &EvalCtx, sel: &CSelect, emit: &mut dyn FnMut(&Row) -> bool) {
    let n = sel.aggregates.len();
    let mut groups = GroupKeys::new(sel.group_slots.len());
    let mut accs: Vec<Acc> = Vec::new();
    let mut key = Vec::with_capacity(sel.group_slots.len());
    let group_bytes = group_mem_bytes(sel);
    let mut saw_rows = false;
    produce_ordered(ctx, sel, &mut |row| {
        saw_rows = true;
        key.clear();
        key.extend(sel.group_slots.iter().map(|&s| key_word(row[s])));
        let (g, fresh) = groups.insert(&key);
        if fresh {
            accs.extend(sel.aggregates.iter().map(Acc::new));
        }
        for (acc, agg) in accs[g * n..][..n].iter_mut().zip(&sel.aggregates) {
            acc.update(ctx, agg, row);
        }
        // Group-by partials are retained state: each fresh group charges
        // the memory budget, and an exceeded budget stops consuming input.
        !fresh || ctx.charge_mem(group_bytes)
    });
    // SPARQL: aggregation without GROUP BY over zero rows yields one group.
    if !saw_rows && sel.group_slots.is_empty() {
        groups.insert(&[]);
        accs.extend(sel.aggregates.iter().map(Acc::new));
    }
    let mut rows = GroupRows::new(ctx, sel);
    let mut accs = accs.into_iter();
    for g in 0..groups.len() {
        let values = accs
            .by_ref()
            .take(n)
            .map(|a| a.finish().unwrap_or(Value::Int(0)));
        rows.values.clear();
        rows.values.extend(values);
        if !rows.emit(groups.key(g), emit) {
            break;
        }
    }
}

/// Turns groups into output rows one at a time, in one reused row: the
/// group keys, the projection expressions and hidden ORDER BY columns
/// over the group's aggregate values, then HAVING.
struct GroupRows<'a> {
    ctx: &'a EvalCtx,
    sel: &'a CSelect,
    row: Row,
    /// The group's aggregate values, in `sel.aggregates` order.
    values: Vec<Value>,
}

impl<'a> GroupRows<'a> {
    fn new(ctx: &'a EvalCtx, sel: &'a CSelect) -> Self {
        GroupRows {
            ctx,
            sel,
            row: ctx.empty_row(),
            values: Vec::with_capacity(sel.aggregates.len()),
        }
    }

    /// Pushes the row of the group keyed `key`, whose aggregates are
    /// [`Self::values`], into `emit` unless HAVING drops it. `false` once
    /// `emit` stops taking rows or a deadline or cancel lands.
    fn emit(&mut self, key: &[u64], emit: &mut dyn FnMut(&Row) -> bool) -> bool {
        let (ctx, sel) = (self.ctx, self.sel);
        // Finalization charges no rows; tick so a deadline or cancel
        // lands inside a huge group sweep too.
        if !ctx.tick(1) {
            return false;
        }
        for (&slot, &word) in sel.group_slots.iter().zip(key) {
            self.row[slot] = slot_value(word);
        }
        let computed = sel.projection.iter().chain(&sel.hidden);
        for proj in computed.clone().filter(|p| p.expr.is_some()) {
            self.row[proj.slot] = None;
        }
        for proj in computed {
            if let Some(expr) = &proj.expr {
                let env = RowEnv {
                    ctx,
                    row: &self.row,
                    aggs: Some(&self.values),
                };
                self.row[proj.slot] = expr.eval(&env).map(|v| ctx.intern_value(v));
            }
        }
        // HAVING: post-aggregation filter (projection aliases like the
        // `?n` of `HAVING (?n > 1)` are in scope by now).
        let keep = sel.having.iter().all(|h| {
            let env = RowEnv {
                ctx,
                row: &self.row,
                aggs: Some(&self.values),
            };
            h.eval_filter(&env)
        });
        !keep || emit(&self.row)
    }
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
                    if extend_pos(&mut new_row, &pstep.s, s)
                        && extend_pos(&mut new_row, &pstep.o, o)
                    {
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
        Node::Filter(filters, _, inner) => {
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
                ctx.exhaust(format!(
                    "a sub-select joins more than {} rows",
                    join_table::MAX_ROWS
                ));
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
                    let env = RowEnv {
                        ctx,
                        row: &row,
                        aggs: None,
                    };
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
        // Proven empty. Planning replaces this node, so only a tree run
        // before planning gets here.
        Node::Unsatisfiable(_) => Box::new(std::iter::empty()),
    }
}

/// Whether a row satisfies every conjunct of a FILTER.
fn passes(ctx: &EvalCtx, filters: &[CExpr], row: &Row) -> bool {
    filters.iter().all(|f| {
        f.eval_filter(&RowEnv {
            ctx,
            row,
            aggs: None,
        })
    })
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
        Some(p) => Box::new(ProfileLoops {
            inner: input,
            profile: Arc::clone(p),
            key,
            loops: 0,
        }),
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
        Strategy::IndexNlj | Strategy::Intersect { .. } | Strategy::Merge { .. } => Box::new(
            input
                .flat_map(move |row| probe_rows(ctx, step, row).take_while(move |_| ctx.charge(1))),
        ),
        // The build side is materialised on the first row with a bound key
        // — at most once per execution, shared across every worker and
        // re-evaluation of the step — then probed per input row. A row's
        // matches are charged before any is yielded; a failed charge ends
        // the step.
        Strategy::HashJoin { join_slots } => {
            let cell = ctx.build_cell(step);
            let mut key = Vec::with_capacity(join_slots.len());
            let rows = input.map_while(move |row| {
                // Join keys are usually bound — but OPTIONAL/VALUES can
                // leave a planned-bound slot UNDEF at runtime. A row with a
                // computed ID in a join slot can never match stored quads; a
                // row with an unbound slot falls back to the index probe.
                let computed = |s: &usize| matches!(row[*s], Some(id) if id & COMPUTED_BIT != 0);
                if join_slots.iter().any(computed) {
                    return Some(Vec::new());
                }
                if join_slots.iter().any(|&s| row[s].is_none()) {
                    return charge_all(ctx, probe_rows(ctx, step, row));
                }
                key.clear();
                key.extend(join_slots.iter().map(|&s| row[s].expect("checked above")));
                let table = cell.get_or_init(|| build_table(ctx, step, join_slots));
                let found = table
                    .get(&key)
                    .filter_map(|q| extend_row(&row, &step.triple, q));
                charge_all(ctx, found)
            });
            Box::new(rows.flatten())
        }
    }
}

/// The rows `step`'s pattern extends `row` to, one per matching quad, in
/// scan order (none when the row binds a position to an ID no quad holds).
fn probe_rows<'it>(
    ctx: &'it EvalCtx,
    step: &'it Step,
    row: Row,
) -> impl Iterator<Item = Row> + 'it {
    let scan = probe_pattern(&row, &step.triple).map(|pattern| ctx.view.scan(pattern));
    scan.into_iter()
        .flatten()
        .filter_map(move |quad| extend_row(&row, &step.triple, &quad))
}

/// Charges each of `rows`, collecting them: `None` once a charge fails.
fn charge_all(ctx: &EvalCtx, rows: impl Iterator<Item = Row>) -> Option<Vec<Row>> {
    rows.map(|row| ctx.charge(1).then_some(row)).collect()
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
        if rows.is_multiple_of(MEM_CHARGE_CHUNK)
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
// counter and run each morsel through the pipeline as one column batch.
// An ordered consumer gets the outputs in morsel order, which reproduces
// the sequential row order exactly, because step chains and FILTERs are
// "order-local": their output order depends only on their input order. A
// merging consumer takes them into each worker's own state, every row
// tagged with its sequential position. Every other plan streams through
// `eval_node` on the calling thread. `produce` → `drive` is the one loop
// that runs a root's rows, whatever consumes them.
// ---------------------------------------------------------------------------

/// Splits a root into its UNION branches in sequential order, each as its
/// innermost non-FILTER node and every FILTER wrapped around it (those
/// above the UNIONs too), innermost first. Every input row flows through
/// every branch exactly once, so the branches' outputs concatenated are
/// the root's rows, in its order.
fn union_branches<'p>(node: &'p Node, outer: &[&'p [CExpr]]) -> Vec<(&'p Node, Vec<&'p [CExpr]>)> {
    let mut filters = Vec::new();
    let mut cur = node;
    while let Node::Filter(f, _, inner) = cur {
        filters.push(f.as_slice());
        cur = inner;
    }
    filters.reverse();
    filters.extend_from_slice(outer);
    match cur {
        Node::Union(a, b) => {
            let mut out = union_branches(a, &filters);
            out.extend(union_branches(b, &filters));
            out
        }
        _ => vec![(cur, filters)],
    }
}

/// Where [`produce`] hands the root's rows: each row, with its weight (1
/// outside count mode) and its sequential position `(task, row)`, is
/// pushed into a state, and `false` stops the rows. An *ordered* consumer
/// (`init` is `None`) has one state, handed to [`produce`], which sees
/// every row in sequential order on the calling thread: the result tail,
/// ASK and the general GROUP BY fold. A *merging* consumer gets a state
/// per worker from `init`, fed straight from the pipeline's row buffer,
/// and merges the states [`produce`] returns: the ORDER BY heaps, whose
/// ties break by position, and the plain-count partials. A pushed row also
/// names its branch's pipeline (`None` for a streamed row), which knows
/// statically what its rows bind.
struct Consumer<'c, S, P> {
    init: Option<&'c (dyn Fn() -> S + Sync)>,
    push: P,
    /// Count mode: the consumer reads the group keys only and counts rows
    /// by their weights, so its pipelines carry weights (see
    /// `exec/batch.rs`) and drive from an index sorted on a lone group key.
    count: bool,
}

/// A consumer's push of a row, its weight, its position and its pipeline:
/// a type parameter rather than a trait object, so that each consumer's
/// push compiles into the morsel loop.
trait Push<S>:
    Fn(&mut S, &mut Row, u64, (usize, usize), Option<&batch::VecPipeline>) -> bool + Sync
{
}

impl<S, F> Push<S> for F where
    F: Fn(&mut S, &mut Row, u64, (usize, usize), Option<&batch::VecPipeline>) -> bool + Sync
{
}

impl<'c, S, P: Push<S>> Consumer<'c, S, P> {
    /// A consumer; a function, so that `push`'s signature is inferred.
    fn new(init: Option<&'c (dyn Fn() -> S + Sync)>, count: bool, push: P) -> Self {
        Consumer { init, push, count }
    }
}

/// Pushes the root's rows to `emit` in sequential order until it returns
/// `false`.
fn produce_ordered(ctx: &EvalCtx, sel: &CSelect, emit: &mut Emit<'_>) {
    let consumer = Consumer::new(None, false, |emit: &mut &mut Emit<'_>, row, _, _, _| {
        emit(row)
    });
    produce(ctx, sel, &consumer, vec![emit]);
}

/// Pushes the root's solution rows into `consumer`'s `states` (an ordered
/// consumer's one state), branch by UNION branch in sequential order until
/// a push returns `false`, and returns the states. Each branch is compiled
/// here, once: a pipeline runs through [`drive`]; any other branch, and the
/// whole root under [`execute_reference`], streams on the calling thread
/// into one state: through [`eval_node`] from one empty seed row, or, for
/// a sub-select, straight from its tail ([`pass_through`]). A branch's
/// rows take the task positions after the earlier branches': one per
/// morsel, one for a streamed branch.
fn produce<S: Send, P: Push<S>>(
    ctx: &EvalCtx,
    sel: &CSelect,
    consumer: &Consumer<'_, S, P>,
    mut states: Vec<S>,
) -> Vec<S> {
    let count = consumer.count;
    let needed = batch::needed_slots(ctx, sel, count);
    let group_slot = match sel.group_slots[..] {
        [slot] if count => Some(slot),
        _ => None,
    };
    let roots = if ctx.reference {
        vec![(&sel.root, Vec::new())]
    } else {
        union_branches(&sel.root, &[])
    };
    let mut task = 0;
    for (node, filters) in roots {
        let pipeline = (!ctx.reference)
            .then(|| batch::VecPipeline::compile(ctx, node, &filters, &needed, group_slot, count))
            .flatten();
        let more = match pipeline {
            Some(pipeline) => drive(ctx, sel, &pipeline, consumer, &mut states, &mut task),
            None => {
                let mut state = states
                    .pop()
                    .or_else(|| consumer.init.map(|init| init()))
                    .expect("an ordered consumer's state");
                let (at, mut n) = (task, 0);
                task += 1;
                let mut push = |row: &mut Row| {
                    if !filters.iter().all(|f| passes(ctx, f, row)) {
                        return true;
                    }
                    n += 1;
                    (consumer.push)(&mut state, row, 1, (at, n), None)
                };
                let more = match node {
                    Node::SubSelect(inner) if !ctx.reference => pass_through(ctx, inner, &mut push),
                    _ => {
                        let seed: BoxIter = Box::new(std::iter::once(ctx.empty_row()));
                        eval_node(ctx, node, seed).all(|mut row| push(&mut row))
                    }
                };
                states.push(state);
                more
            }
        };
        if !more {
            break;
        }
    }
    states
}

/// Runs the morsel tasks `tasks` across the context's workers — the one
/// place the morsel-claim policy lives. Each worker builds its own state
/// with `init`, claims task indexes from a shared counter until they run
/// out or a limit fires, and hands the state back; a single worker runs
/// on the calling thread.
fn claim_tasks<S: Send>(
    ctx: &EvalCtx,
    tasks: std::ops::Range<usize>,
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
                t.record("drive", format!("morsel {i}"), tid, started);
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

/// Pushes one pipelined UNION branch's rows into `consumer`'s `states`,
/// its morsels taking the tasks from `task` on, and says whether the
/// consumer still takes rows. A tail that wants `k` rows (a LIMIT, an
/// ASK's one) gets morsels from `k` keys up, doubling, so a dense match
/// scans about `k` rows as the row evaluator does. A merging consumer's
/// workers run every morsel in one round, each pushing straight into its
/// own state. An ordered consumer's one state sees the rows in morsel
/// order — the sequential row order, see above. At `threads == 1` each
/// morsel runs on the calling thread straight into it: no row is copied,
/// and a tail that stops ends the scan inside that morsel. Above, a
/// *round* of morsels runs across the workers into per-morsel buffers,
/// which the calling thread then pushes in order. A round is every morsel
/// when the tail needs every row, else enough morsels to cover its
/// [`wanted`] rows if each scanned row came out, doubling while it keeps
/// taking; a plain tail's buffers keep no more rows than it can still use
/// ([`appetite`]), a DISTINCT's keep whole morsels. The rows scanned and
/// charged depend on the thread count, never on thread timing.
fn drive<S: Send, P: Push<S>>(
    ctx: &EvalCtx,
    sel: &CSelect,
    pipeline: &batch::VecPipeline<'_>,
    consumer: &Consumer<'_, S, P>,
    states: &mut Vec<S>,
    task: &mut usize,
) -> bool {
    let first = wanted(sel).map_or(ctx.morsel_size, |w| w.min(ctx.morsel_size));
    let morsels = pipeline.morsels(ctx, first);
    let first_task = *task;
    *task += morsels.len();
    pipeline.begin(ctx);
    let ordered = consumer.init.is_none();
    let direct = !ordered || ctx.threads == 1;
    let only = consumer.count.then_some(&sel.group_slots[..]);
    let mut want = appetite(sel).unwrap_or(usize::MAX);
    let mut round = wanted(sel)
        .filter(|_| ordered)
        .map_or(usize::MAX, |w| w.div_ceil(ctx.morsel_size).max(1));
    let (mut next, mut memo) = (0, None);
    let mut bufs: Vec<Mutex<Vec<Row>>> = Vec::new();
    let mut stopped = AtomicBool::new(false);
    let mut pool = Mutex::new(std::mem::take(states));
    while next < morsels.len() && !ctx.is_exhausted() && !*stopped.get_mut() {
        let size = if ordered && direct { 1 } else { round };
        let tasks = next..next.saturating_add(size).min(morsels.len());
        if !direct && bufs.len() < tasks.len() {
            bufs.resize_with(tasks.len(), Default::default);
        }
        // A worker's probe memo is kept from round to round. A worker that
        // pushes straight in takes a state from the pool, or a fresh one.
        let kept = Mutex::new(memo.take());
        let init = || {
            let kept = kept.lock().expect("memo lock poisoned").take();
            let memo = kept.unwrap_or_else(|| batch::VecState::new(ctx, pipeline));
            if !direct {
                return (None, memo);
            }
            let pooled = pool.lock().expect("state pool poisoned").pop();
            (pooled.or_else(|| consumer.init.map(|init| init())), memo)
        };
        let done = claim_tasks(ctx, tasks.clone(), init, |(state, memo), i| {
            let Some(state) = state else {
                let mut out = bufs[i - tasks.start]
                    .lock()
                    .expect("morsel buffer lock poisoned");
                pipeline.run_morsel(ctx, &morsels[i], memo, None, &mut |row, _| {
                    if out.len() < want {
                        out.push(row.clone());
                    }
                    out.len() < want
                });
                // The round's output waits in memory until it is pushed: one
                // bulk memory charge per morsel, released once it is.
                let _ = ctx.charge_mem(out.len() as u64 * ctx.row_bytes());
                return;
            };
            let mut n = 0;
            pipeline.run_morsel(ctx, &morsels[i], memo, only, &mut |row, weight| {
                n += 1;
                let at = (first_task + i, n);
                let more = (consumer.push)(state, row, weight, at, Some(pipeline));
                if !more {
                    stopped.store(true, Ordering::Relaxed);
                }
                more
            });
        });
        for (state, kept) in done {
            pool.get_mut().expect("state pool poisoned").extend(state);
            memo = Some(kept);
        }
        let (held, stop) = (
            pool.get_mut().expect("state pool poisoned"),
            stopped.get_mut(),
        );
        for (j, buf) in bufs.iter_mut().take(tasks.len()).enumerate() {
            let buf = buf.get_mut().expect("morsel buffer lock poisoned");
            let task = first_task + tasks.start + j;
            *stop = *stop
                || !buf.iter_mut().zip(1..).all(|(row, n)| {
                    want = want.saturating_sub(1);
                    (consumer.push)(&mut held[0], row, 1, (task, n), Some(pipeline))
                });
            ctx.release_mem(buf.len() as u64 * ctx.row_bytes());
            buf.clear();
        }
        next = tasks.end;
        round = round.saturating_mul(2);
    }
    *states = pool.into_inner().expect("state pool poisoned");
    !stopped.into_inner()
}

// ---------------------------------------------------------------------------
// Merging consumers: top-k heaps and plain-count partials.
//
// ORDER BY keeps a `TopK` heap per worker, and plain-count grouping
// (COUNT(*) and COUNT(?v), whose partial counts sum) a `CountPartial` per
// worker: flat keys and counts, no allocation per group. `drive` pushes
// into them straight from the pipeline's reused row buffer, a streamed
// branch into one on the calling thread. Plain-count grouping runs in
// count mode: rows carry weights, so a join whose output no one reads is
// counted, not enumerated, and a batch pushes one row per run of equal
// group keys, weighted by the run (see `exec/batch.rs`). Other
// aggregates (COUNT(DISTINCT), MIN/MAX, whose ties keep the first value,
// and SUM/AVG, whose float addition is not associative) take the ordered
// sequential fold instead.
// ---------------------------------------------------------------------------

/// What a plain count counts — `Some(None)` every row (COUNT(*)),
/// `Some(Some(v))` rows binding `?v` — or `None` for any other aggregate.
fn counted_slot(agg: &CAggregate) -> Option<Option<usize>> {
    match agg {
        CAggregate::CountAll => Some(None),
        CAggregate::Count {
            distinct: false,
            expr: CExpr::Var(slot),
        } => Some(Some(*slot)),
        _ => None,
    }
}

/// A multiply-rotate hasher for the executor's internal group maps.
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
    (hash ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(26)
}

/// One worker's plain counts: its groups, numbered in arrival order, a
/// count per aggregate per group in one flat vector, and the position of
/// each group's first row, which restores sequential group order once
/// partials merge.
struct CountPartial<'a> {
    sel: &'a CSelect,
    /// What each aggregate counts ([`counted_slot`]).
    counted: &'a [Option<usize>],
    groups: GroupKeys,
    counts: Vec<u64>,
    first: Vec<(usize, usize)>,
    /// The pushed row's key words.
    key: Vec<u64>,
    saw_rows: bool,
    /// Partials merged into this one, itself included.
    merged: usize,
}

/// Runs the plain-count aggregation — one partial per worker, merged — and
/// pushes its group rows into `emit` until it returns `false`; `false`
/// when an aggregate is not a plain count, and nothing ran.
fn par_grouped(ctx: &EvalCtx, sel: &CSelect, emit: &mut dyn FnMut(&Row) -> bool) -> bool {
    let Some(counted) = sel
        .aggregates
        .iter()
        .map(counted_slot)
        .collect::<Option<Vec<_>>>()
    else {
        return false;
    };
    let init = || CountPartial::new(sel, &counted);
    let consumer = Consumer::new(Some(&init), true, |part, row, weight, at, pipeline| {
        part.push(ctx, row, pipeline, weight, at);
        true
    });
    let partials = produce(ctx, sel, &consumer, Vec::new());
    let settle_started = ctx.trace().map(|t| t.now_nanos());
    let workers = partials.len();
    let mut partials = partials.into_iter();
    let mut merged = partials.next().unwrap_or_else(init);
    for part in partials {
        merge_partial(&mut merged, &part);
    }
    if let (Some(t), Some(started)) = (ctx.trace(), settle_started) {
        t.record("settle", format!("{workers} partials"), 0, started);
    }
    merged.emit_rows(ctx, emit);
    true
}

impl<'a> CountPartial<'a> {
    fn new(sel: &'a CSelect, counted: &'a [Option<usize>]) -> Self {
        CountPartial {
            sel,
            counted,
            groups: GroupKeys::new(sel.group_slots.len()),
            counts: Vec::new(),
            first: Vec::new(),
            key: Vec::with_capacity(sel.group_slots.len()),
            saw_rows: false,
            merged: 1,
        }
    }

    /// Counts one row, its group keys filled in and pushed at position
    /// `at`, `weight` times into each plain count (enforced by
    /// [`counted_slot`]) that counts it: every row, or a row binding the
    /// counted slot. A streamed row says so itself; a pipeline's rows
    /// carry only the keys, and whether they bind a slot is static
    /// ([`batch::VecPipeline::binds`]).
    fn push(
        &mut self,
        ctx: &EvalCtx,
        row: &Row,
        pipeline: Option<&batch::VecPipeline>,
        weight: u64,
        at: (usize, usize),
    ) {
        self.saw_rows = true;
        self.key.clear();
        let keys = self.sel.group_slots.iter().map(|&s| key_word(row[s]));
        self.key.extend(keys);
        let (g, fresh) = self.groups.insert(&self.key);
        let n = self.counted.len();
        if fresh {
            self.counts.resize(self.counts.len() + n, 0);
            self.first.push(at);
            // A fresh partial group is retained state on this worker;
            // failure is sticky and stops its morsel loop.
            let _ = ctx.charge_mem(count_group_bytes(self.sel));
        }
        for (c, slot) in self.counts[g * n..][..n].iter_mut().zip(self.counted) {
            let binds = slot.is_none_or(|s| pipeline.map_or(row[s].is_some(), |p| p.binds(s)));
            *c += u64::from(binds) * weight;
        }
    }

    /// Pushes the group rows into `emit` until it returns `false`, in the
    /// order the groups' first rows arrived: a lone partial's groups
    /// already are, merged ones are sorted by first position.
    fn emit_rows(mut self, ctx: &EvalCtx, emit: &mut dyn FnMut(&Row) -> bool) {
        let n = self.counted.len();
        // SPARQL: aggregation without GROUP BY over zero rows yields one
        // group, of zero counts.
        if !self.saw_rows && self.sel.group_slots.is_empty() {
            self.groups.insert(&[]);
            self.counts.resize(n, 0);
            self.first.push((0, 0));
        }
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        if self.merged > 1 {
            order.sort_unstable_by_key(|&g| self.first[g]);
        }
        let mut rows = GroupRows::new(ctx, self.sel);
        for g in order {
            let counts = &self.counts[g * n..][..n];
            rows.values.clear();
            rows.values
                .extend(counts.iter().map(|&c| Value::Int(c as i64)));
            if !rows.emit(self.groups.key(g), emit) {
                break;
            }
        }
    }
}

/// Adds `from`'s counts into `into`, group by group.
fn merge_partial(into: &mut CountPartial, from: &CountPartial) {
    into.saw_rows |= from.saw_rows;
    into.merged += from.merged;
    let n = into.counted.len();
    for g in 0..from.groups.len() {
        let counts = &from.counts[g * n..][..n];
        match into.groups.insert(from.groups.key(g)) {
            (h, false) => {
                for (a, b) in into.counts[h * n..][..n].iter_mut().zip(counts) {
                    *a += b;
                }
                into.first[h] = into.first[h].min(from.first[g]);
            }
            (_, true) => {
                into.counts.extend_from_slice(counts);
                into.first.push(from.first[g]);
            }
        }
    }
}
