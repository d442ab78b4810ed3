//! The vectorized columnar pipeline.
//!
//! A UNION branch (steps and filters after an index scan) can run
//! batch-at-a-time over *columns* of dictionary IDs instead of materialised
//! `Row`s: the driving index scan fills one `Vec<u64>` per bound variable
//! straight from the sorted key runs, each join step turns a batch into the
//! next batch via a source-index vector (the columnar analogue of the row
//! pipeline's extend-per-match loop), and filters emit selection vectors
//! that are applied with a single gather per surviving column. Dictionary
//! materialisation is deferred: only FILTER expressions that need term
//! values (the scalar fallback) and final result emission touch the
//! dictionary; everything else moves raw IDs.
//!
//! Liveness analysis prunes dead columns: a variable that no downstream
//! operator and no output expression reads is never gathered (or even
//! extracted from the index) past its last use. Output rows carry only
//! the live slots — [`exec_select`](super::exec_select) narrows to the
//! projected slots anyway, so results are bit-identical to the row
//! pipeline's.
//!
//! In count mode (every consumer of the rows is a plain COUNT, see
//! [`par_grouped`](super::par_grouped)) only the group keys are needed,
//! and a batch carries a weight per row: the solutions the row stands for.
//! A probe, hash or intersect operator that binds no live column emits
//! each surviving input row once, its weight times its match count,
//! instead of repeating it, and a finished batch hands its consumer one
//! row per run of equal group keys, weighing the run's sum.
//!
//! Everything here mirrors the row evaluator's semantics *exactly*: the
//! same probe patterns, the same charge totals against [`ExecLimits`],
//! and the same per-step profile tallies (loops, rows) for EXPLAIN
//! ANALYZE. Plans the compiler here cannot express (computed IDs in the
//! base row, statically unbound hash-join keys, constants absent from the
//! dictionary) stream through [`eval_node`](super::eval_node) on the
//! calling thread instead: [`VecPipeline::compile`] returns `None` for
//! them.

use super::*;
use quadstore::SpanCursor;

/// Per-slot static binding state during pipeline compilation.
#[derive(Clone, Copy, PartialEq)]
enum BindState {
    /// Not bound by anything yet.
    Unbound,
    /// Bound to a constant by the base row (VALUES pin / pushdown).
    Base(u64),
    /// Bound by the driving scan or an upstream operator: has a column.
    Col,
}

/// Where a probe position's constraint comes from, resolved per row.
#[derive(Clone, Copy)]
enum PosSpec {
    /// Unconstrained (the operator binds it from the matched quad).
    Any,
    /// A constant (triple constant or base-row binding).
    Const(u64),
    /// The current value of a column.
    Col(usize),
}

/// The graph constraint of a probe, resolved per row.
#[derive(Clone, Copy)]
enum GSpec {
    Fixed(GraphConstraint),
    /// A bound graph-variable column: `Named(col[i])`.
    Col(usize),
}

/// A per-row probe pattern builder (mirrors [`probe_pattern`]).
#[derive(Clone, Copy)]
struct ProbeSpec {
    s: PosSpec,
    p: PosSpec,
    o: PosSpec,
    g: GSpec,
}

/// A per-row scalar source (hash keys, residual equality checks).
#[derive(Clone, Copy)]
enum ValSrc {
    Const(u64),
    Col(usize),
}

/// One compiled filter conjunct.
enum FilterSpec<'p> {
    /// Statically true (constant-folded against the base row).
    True,
    /// Statically false — kills the whole batch.
    False,
    /// `?v = <const>` over a column (the `SlotEqConst` fast path; column
    /// IDs are store IDs, never computed, so the ID compare is exact).
    ColEqConst { slot: usize, id: u64 },
    /// `isIRI`/`isLiteral`/`isBlank` over a column.
    ColKind { slot: usize, kind: TermKind },
    /// Scalar fallback: fill a scratch row with the listed columns and
    /// evaluate through the row pipeline's `RowEnv` (EXISTS and complex
    /// expressions take this path, with identical semantics).
    Generic {
        expr: &'p CExpr,
        col_slots: Vec<usize>,
    },
}

/// A closing step fused into a [`VecOp::Intersect`]: its probe with the
/// merge variable left unbound, and the quad position that variable holds.
struct Close<'p> {
    step: &'p Step,
    spec: ProbeSpec,
    v_pos: usize,
}

/// One vectorized operator.
enum VecOp<'p> {
    /// Index nested-loop probe: per input row, probe the per-row pattern
    /// and emit one output row per match (memoized on the pattern, which
    /// repeats in long runs because the drive column is index-sorted). A
    /// step that binds nothing reads no positions: each input row is
    /// repeated once per match (or, in count mode, weighted by the match
    /// count), an existence and multiplicity check.
    Probe {
        step: &'p Step,
        spec: ProbeSpec,
        /// A merge join's ([`Strategy::Merge`]) forward cursor: the per-row
        /// spans are runs of one index span that the rows, sorted on the
        /// key, meet in ascending order. Each worker reads them through its
        /// own copy, galloping forward from the last run, so it emits
        /// exactly the plain probe's rows in the probe's order.
        cursor: Option<SpanCursor>,
        /// Quad positions read per match, laid out by [`scan_layout`].
        positions: Vec<usize>,
        /// Pairs of quad positions while drafting, then of `positions`
        /// indexes, that must hold equal IDs.
        same: Vec<(usize, usize)>,
        binds: Vec<(usize, usize)>,
        keep: Vec<usize>,
    },
    /// An index NLJ that binds one variable `v` (the expand step) fused
    /// with the steps after it that `v` fully binds (the closing steps):
    /// per input row, the expand step's matching `v` values, in probe
    /// order, are intersected with each closing step's memoised, sorted
    /// (value, multiplicity) list ([`CloseMemo`]), by galloping each
    /// value through the lists ([`intersect_row`]) or, with one closing
    /// step and one ascending run of values, by testing each key of the
    /// list against a bitmap of the values ([`marked_row`]); a match
    /// surviving every list is emitted once per combination of closing
    /// matches, exactly as the unfused probe steps would emit it.
    Intersect {
        step: &'p Step,
        spec: ProbeSpec,
        v_pos: usize,
        closes: Vec<Close<'p>>,
        binds: Vec<(usize, usize)>,
        keep: Vec<usize>,
    },
    /// Hash-join probe against the shared build table.
    Hash {
        step: &'p Step,
        join_slots: &'p [usize],
        cell: Arc<OnceLock<BuildTable>>,
        key_srcs: Vec<ValSrc>,
        /// Residual equality checks for positions the key does not cover
        /// (mirrors `extend_row`'s consistency checks).
        checks: Vec<(usize, ValSrc)>,
        same: Vec<(usize, usize)>,
        binds: Vec<(usize, usize)>,
        keep: Vec<usize>,
    },
    /// A FILTER conjunction emitting a selection vector.
    Filter {
        specs: Vec<FilterSpec<'p>>,
        keep: Vec<usize>,
    },
}

impl<'p> VecOp<'p> {
    /// A drafted probe: positions, binds and keeps are filled in once
    /// liveness is known.
    fn probe(
        step: &'p Step,
        spec: ProbeSpec,
        cursor: Option<SpanCursor>,
        same: Vec<(usize, usize)>,
    ) -> VecOp<'p> {
        let (positions, binds, keep) = (Vec::new(), Vec::new(), Vec::new());
        VecOp::Probe {
            step,
            spec,
            cursor,
            positions,
            same,
            binds,
            keep,
        }
    }

    /// The plan steps this operator runs (their profile tally keys).
    fn steps(&self) -> impl Iterator<Item = &'p Step> + '_ {
        let (head, closes): (Option<&'p Step>, &[Close<'p>]) = match self {
            VecOp::Probe { step, .. } | VecOp::Hash { step, .. } => (Some(*step), &[]),
            VecOp::Intersect { step, closes, .. } => (Some(*step), closes),
            VecOp::Filter { .. } => (None, &[]),
        };
        head.into_iter().chain(closes.iter().map(|c| c.step))
    }
}

/// A step's profile tally key: its address, as the row evaluator keys it.
fn step_key(step: &Step) -> usize {
    step as *const Step as usize
}

/// A batch of column vectors, indexed by binding slot. Only live slots
/// hold a column; every live column has exactly `len` values.
struct Batch {
    len: usize,
    cols: Vec<Option<Vec<u64>>>,
    /// Count mode: each row's weight, once an operator has folded rows
    /// into weights; `None` weighs every row 1.
    weights: Option<Vec<u64>>,
}

impl Batch {
    fn col(&self, slot: usize) -> &[u64] {
        self.cols[slot].as_deref().expect("live column")
    }

    fn weight(&self, i: usize) -> u64 {
        self.weights.as_ref().map_or(1, |w| w[i])
    }

    /// The solutions the batch stands for: its weights' sum.
    fn total(&self) -> u64 {
        self.weights
            .as_ref()
            .map_or(self.len as u64, |w| w.iter().sum())
    }
}

/// Per-op probe memoization: the driving column is index-sorted, so
/// consecutive rows usually probe the same pattern. Persisted across
/// morsels (the store is immutable during a query).
#[derive(Default)]
struct OpMemo {
    pattern: Option<QuadPattern>,
    /// Matched quads' bind values, one vector per materialized bind (an
    /// Intersect op keeps its expand step's `v` values here).
    vals: Vec<Vec<u64>>,
    /// Match count (Intersect ops: the expand step's weighted output in
    /// the current morsel).
    count: usize,
    /// Intersect ops: one memo per closing step.
    closes: Vec<CloseMemo>,
    /// Intersect ops with one closing step: whether `vals[0]` is one
    /// strictly ascending run, which [`Marks`] can hold.
    ascending: bool,
    /// Intersect ops: `vals[0]` as a bitmap, once a row has chosen the
    /// bit-test kernel for it and the budget has taken its growth.
    marks: Marks,
    /// Merge probes: this worker's copy of the forward cursor.
    cursor: Option<SpanCursor>,
    /// Collapsing hash probes: the match count per key, at most one entry
    /// per distinct key of the build table.
    counts: HashMap<Vec<u64>, u64, IdHashState>,
    /// Bytes of memoised lists and counts charged for the query, released
    /// when the [`VecState`] drops.
    held: u64,
}

impl OpMemo {
    /// Charges `bytes` of memo growth.
    fn hold(&mut self, ctx: &EvalCtx, bytes: u64) -> bool {
        self.held += bytes;
        ctx.charge_mem(bytes)
    }

    /// Charges `bytes` of growth the op can do without, only if they fit
    /// the budget; the query runs on either way.
    fn try_hold(&mut self, ctx: &EvalCtx, bytes: u64) -> bool {
        let held = ctx.try_charge_mem(bytes);
        if held {
            self.held += bytes;
        }
        held
    }
}

/// A closing step's candidate lists for the merge variable: one sorted
/// (value, multiplicity) list per probe pattern the worker has met in the
/// query, each read once, plus the current row's list and the walk and
/// tally state of the current morsel. The lists are disjoint parts of the
/// closing pattern's own span, so the memo never outgrows what a hash
/// build of that step would hold; its bytes are charged as it grows and
/// released when the [`VecState`] drops.
#[derive(Default)]
struct CloseMemo {
    /// Each list's range of `keys` and `mults`, by probe pattern.
    lists: HashMap<QuadPattern, (usize, usize), IdHashState>,
    /// Distinct candidate values, ascending within each list.
    keys: Vec<u64>,
    /// Matching quads per value (several graphs or members may hold one
    /// triple).
    mults: Vec<u64>,
    pattern: Option<QuadPattern>,
    /// The current pattern's list.
    list: (usize, usize),
    /// Gallop cursor of the multi-list walk: every key of the list before
    /// it is below the value walked last.
    at: usize,
    /// Rows into and out of this closing step in the current morsel.
    loops: u64,
    rows: u64,
}

/// Estimated retained bytes per memo map entry, besides a closing list's
/// values (16 bytes each) or a count's key words.
const MEMO_ENTRY_BYTES: u64 = 48;

impl CloseMemo {
    /// Makes `pattern`'s candidates at quad position `pos` the current
    /// list, reading them on first use. Returns the bytes the memo grew.
    fn select(&mut self, view: &DatasetView, pattern: &QuadPattern, pos: usize) -> u64 {
        if self.pattern == Some(*pattern) {
            return 0;
        }
        self.pattern = Some(*pattern);
        if let Some(&list) = self.lists.get(pattern) {
            self.list = list;
            return 0;
        }
        let lo = self.keys.len();
        view.scan_columns(pattern, &[pos], std::slice::from_mut(&mut self.keys));
        // Each member's span is sorted on `pos`; several members (or a
        // delta) concatenate sorted runs, and one triple may match in
        // several graphs.
        if !self.keys[lo..].windows(2).all(|w| w[0] < w[1]) {
            self.keys[lo..].sort_unstable();
        }
        let mut len = lo;
        for r in lo..self.keys.len() {
            if len > lo && self.keys[len - 1] == self.keys[r] {
                self.mults[len - 1] += 1;
            } else {
                self.keys[len] = self.keys[r];
                self.mults.push(1);
                len += 1;
            }
        }
        self.keys.truncate(len);
        self.list = (lo, len);
        self.lists.insert(*pattern, self.list);
        (len - lo) as u64 * 16 + MEMO_ENTRY_BYTES
    }
}

/// An Intersect's expand values marked in a bitmap indexed by dictionary
/// ID (IDs are dense from 1), so that a closing list is intersected with
/// them by one bit test per key ([`marked_row`]). The bitmap is allocated
/// on first use and grows to the largest ID marked; unmarking clears only
/// the words that were marked.
#[derive(Default)]
struct Marks {
    bits: Vec<u64>,
    /// The bitmap holds the op's current expand values.
    set: bool,
}

impl Marks {
    /// The words a bitmap holding `vals`, ascending, needs.
    fn words(vals: &[u64]) -> usize {
        vals.last().map_or(0, |&max| (max >> 6) as usize + 1)
    }

    /// The bytes the bitmap must grow by to mark `vals`, ascending.
    fn growth(&self, vals: &[u64]) -> u64 {
        Self::words(vals).saturating_sub(self.bits.len()) as u64 * 8
    }

    /// Marks `vals`, ascending, once [`Marks::growth`] has been charged.
    fn mark(&mut self, vals: &[u64]) {
        let words = Self::words(vals);
        if words > self.bits.len() {
            self.bits.resize(words, 0);
        }
        for &x in vals {
            self.bits[(x >> 6) as usize] |= 1 << (x & 63);
        }
        self.set = true;
    }

    /// Clears the words that `vals`, the values marked last, set.
    fn unmark(&mut self, vals: &[u64]) {
        if std::mem::take(&mut self.set) {
            for &x in vals {
                self.bits[(x >> 6) as usize] = 0;
            }
        }
    }

    fn has(&self, x: u64) -> bool {
        self.bits
            .get((x >> 6) as usize)
            .is_some_and(|w| w >> (x & 63) & 1 != 0)
    }
}

/// What a gallop through a closing list costs per expand value, counted
/// in bit tests of one closing key. Measured on EQ12 (scale 0.05, one
/// thread): at 2, 4 or 6 most of NG's runs of rows gallop, because the
/// row that would mark a run's values pays for the whole run; 8, 16 and
/// taking the bit tests on every ascending run ran alike.
const GALLOP_COST: usize = 8;

/// Whether [`marked_row`] is the cheaper kernel for a row whose expand
/// values `vals` meet a closing list of `list` keys. Unless `marks`
/// holds the values already, the row pays for marking them, for
/// unmarking them later and for zeroing the words the bitmap grows by;
/// the rows after it that share the values reuse the bitmap.
fn bit_tests_win(marks: &Marks, vals: &[u64], list: usize) -> bool {
    let n = vals.len();
    let mark = if marks.set {
        0
    } else {
        2 * n + marks.growth(vals) as usize / 8
    };
    list + mark < GALLOP_COST * n
}

/// [`intersect_row`] for one closing step `cm` whose row's expand values,
/// `n` of them in one strictly ascending run, are set in `marks`: walks
/// the closing list and tests each key's bit. It emits the same matches
/// and multiplicities, in the same (ascending) order, and tallies the
/// same rows; the loops, `w` per expand value, are computed.
fn marked_row(
    marks: &Marks,
    n: usize,
    cm: &mut CloseMemo,
    w: u64,
    mut emit: impl FnMut(u64, u64),
) -> u64 {
    let (lo, hi) = cm.list;
    let mut produced = 0;
    for (&x, &m) in cm.keys[lo..hi].iter().zip(&cm.mults[lo..hi]) {
        if marks.has(x) {
            produced += w * m;
            emit(x, m);
        }
    }
    cm.loops += w * n as u64;
    cm.rows += produced;
    produced
}

/// Intersects the expand values (`vals`, in probe order) of one input
/// row of weight `w` with the closing lists, calling `emit(x, n)` for
/// each surviving match `x`, where `n` is its row count: the product of
/// its closing multiplicities. Each value gallops forward through every
/// list from a cursor that restarts at the next ascending run. Matches
/// come out in `vals` order, so the output is the unfused probe steps'
/// output. Tallies each closing step's weighted rows in and out, and
/// returns the weighted rows all closing steps produced.
fn intersect_row(
    vals: &[u64],
    closes: &mut [CloseMemo],
    w: u64,
    mut emit: impl FnMut(u64, u64),
) -> u64 {
    let mut produced = 0;
    closes.iter_mut().for_each(|cm| cm.at = 0);
    let mut last = 0u64;
    for &x in vals {
        if x < last {
            // A new ascending run (the next member, or a delta).
            closes.iter_mut().for_each(|cm| cm.at = 0);
        }
        last = x;
        let mut n = 1u64;
        for cm in closes.iter_mut() {
            cm.loops += w * n;
            let (keys, mults) = (&cm.keys[cm.list.0..cm.list.1], &cm.mults[cm.list.0..]);
            cm.at = quadstore::gallop(keys, cm.at, |&k| k < x);
            if keys.get(cm.at) != Some(&x) {
                n = 0;
                break;
            }
            n *= mults[cm.at];
            cm.rows += w * n;
            produced += w * n;
        }
        if n > 0 {
            emit(x, n);
        }
    }
    produced
}

/// Per-worker mutable pipeline state (memoization only; everything else
/// lives on the stack of `run_morsel`). Dropping it releases the memos'
/// memory charge.
pub(super) struct VecState<'c> {
    ctx: &'c EvalCtx,
    memos: Vec<OpMemo>,
}

impl Drop for VecState<'_> {
    fn drop(&mut self) {
        self.ctx
            .release_mem(self.memos.iter().map(|m| m.held).sum());
    }
}

impl<'c> VecState<'c> {
    pub(super) fn new(ctx: &'c EvalCtx, pipe: &VecPipeline<'_>) -> VecState<'c> {
        let mut memos = Vec::with_capacity(pipe.ops.len());
        for op in &pipe.ops {
            let (nvals, ncloses, cursor) = match op {
                VecOp::Probe {
                    positions, cursor, ..
                } => (positions.len(), 0, cursor.clone()),
                VecOp::Hash { binds, .. } => (binds.len(), 0, None),
                VecOp::Intersect { closes, .. } => (1, closes.len(), None),
                _ => (0, 0, None),
            };
            memos.push(OpMemo {
                vals: vec![Vec::new(); nvals],
                closes: std::iter::repeat_with(CloseMemo::default)
                    .take(ncloses)
                    .collect(),
                cursor,
                ..OpMemo::default()
            });
        }
        VecState { ctx, memos }
    }
}

/// An operator drafted by [`VecPipeline::compile`]'s first pass, with
/// the slots it reads and binds.
struct Draft<'p> {
    op: VecOp<'p>,
    reads: Vec<usize>,
    binds_all: Vec<(usize, usize)>,
}

impl<'p> Draft<'p> {
    /// Folds closing step `close` (merge slot `on`) into this draft when
    /// the draft runs `prev`, the step right before it: an index probe
    /// binding only `on` (at S or O) becomes a [`VecOp::Intersect`], and
    /// an Intersect on `on` takes another closing step. `spec` and
    /// `reads` are the closing step's own probe spec and column reads.
    fn fold_close(
        &mut self,
        prev: &'p Step,
        close: &'p Step,
        on: usize,
        mut spec: ProbeSpec,
        reads: &[usize],
    ) -> bool {
        let Some(v_pos) = close.triple.sole_s_or_o(on) else {
            return false;
        };
        match &self.op {
            VecOp::Probe {
                step,
                spec: expand,
                cursor: None,
                same,
                ..
            } if std::ptr::eq(*step, prev)
                && same.is_empty()
                && matches!(self.binds_all.as_slice(), [(_, s)] if *s == on)
                && step.triple.sole_s_or_o(on).is_some() =>
            {
                self.op = VecOp::Intersect {
                    step,
                    spec: *expand,
                    v_pos: self.binds_all[0].0,
                    closes: Vec::new(),
                    binds: Vec::new(),
                    keep: Vec::new(),
                };
            }
            VecOp::Intersect { step, closes, .. }
                if std::ptr::eq(closes.last().map_or(*step, |c| c.step), prev)
                    && self.binds_all[0].1 == on => {}
            _ => return false,
        }
        let VecOp::Intersect { closes, .. } = &mut self.op else {
            unreachable!()
        };
        spec.unbind(v_pos);
        closes.push(Close {
            step: close,
            spec,
            v_pos,
        });
        self.reads
            .extend(reads.iter().copied().filter(|&s| s != on));
        true
    }
}

/// A compiled vectorized pipeline for one UNION branch.
pub(super) struct VecPipeline<'p> {
    drive: &'p Step,
    /// The driving scan's pattern.
    pattern: QuadPattern,
    /// The driving scan's output-order preference (quad position 0..=3):
    /// where it binds the group key, so tying indexes break towards
    /// group-key-sorted output and the run-length accumulator sees long
    /// key runs. `None` keeps the sequential index choice, which ordered
    /// row production must: its rows match the streaming executor's.
    prefer: Option<usize>,
    base: Row,
    /// Quad positions the driving scan extracts: one per live slot
    /// (parallel to `drive_slots`), then any position only `same` reads.
    positions: Vec<usize>,
    drive_slots: Vec<usize>,
    /// Pairs of scanned columns (indexes into `positions`) that must hold
    /// equal IDs: the driving triple repeats a variable it binds.
    same: Vec<(usize, usize)>,
    ops: Vec<VecOp<'p>>,
    /// Column slots present after the last operator.
    final_cols: Vec<usize>,
    /// Slots every finished row binds, as a column or a base constant.
    bound: Vec<bool>,
    /// Count mode: rows carry weights (see the module docs).
    count: bool,
    /// Output row template: base constants at needed slots, `None`
    /// elsewhere.
    template: Row,
}

/// The slots the rest of [`exec_select`] reads from produced rows:
/// projected slots, projection/ORDER BY/HAVING expression inputs, GROUP
/// BY keys, and aggregate expression inputs. An EXISTS reference anywhere
/// makes every slot needed (its inner pattern may read any of them). A
/// plain-count consumer (`count`) reads the group keys only: a counted
/// slot just has to be bound, which [`VecPipeline::binds`] knows
/// statically.
pub(super) fn needed_slots(ctx: &EvalCtx, sel: &CSelect, count: bool) -> Vec<bool> {
    let mut need = vec![false; ctx.vars.len()];
    for &s in &sel.group_slots {
        need[s] = true;
    }
    if count {
        return need;
    }
    let mut slots: Vec<usize> = Vec::new();
    let mut exists = false;
    for &s in &sel.projected_slots() {
        need[s] = true;
    }
    for proj in &sel.projection {
        need[proj.slot] = true;
        if let Some(expr) = &proj.expr {
            exists |= expr.collect_slots(&mut slots);
        }
    }
    for (expr, _) in &sel.order_by {
        exists |= expr.collect_slots(&mut slots);
    }
    for h in &sel.having {
        exists |= h.collect_slots(&mut slots);
    }
    for agg in &sel.aggregates {
        match agg {
            CAggregate::CountAll => {}
            CAggregate::Count { expr, .. }
            | CAggregate::Sum(expr)
            | CAggregate::Avg(expr)
            | CAggregate::Min(expr)
            | CAggregate::Max(expr) => exists |= expr.collect_slots(&mut slots),
        }
    }
    if exists {
        need.iter_mut().for_each(|b| *b = true);
    } else {
        for s in slots {
            need[s] = true;
        }
    }
    need
}

impl<'p> VecPipeline<'p> {
    /// Compiles a UNION branch — its innermost non-FILTER `node` and the
    /// `filters` around it, innermost first — into a vectorized pipeline,
    /// or `None` when a construct forces the row pipeline. The node must
    /// be a Steps chain, or a Join of an optional leading one-row VALUES
    /// pin and Steps chains, whose first step is an index scan that drives
    /// the morsels. With a `group_slot` the driving scan binds, it prefers
    /// an index sorted on it: grouped output ignores row order, and key
    /// runs turn per-row group lookups into one per run (out-degree: PSCGM
    /// over PCSGM). In `count` mode its batches carry row weights.
    pub(super) fn compile(
        ctx: &EvalCtx,
        node: &'p Node,
        filters: &[&'p [CExpr]],
        needed: &[bool],
        group_slot: Option<usize>,
        count: bool,
    ) -> Option<VecPipeline<'p>> {
        let nvars = ctx.vars.len();
        debug_assert_eq!(needed.len(), nvars);
        let children = match node {
            Node::Join(children) => children.as_slice(),
            Node::Steps(_) => std::slice::from_ref(node),
            _ => return None,
        };
        let mut base = ctx.empty_row();
        let mut chains: Vec<&'p [Step]> = Vec::with_capacity(children.len());
        for (i, child) in children.iter().enumerate() {
            match child {
                // The constant-equality pushdown plants a one-row VALUES
                // pin ahead of the steps; fold it into the base row.
                Node::Values { slots, rows } if i == 0 && rows.len() == 1 => {
                    for (&slot, t) in slots.iter().zip(&rows[0]) {
                        if let Some(t) = t {
                            base[slot] = Some(ctx.intern_term(t));
                        }
                    }
                }
                Node::Steps(steps) => chains.push(steps),
                _ => return None,
            }
        }
        let drive = chains.first()?.first()?;
        chains[0] = &chains[0][1..];
        if !matches!(drive.strategy, Strategy::IndexNlj) {
            return None;
        }
        // Computed IDs in the base row take per-row code paths
        // (probe_pattern bailouts, hash-join skips) that the columnar
        // compiler does not model.
        if base.iter().flatten().any(|id| id & COMPUTED_BIT != 0) {
            return None;
        }
        let mut bind: Vec<BindState> = base
            .iter()
            .map(|v| match v {
                Some(id) => BindState::Base(*id),
                None => BindState::Unbound,
            })
            .collect();

        // The driving scan binds its triple's free variable positions.
        let (drive_binds_all, drive_same) = triple_binds(&drive.triple, &mut bind)?;
        let prefer = drive_binds_all
            .iter()
            .find(|b| Some(b.1) == group_slot)
            .map(|b| b.0);

        // Pass 1: draft every operator, tracking reads and binds.
        let mut drafts: Vec<Draft<'p>> = Vec::new();
        let mut any_exists = false;
        for steps in chains {
            for (idx, step) in steps.iter().enumerate() {
                let draft = match &step.strategy {
                    Strategy::IndexNlj | Strategy::Merge { .. } => {
                        let (spec, reads) = probe_spec(&step.triple, &bind)?;
                        let (binds_all, same) = triple_binds(&step.triple, &mut bind)?;
                        // A base-row constant can bind a position the planner
                        // left free and move the probe to another index: then
                        // the merge step probes like any other.
                        let cursor = match &step.strategy {
                            Strategy::Merge { on } => merge_cursor(ctx, step, &spec, *on),
                            _ => None,
                        };
                        let op = VecOp::probe(step, spec, cursor, same);
                        Draft {
                            op,
                            reads,
                            binds_all,
                        }
                    }
                    Strategy::HashJoin { join_slots } => {
                        // A statically unbound key slot takes the row
                        // evaluator's per-row fallback.
                        if join_slots.iter().any(|&s| bind[s] == BindState::Unbound) {
                            return None;
                        }
                        let mut reads = Vec::new();
                        let key_srcs: Vec<ValSrc> = join_slots
                            .iter()
                            .map(|&s| val_src(s, &bind, &mut reads))
                            .collect();
                        let key_pos = key_positions(&step.triple, join_slots);
                        let checks =
                            hash_checks(&step.triple, join_slots, &key_pos, &bind, &mut reads);
                        let (binds_all, same) = triple_binds(&step.triple, &mut bind)?;
                        Draft {
                            op: VecOp::Hash {
                                step,
                                join_slots,
                                cell: ctx.build_cell(step),
                                key_srcs,
                                checks,
                                same,
                                binds: Vec::new(),
                                keep: Vec::new(),
                            },
                            reads,
                            binds_all,
                        }
                    }
                    // A closing step folds into the expand probe drafted just
                    // before it; anywhere else (its expand step drives the
                    // scan) it runs as the existence probe it is.
                    Strategy::Intersect { on } => {
                        let (spec, reads) = probe_spec(&step.triple, &bind)?;
                        let (binds_all, _) = triple_binds(&step.triple, &mut bind)?;
                        let prev = idx.checked_sub(1).map(|i| &steps[i]);
                        if let (Some(prev), Some(d), true) =
                            (prev, drafts.last_mut(), binds_all.is_empty())
                        {
                            if d.fold_close(prev, step, *on, spec, &reads) {
                                continue;
                            }
                        }
                        Draft {
                            op: VecOp::probe(step, spec, None, Vec::new()),
                            reads,
                            binds_all,
                        }
                    }
                };
                drafts.push(draft);
            }
        }
        for filters in filters {
            let mut reads = Vec::new();
            let mut specs = Vec::with_capacity(filters.len());
            for f in filters.iter() {
                let (spec, exists) = filter_spec(ctx, f, &base, &bind, &mut reads);
                any_exists |= exists;
                specs.push(spec);
            }
            drafts.push(Draft {
                op: VecOp::Filter {
                    specs,
                    keep: Vec::new(),
                },
                reads,
                binds_all: Vec::new(),
            });
        }

        // An EXISTS inside a filter may read any slot through its inner
        // pattern: keep everything alive.
        let mut final_need: Vec<bool> = needed.to_vec();
        if any_exists {
            final_need.iter_mut().for_each(|b| *b = true);
            for d in &mut drafts {
                if let VecOp::Filter { specs, .. } = &mut d.op {
                    for s in specs.iter_mut() {
                        if let FilterSpec::Generic { col_slots, .. } = s {
                            // Fill every column that exists at this point;
                            // computed below once liveness is known.
                            col_slots.clear();
                        }
                    }
                }
            }
        }

        // Pass 2: backward liveness. need_from[k] = slots read by op k or
        // any later op, or needed by the output — minus slots op k binds
        // (they do not exist upstream of k).
        let nops = drafts.len();
        let mut need_from: Vec<Vec<bool>> = vec![vec![false; nvars]; nops + 1];
        need_from[nops].clone_from(&final_need);
        for k in (0..nops).rev() {
            let mut cur = need_from[k + 1].clone();
            for &(_, slot) in &drafts[k].binds_all {
                cur[slot] = false;
            }
            for &s in &drafts[k].reads {
                cur[s] = true;
            }
            need_from[k] = cur;
        }

        // Pass 3: forward presence; prune drive columns, per-op binds and
        // keep lists to live slots.
        let mut present = vec![false; nvars];
        for &(_, slot) in &drive_binds_all {
            present[slot] = true;
        }
        let drive_binds: Vec<(usize, usize)> = drive_binds_all
            .into_iter()
            .filter(|&(_, slot)| need_from[0][slot])
            .collect();
        let (positions, same) = scan_layout(&drive_binds, &drive_same);
        let drive_slots = drive_binds.iter().map(|&(_, slot)| slot).collect();
        let mut live: Vec<bool> = (0..nvars).map(|s| present[s] && need_from[0][s]).collect();
        let mut ops: Vec<VecOp<'p>> = Vec::with_capacity(nops);
        for (k, draft) in drafts.into_iter().enumerate() {
            let Draft {
                mut op, binds_all, ..
            } = draft;
            let keep_list: Vec<usize> = (0..nvars)
                .filter(|&s| live[s] && need_from[k + 1][s])
                .collect();
            for &(_, slot) in &binds_all {
                present[slot] = true;
            }
            let bind_list: Vec<(usize, usize)> = binds_all
                .iter()
                .copied()
                .filter(|&(_, slot)| need_from[k + 1][slot])
                .collect();
            if let VecOp::Probe {
                positions, same, ..
            } = &mut op
            {
                (*positions, *same) = scan_layout(&bind_list, same);
            }
            match &mut op {
                VecOp::Probe { binds, keep, .. }
                | VecOp::Hash { binds, keep, .. }
                | VecOp::Intersect { binds, keep, .. } => {
                    *binds = bind_list.clone();
                    *keep = keep_list.clone();
                }
                VecOp::Filter { keep, .. } => {
                    *keep = keep_list.clone();
                }
            }
            if any_exists {
                if let VecOp::Filter { specs, .. } = &mut op {
                    for s in specs.iter_mut() {
                        if let FilterSpec::Generic { col_slots, .. } = s {
                            if col_slots.is_empty() {
                                // Entering columns of this op: everything
                                // live before the filter runs.
                                *col_slots =
                                    (0..nvars).filter(|&s| live[s] && need_from[k][s]).collect();
                            }
                        }
                    }
                }
            }
            live = vec![false; nvars];
            for &s in &keep_list {
                live[s] = true;
            }
            for &(_, s) in &bind_list {
                live[s] = true;
            }
            ops.push(op);
        }
        let final_cols: Vec<usize> = (0..nvars).filter(|&s| live[s]).collect();

        let mut template = vec![None; nvars];
        for (slot, v) in base.iter().enumerate() {
            if final_need[slot] {
                template[slot] = *v;
            }
        }

        Some(VecPipeline {
            drive,
            pattern: probe_pattern(&base, &drive.triple)?,
            prefer,
            base,
            positions,
            drive_slots,
            same,
            ops,
            final_cols,
            bound: bind.iter().map(|b| *b != BindState::Unbound).collect(),
            count,
            template,
        })
    }

    /// The driving scan cut into morsels of `first` keys and doubling up
    /// to the morsel size, in sequential order.
    pub(super) fn morsels(&self, ctx: &EvalCtx, first: usize) -> Vec<Morsel> {
        ctx.view
            .plan_morsels(&self.pattern, first, ctx.morsel_size, self.prefer)
    }

    /// Marks the pipeline as about to run: flags the observer, and under
    /// profiling creates the tallies the row evaluator creates eagerly —
    /// a (possibly zero) tally even for steps never reached, and the one
    /// seed row its driving step consumes.
    pub(super) fn begin(&self, ctx: &EvalCtx) {
        if let Some(obs) = &ctx.observer {
            obs.vectorized.store(true, Ordering::Relaxed);
        }
        if let Some(p) = &ctx.profile {
            p.add(self.drive as *const Step as usize, 0, 1, 0);
            for step in self.ops.iter().flat_map(VecOp::steps) {
                p.add(step_key(step), 0, 0, 0);
            }
        }
    }

    /// Runs one morsel through the pipeline, handing each finished row and
    /// its weight (1 outside count mode) to `emit` until the morsel ends or
    /// `emit` returns `false`. One row buffer serves every call — the
    /// template with the live columns among `only` (all of them for
    /// `None`) filled in — so `emit` copies what it keeps. A count-mode
    /// consumer reads only the group keys `only` names, so each run of
    /// rows with equal keys goes out as one row weighing the run's sum: a
    /// batch sorted on its group key pushes once per group, and one with
    /// no GROUP BY once.
    pub(super) fn run_morsel(
        &self,
        ctx: &EvalCtx,
        morsel: &Morsel,
        st: &mut VecState,
        only: Option<&[usize]>,
        emit: &mut impl FnMut(&mut Row, u64) -> bool,
    ) {
        let mut charged_bytes: u64 = 0;
        if let Some(batch) = self.run_batch(ctx, morsel, st, &mut charged_bytes) {
            let cols: Vec<(usize, &[u64])> = self
                .final_cols
                .iter()
                .filter(|s| only.is_none_or(|o| o.contains(s)))
                .map(|&s| (s, batch.col(s)))
                .collect();
            let mut row = self.template.clone();
            let mut i = 0;
            while i < batch.len {
                let (mut end, mut weight) = (i + 1, batch.weight(i));
                if only.is_some() {
                    while end < batch.len && cols.iter().all(|(_, col)| col[end] == col[i]) {
                        weight += batch.weight(end);
                        end += 1;
                    }
                }
                for &(s, col) in &cols {
                    row[s] = Some(col[i]);
                }
                if !emit(&mut row, weight) {
                    break;
                }
                i = end;
            }
        }
        ctx.release_mem(charged_bytes);
    }

    /// Whether every finished row binds `slot`, as a column (live or not)
    /// or a base constant; a slot it does not bind is unbound in every row.
    pub(super) fn binds(&self, slot: usize) -> bool {
        self.bound[slot]
    }

    /// Scans one morsel into its drive columns, which become the morsel's
    /// one batch, and runs the operator chain over it. Returns the
    /// finished batch, or `None` when no row survives or a limit fired.
    /// Handles charging (weighted row totals identical to the row
    /// pipeline; materialised column buffers added to `charged_bytes`,
    /// which the caller releases once the rows are emitted), profiling
    /// (weighted, like the charges) and telemetry.
    fn run_batch(
        &self,
        ctx: &EvalCtx,
        morsel: &Morsel,
        st: &mut VecState,
        charged_bytes: &mut u64,
    ) -> Option<Batch> {
        let track = telemetry::enabled();
        let profile = ctx.profile.clone();

        // 1. Drive scan → columns.
        let t0 = profile.as_ref().map(|_| Instant::now());
        let mut dcols: Vec<Vec<u64>> = vec![Vec::new(); self.positions.len()];
        let mut n =
            ctx.view
                .scan_morsel_columns(&self.pattern, morsel, &self.positions, &mut dcols);
        if !self.same.is_empty() {
            n = retain_same(&mut dcols, &self.same, n);
        }
        if let (Some(p), Some(t0)) = (&profile, t0) {
            p.add(
                self.drive as *const Step as usize,
                n as u64,
                0,
                t0.elapsed().as_nanos() as u64,
            );
        }
        if n == 0 || !ctx.charge(n as u64) {
            return None;
        }
        let bytes = (n * self.positions.len() * 8) as u64;
        *charged_bytes += bytes;
        let _ = ctx.charge_mem(bytes);
        if track {
            crate::metrics::vec_batches_emitted().inc();
            crate::metrics::vec_rows_emitted().add(n as u64);
        }
        // The live drive columns move into the batch; columns only a
        // `same` check read are dropped.
        let mut batch = Batch {
            len: n,
            cols: vec![None; ctx.vars.len()],
            weights: None,
        };
        for (col, &slot) in dcols.into_iter().zip(&self.drive_slots) {
            batch.cols[slot] = Some(col);
        }

        // 2. The operator chain.
        for (k, op) in self.ops.iter().enumerate() {
            if batch.len == 0 || ctx.is_exhausted() {
                return None;
            }
            let t0 = profile.as_ref().map(|_| (Instant::now(), batch.total()));
            batch = self.run_op(ctx, op, &mut st.memos[k], batch, charged_bytes)?;
            if let (Some(p), Some((t0, loops))) = (&profile, t0) {
                let nanos = t0.elapsed().as_nanos() as u64;
                if let VecOp::Intersect { step, closes, .. } = op {
                    // Every fused step is charged the operator's time.
                    let memo = &st.memos[k];
                    p.add(step_key(step), memo.count as u64, loops, nanos);
                    for (c, cm) in closes.iter().zip(&memo.closes) {
                        p.add(step_key(c.step), cm.rows, cm.loops, nanos);
                    }
                } else if let Some(step) = op.steps().next() {
                    p.add(step_key(step), batch.total(), loops, nanos);
                }
            }
            if track && !matches!(op, VecOp::Filter { .. }) {
                crate::metrics::vec_batches_emitted().inc();
                crate::metrics::vec_rows_emitted().add(batch.len as u64);
            }
        }
        (batch.len > 0).then_some(batch)
    }

    /// Applies one operator to a batch. `None` means a resource limit
    /// fired mid-operator (the charge totals match the row pipeline).
    fn run_op(
        &self,
        ctx: &EvalCtx,
        op: &VecOp<'p>,
        memo: &mut OpMemo,
        batch: Batch,
        charged_bytes: &mut u64,
    ) -> Option<Batch> {
        match op {
            VecOp::Probe {
                spec,
                positions,
                same,
                binds,
                keep,
                ..
            } => {
                let mut out = Out::new(&batch, self.count && binds.is_empty(), keep, binds);
                let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); binds.len()];
                for i in 0..batch.len {
                    let pat = spec.pattern(&batch, i);
                    if memo.pattern != Some(pat) {
                        memo.vals.iter_mut().for_each(Vec::clear);
                        memo.count = match &mut memo.cursor {
                            Some(cursor) => cursor.scan_columns(&pat, positions, &mut memo.vals),
                            None => ctx.view.scan_columns(&pat, positions, &mut memo.vals),
                        };
                        if !same.is_empty() {
                            memo.count = retain_same(&mut memo.vals, same, memo.count);
                        }
                        memo.pattern = Some(pat);
                    }
                    if memo.count > 0 {
                        out.matched(i, memo.count as u64, batch.weight(i));
                        for (col, vals) in fresh.iter_mut().zip(&memo.vals) {
                            col.extend_from_slice(vals);
                        }
                        if !out.settle(ctx, charged_bytes, false) {
                            return None;
                        }
                    }
                }
                out.finish(ctx, &batch, keep, binds, fresh, charged_bytes)
            }
            VecOp::Intersect {
                spec,
                v_pos,
                closes,
                binds,
                keep,
                ..
            } => {
                let collapse = self.count && binds.is_empty();
                let mut out = Out::new(&batch, collapse, keep, binds);
                // Rows produced: the expand step's matches and every
                // closing step's output, of which the last is the op's
                // output and the rest exist only as counts.
                let mut inner = Out::new(&batch, false, &[], &[]);
                let mut produced = 0u64;
                let mut fresh: Vec<u64> = Vec::new();
                memo.count = 0;
                for cm in &mut memo.closes {
                    (cm.loops, cm.rows) = (0, 0);
                }
                for i in 0..batch.len {
                    let pat = spec.pattern(&batch, i);
                    if memo.pattern != Some(pat) {
                        memo.marks.unmark(&memo.vals[0]);
                        memo.vals[0].clear();
                        ctx.view.scan_columns(&pat, &[*v_pos], &mut memo.vals);
                        memo.pattern = Some(pat);
                        // Several members, a delta or one triple in several
                        // graphs break the run.
                        memo.ascending =
                            closes.len() == 1 && memo.vals[0].windows(2).all(|p| p[0] < p[1]);
                    }
                    let mut grown = 0;
                    for (close, cm) in closes.iter().zip(&mut memo.closes) {
                        grown += cm.select(&ctx.view, &close.spec.pattern(&batch, i), close.v_pos);
                    }
                    if grown > 0 && !memo.hold(ctx, grown) {
                        return None;
                    }
                    let mut bits = memo.ascending && {
                        let list = memo.closes[0].list;
                        bit_tests_win(&memo.marks, &memo.vals[0], list.1 - list.0)
                    };
                    if bits && !memo.marks.set {
                        // The bitmap only speeds the row up: growth the
                        // budget cannot take leaves the row to the gallop.
                        let grown = memo.marks.growth(&memo.vals[0]);
                        bits = grown == 0 || memo.try_hold(ctx, grown);
                        if bits {
                            memo.marks.mark(&memo.vals[0]);
                        }
                    }
                    let (vals, w) = (&memo.vals[0], batch.weight(i));
                    memo.count += vals.len() * w as usize;
                    let mut sum = 0;
                    produced += vals.len() as u64 * w;
                    let emit = |x, n| {
                        if collapse {
                            sum += n;
                        } else {
                            out.matched(i, n, w);
                            if !binds.is_empty() {
                                fresh.extend(std::iter::repeat_n(x, n as usize));
                            }
                        }
                    };
                    produced += if bits {
                        marked_row(&memo.marks, vals.len(), &mut memo.closes[0], w, emit)
                    } else {
                        intersect_row(vals, &mut memo.closes, w, emit)
                    };
                    if sum > 0 {
                        out.matched(i, sum, w);
                    }
                    inner.rows = produced - out.rows;
                    if !inner.settle(ctx, charged_bytes, false)
                        || !out.settle(ctx, charged_bytes, false)
                    {
                        return None;
                    }
                }
                if !inner.settle(ctx, charged_bytes, true) {
                    return None;
                }
                let fresh = if binds.is_empty() {
                    Vec::new()
                } else {
                    vec![fresh]
                };
                out.finish(ctx, &batch, keep, binds, fresh, charged_bytes)
            }
            VecOp::Hash {
                step,
                join_slots,
                cell,
                key_srcs,
                checks,
                same,
                binds,
                keep,
            } => {
                let table = cell.get_or_init(|| build_table(ctx, step, join_slots));
                let mut out = Out::new(&batch, self.count && binds.is_empty(), keep, binds);
                let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); binds.len()];
                let mut key = vec![0u64; key_srcs.len()];
                // A collapsing probe whose residual checks read no column
                // counts each key's matches once per query and worker.
                let memoise =
                    out.collapse && checks.iter().all(|c| matches!(c.1, ValSrc::Const(_)));
                for i in 0..batch.len {
                    for (dst, ks) in key.iter_mut().zip(key_srcs) {
                        *dst = ks.value(&batch, i);
                    }
                    let hit = memoise.then(|| memo.counts.get(&key).copied()).flatten();
                    let n = hit.unwrap_or_else(|| {
                        let mut n = 0;
                        for quad in table.get(&key) {
                            if checks
                                .iter()
                                .any(|(pos, vs)| quad[*pos] != vs.value(&batch, i))
                                || same.iter().any(|&(a, b)| quad[a] != quad[b])
                            {
                                continue;
                            }
                            n += 1;
                            for (bi, &(pos, _)) in binds.iter().enumerate() {
                                fresh[bi].push(quad[pos]);
                            }
                        }
                        n
                    });
                    if memoise && hit.is_none() {
                        memo.counts.insert(key.clone(), n);
                        if !memo.hold(ctx, MEMO_ENTRY_BYTES + 8 * key.len() as u64) {
                            return None;
                        }
                    }
                    if n > 0 {
                        out.matched(i, n, batch.weight(i));
                    }
                    if !out.settle(ctx, charged_bytes, false) {
                        return None;
                    }
                }
                out.finish(ctx, &batch, keep, binds, fresh, charged_bytes)
            }
            VecOp::Filter { specs, keep, .. } => {
                let in_len = batch.len;
                let mut out = Out::new(&batch, false, keep, &[]);
                out.src.reserve(in_len);
                let mut scratch: Option<Row> = None;
                'rows: for i in 0..batch.len {
                    // Filters produce no rows, so they observe deadlines and
                    // cancellation through the rowless tick, one per stride.
                    if i % 1024 == 1023 && !ctx.tick(1024) {
                        return None;
                    }
                    for spec in specs {
                        let pass = match spec {
                            FilterSpec::True => true,
                            FilterSpec::False => false,
                            FilterSpec::ColEqConst { slot, id } => batch.col(*slot)[i] == *id,
                            FilterSpec::ColKind { slot, kind } => {
                                ctx.kind(batch.col(*slot)[i]) == Some(*kind)
                            }
                            FilterSpec::Generic { expr, col_slots } => {
                                let row = scratch.get_or_insert_with(|| self.base.clone());
                                for &s in col_slots {
                                    row[s] = Some(batch.col(s)[i]);
                                }
                                let env = RowEnv {
                                    ctx,
                                    row,
                                    aggs: None,
                                };
                                expr.eval_filter(&env)
                            }
                        };
                        if !pass {
                            continue 'rows;
                        }
                    }
                    out.matched(i, 1, batch.weight(i));
                }
                if out.src.len() == in_len {
                    // Everything survived: reuse the batch as-is (dropping
                    // columns that die here).
                    let mut cols = batch.cols;
                    let mut kept: Vec<Option<Vec<u64>>> = vec![None; cols.len()];
                    for &s in keep {
                        kept[s] = cols[s].take();
                    }
                    return Some(Batch {
                        len: in_len,
                        cols: kept,
                        weights: batch.weights,
                    });
                }
                let bytes = out.src.len() as u64 * out.row_bytes;
                if bytes > 0 {
                    *charged_bytes += bytes;
                    if !ctx.charge_mem(bytes) {
                        return None;
                    }
                }
                Some(out.gather(&batch, keep, &[], Vec::new()))
            }
        }
    }
}

/// The quad positions a scan reads to bind `binds` and check `same`: one
/// per bind (column `i` fills bind `i`), then any position only a `same`
/// pair reads; and `same` as pairs of indexes into those positions.
fn scan_layout(
    binds: &[(usize, usize)],
    same: &[(usize, usize)],
) -> (Vec<usize>, Vec<(usize, usize)>) {
    let mut positions: Vec<usize> = binds.iter().map(|&(pos, _)| pos).collect();
    let mut col_of = |pos: usize| {
        positions.iter().position(|&p| p == pos).unwrap_or_else(|| {
            positions.push(pos);
            positions.len() - 1
        })
    };
    let same = same.iter().map(|&(a, b)| (col_of(a), col_of(b))).collect();
    (positions, same)
}

/// Compacts freshly scanned columns to the rows whose `same` column pairs
/// agree — `extend_row`'s consistency check for a variable the triple
/// repeats (`GRAPH ?g { ?g ?k ?v }`, `?x ?p ?x`).
fn retain_same(cols: &mut [Vec<u64>], same: &[(usize, usize)], n: usize) -> usize {
    let mut kept = 0;
    for i in 0..n {
        if same.iter().all(|&(a, b)| cols[a][i] == cols[b][i]) {
            for col in cols.iter_mut() {
                col[kept] = col[i];
            }
            kept += 1;
        }
    }
    for col in cols.iter_mut() {
        col.truncate(kept);
    }
    kept
}

/// An operator's output under construction: the input row each output
/// row comes from, and its weight when the output carries weights. Rows
/// are charged against the row budget in weighted counts, the solutions
/// they stand for (the row pipeline's totals), and against the memory
/// budget as the bytes of the rows materialised.
struct Out {
    src: Vec<u32>,
    weights: Option<Vec<u64>>,
    /// Count mode with no live bind: each surviving input row is emitted
    /// once, weighted by its matches, instead of once per match.
    collapse: bool,
    /// Bytes per materialised row: its columns, and its weight if any.
    row_bytes: u64,
    /// Weighted rows produced, and how many of them (and of the
    /// materialised rows) are charged.
    rows: u64,
    charged_rows: u64,
    charged_len: usize,
}

impl Out {
    fn new(batch: &Batch, collapse: bool, keep: &[usize], binds: &[(usize, usize)]) -> Out {
        let weighted = collapse || batch.weights.is_some();
        Out {
            src: Vec::new(),
            weights: weighted.then(Vec::new),
            collapse,
            row_bytes: (keep.len() + binds.len() + usize::from(weighted)) as u64 * 8,
            rows: 0,
            charged_rows: 0,
            charged_len: 0,
        }
    }

    /// Input row `i`, of weight `w`, matched `n` times.
    fn matched(&mut self, i: usize, n: u64, w: u64) {
        let (copies, w) = if self.collapse { (1, n * w) } else { (n, w) };
        self.src
            .extend(std::iter::repeat_n(i as u32, copies as usize));
        if let Some(weights) = &mut self.weights {
            weights.extend(std::iter::repeat_n(w, copies as usize));
        }
        self.rows += copies * w;
    }

    /// Charges the rows produced since the last charge, in
    /// [`MEM_CHARGE_CHUNK`]-row chunks unless `force`d, so limits land
    /// with the streaming pipeline's stride even inside one wide batch
    /// (the row charge also polls the deadline and the cancel token every
    /// [`DEADLINE_STRIDE`] rows). Materialised bytes are added to
    /// `charged_bytes`. `false` means a limit fired (sticky; the caller
    /// abandons the batch).
    fn settle(&mut self, ctx: &EvalCtx, charged_bytes: &mut u64, force: bool) -> bool {
        let pending = self.rows - self.charged_rows;
        if pending == 0 || (!force && pending < MEM_CHARGE_CHUNK) {
            return true;
        }
        self.charged_rows = self.rows;
        if !ctx.charge(pending) {
            return false;
        }
        let bytes = (self.src.len() - self.charged_len) as u64 * self.row_bytes;
        self.charged_len = self.src.len();
        if bytes > 0 {
            *charged_bytes += bytes;
            if !ctx.charge_mem(bytes) {
                return false;
            }
        }
        true
    }

    /// Settles the last rows and gathers the output batch.
    fn finish(
        mut self,
        ctx: &EvalCtx,
        batch: &Batch,
        keep: &[usize],
        binds: &[(usize, usize)],
        fresh: Vec<Vec<u64>>,
        charged_bytes: &mut u64,
    ) -> Option<Batch> {
        self.settle(ctx, charged_bytes, true)
            .then(|| self.gather(batch, keep, binds, fresh))
    }

    /// Gathers `keep` columns of `batch` through the source rows and
    /// installs freshly built bind columns (the buffers were already
    /// charged as they grew).
    fn gather(
        self,
        batch: &Batch,
        keep: &[usize],
        binds: &[(usize, usize)],
        fresh: Vec<Vec<u64>>,
    ) -> Batch {
        let mut cols: Vec<Option<Vec<u64>>> = vec![None; batch.cols.len()];
        for &s in keep {
            let old = batch.col(s);
            cols[s] = Some(self.src.iter().map(|&i| old[i as usize]).collect());
        }
        for ((_, slot), vals) in binds.iter().zip(fresh) {
            debug_assert_eq!(vals.len(), self.src.len());
            cols[*slot] = Some(vals);
        }
        Batch {
            len: self.src.len(),
            cols,
            weights: self.weights,
        }
    }
}

impl ProbeSpec {
    /// Leaves quad position `pos` (S or O) unconstrained.
    fn unbind(&mut self, pos: usize) {
        if pos == quadstore::ids::S {
            self.s = PosSpec::Any;
        } else {
            self.o = PosSpec::Any;
        }
    }

    /// The per-row probe pattern (mirrors [`probe_pattern`] over a row
    /// whose bound slots come from columns and base constants).
    fn pattern(&self, batch: &Batch, i: usize) -> QuadPattern {
        self.pattern_with(|s| batch.col(s)[i])
    }

    /// The probe pattern with every column position bound to `col(slot)`.
    fn pattern_with(&self, col: impl Fn(usize) -> u64) -> QuadPattern {
        let get = |ps: &PosSpec| match ps {
            PosSpec::Any => None,
            PosSpec::Const(id) => Some(TermId(*id)),
            PosSpec::Col(s) => Some(TermId(col(*s))),
        };
        QuadPattern {
            s: get(&self.s),
            p: get(&self.p),
            o: get(&self.o),
            g: match &self.g {
                GSpec::Fixed(g) => *g,
                GSpec::Col(s) => GraphConstraint::Named(TermId(col(*s))),
            },
        }
    }
}

impl ValSrc {
    fn value(&self, batch: &Batch, i: usize) -> u64 {
        match self {
            ValSrc::Const(id) => *id,
            ValSrc::Col(s) => batch.col(*s)[i],
        }
    }
}

/// The free variable positions a triple binds — `(position, slot)`, at the
/// variable's first position — updating the bind states, plus `(first,
/// later)` position pairs for a variable the triple repeats while still
/// unbound: it binds at the first and every matched quad must carry the
/// same ID at the later one (exactly `extend_row`'s consistency check).
/// `None` when the triple pins a constant absent from the store (per-row
/// probes would all be empty; rare enough to leave to the row evaluator).
#[allow(clippy::type_complexity)]
fn triple_binds(
    triple: &CTriple,
    bind: &mut [BindState],
) -> Option<(Vec<(usize, usize)>, Vec<(usize, usize)>)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut same: Vec<(usize, usize)> = Vec::new();
    let mut visit = |pos: usize, slot: usize| {
        if bind[slot] == BindState::Unbound {
            match out.iter().find(|&&(_, s)| s == slot) {
                Some(&(first, _)) => same.push((first, pos)),
                None => out.push((pos, slot)),
            }
        }
    };
    for (pos, cpos) in [
        (quadstore::ids::S, &triple.s),
        (quadstore::ids::P, &triple.p),
        (quadstore::ids::O, &triple.o),
    ] {
        match cpos {
            CPos::Var(slot) => visit(pos, *slot),
            CPos::Const(_, Some(_)) => {}
            CPos::Const(_, None) => return None,
        }
    }
    match &triple.g {
        CGraph::Any | CGraph::Default | CGraph::Const(_, Some(_)) => {}
        CGraph::Const(_, None) => return None,
        CGraph::Var(slot) => visit(quadstore::ids::G, *slot),
    }
    for &(_, slot) in &out {
        bind[slot] = BindState::Col;
    }
    Some((out, same))
}

/// Builds a probe spec from a triple and the current bind states,
/// recording column reads. `None` for constants absent from the store.
fn probe_spec(triple: &CTriple, bind: &[BindState]) -> Option<(ProbeSpec, Vec<usize>)> {
    let mut reads = Vec::new();
    let mut pos = |cpos: &CPos| -> Option<PosSpec> {
        match cpos {
            CPos::Var(slot) => match bind[*slot] {
                BindState::Unbound => Some(PosSpec::Any),
                BindState::Base(id) => Some(PosSpec::Const(id)),
                BindState::Col => {
                    reads.push(*slot);
                    Some(PosSpec::Col(*slot))
                }
            },
            CPos::Const(_, Some(id)) => Some(PosSpec::Const(id.0)),
            CPos::Const(_, None) => None,
        }
    };
    let s = pos(&triple.s)?;
    let p = pos(&triple.p)?;
    let o = pos(&triple.o)?;
    let g = match &triple.g {
        CGraph::Any => GSpec::Fixed(GraphConstraint::Any),
        CGraph::Default => GSpec::Fixed(GraphConstraint::DefaultOnly),
        CGraph::Const(_, Some(id)) => GSpec::Fixed(GraphConstraint::Named(*id)),
        CGraph::Const(_, None) => return None,
        CGraph::Var(slot) => match bind[*slot] {
            BindState::Unbound => GSpec::Fixed(GraphConstraint::AnyNamed),
            BindState::Base(id) => GSpec::Fixed(GraphConstraint::Named(TermId(id))),
            BindState::Col => {
                reads.push(*slot);
                GSpec::Col(*slot)
            }
        },
    };
    Some((ProbeSpec { s, p, o, g }, reads))
}

/// A bound slot's per-row value source.
fn val_src(slot: usize, bind: &[BindState], reads: &mut Vec<usize>) -> ValSrc {
    match bind[slot] {
        BindState::Base(id) => ValSrc::Const(id),
        BindState::Col => {
            reads.push(slot);
            ValSrc::Col(slot)
        }
        BindState::Unbound => unreachable!("caller checked boundness"),
    }
}

/// Residual consistency checks for a hash probe: every position
/// `extend_row` would verify that the key positions do not already cover.
fn hash_checks(
    triple: &CTriple,
    join_slots: &[usize],
    key_pos: &[usize],
    bind: &[BindState],
    reads: &mut Vec<usize>,
) -> Vec<(usize, ValSrc)> {
    let mut checks = Vec::new();
    let mut visit = |pos: usize, cpos: &CPos| {
        if key_pos.contains(&pos) {
            return;
        }
        match cpos {
            CPos::Var(slot) => {
                if join_slots.contains(slot) || bind[*slot] != BindState::Unbound {
                    checks.push((pos, val_src(*slot, bind, reads)));
                }
            }
            CPos::Const(_, Some(id)) => checks.push((pos, ValSrc::Const(id.0))),
            CPos::Const(_, None) => {}
        }
    };
    visit(quadstore::ids::S, &triple.s);
    visit(quadstore::ids::P, &triple.p);
    visit(quadstore::ids::O, &triple.o);
    if let CGraph::Var(slot) = &triple.g {
        if !key_pos.contains(&quadstore::ids::G)
            && (join_slots.contains(slot) || bind[*slot] != BindState::Unbound)
        {
            checks.push((quadstore::ids::G, val_src(*slot, bind, reads)));
        }
    }
    checks
}

/// Compiles one FILTER conjunct. Returns the spec plus whether the
/// expression references EXISTS (which widens liveness to every slot).
fn filter_spec<'p>(
    ctx: &EvalCtx,
    expr: &'p CExpr,
    base: &Row,
    bind: &[BindState],
    reads: &mut Vec<usize>,
) -> (FilterSpec<'p>, bool) {
    let mut slots = Vec::new();
    let exists = expr.collect_slots(&mut slots);
    let col_slots: Vec<usize> = {
        let mut cs: Vec<usize> = slots
            .iter()
            .copied()
            .filter(|&s| bind[s] == BindState::Col)
            .collect();
        cs.sort_unstable();
        cs.dedup();
        cs
    };
    if !exists && col_slots.is_empty() {
        // Every input is a base constant or statically unbound: constant
        // fold by evaluating against the base row (the exact environment
        // the row pipeline would see for these slots).
        let env = RowEnv {
            ctx,
            row: base,
            aggs: None,
        };
        let spec = if expr.eval_filter(&env) {
            FilterSpec::True
        } else {
            FilterSpec::False
        };
        return (spec, false);
    }
    reads.extend_from_slice(&col_slots);
    if !exists {
        match expr {
            CExpr::SlotEqConst(slot, Some(id), _) if bind[*slot] == BindState::Col => {
                return (
                    FilterSpec::ColEqConst {
                        slot: *slot,
                        id: *id,
                    },
                    false,
                );
            }
            CExpr::KindCheck(slot, kind) if bind[*slot] == BindState::Col => {
                return (
                    FilterSpec::ColKind {
                        slot: *slot,
                        kind: *kind,
                    },
                    false,
                );
            }
            _ => {}
        }
    }
    (FilterSpec::Generic { expr, col_slots }, exists)
}

/// The forward cursor a merge step on slot `on` reads its spans through,
/// or `None` when the step's probe (as `spec` builds it, base constants
/// included) does not end its bound prefix with `on` in every member.
fn merge_cursor(ctx: &EvalCtx, step: &Step, spec: &ProbeSpec, on: usize) -> Option<SpanCursor> {
    let key = step.triple.sole_position(on)?;
    ctx.view.span_cursor(&spec.pattern_with(|_| u64::MAX), key)
}
