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
//! This module holds what every operator shares: the batch, the output
//! builder ([`Out`]) and charge context ([`Run`]) an operator fills, the
//! compile passes and the morsel loop. The operators themselves, one
//! module each, are in [`ops`](super::ops).
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

use super::ops::{Filter, Hash, Op, OpState, Probe, VecOp};
use super::*;

/// Per-slot static binding state during pipeline compilation.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum BindState {
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
pub(super) struct ProbeSpec {
    s: PosSpec,
    p: PosSpec,
    o: PosSpec,
    g: GSpec,
}

/// A per-row scalar source (hash keys, residual equality checks).
#[derive(Clone, Copy)]
pub(super) enum ValSrc {
    Const(u64),
    Col(usize),
}

/// A step's profile tally key: its address, as the row evaluator keys it.
pub(super) fn step_key(step: &Step) -> usize {
    step as *const Step as usize
}

/// A batch of column vectors, indexed by binding slot. Only live slots
/// hold a column; every live column has exactly `len` values.
pub(super) struct Batch {
    pub(super) len: usize,
    pub(super) cols: Vec<Option<Vec<u64>>>,
    /// Count mode: each row's weight, once an operator has folded rows
    /// into weights; `None` weighs every row 1.
    pub(super) weights: Option<Vec<u64>>,
}

impl Batch {
    pub(super) fn col(&self, slot: usize) -> &[u64] {
        self.cols[slot].as_deref().expect("live column")
    }

    pub(super) fn weight(&self, i: usize) -> u64 {
        self.weights.as_ref().map_or(1, |w| w[i])
    }

    /// The solutions the batch stands for: its weights' sum.
    pub(super) fn total(&self) -> u64 {
        self.weights
            .as_ref()
            .map_or(self.len as u64, |w| w.iter().sum())
    }
}

/// Per-worker mutable pipeline state: each operator's memo, built by the
/// operator, persisted across morsels (the store is immutable during a
/// query). Dropping it releases the memos' memory charge.
pub(super) struct VecState<'c> {
    ctx: &'c EvalCtx,
    ops: Vec<OpState>,
    /// Bytes of memoised lists, bitmaps and counts charged for the query.
    held: u64,
}

impl Drop for VecState<'_> {
    fn drop(&mut self) {
        self.ctx.release_mem(self.held);
    }
}

impl<'c> VecState<'c> {
    pub(super) fn new(ctx: &'c EvalCtx, pipe: &VecPipeline<'_>) -> VecState<'c> {
        let ops = pipe.ops.iter().map(VecOp::state).collect();
        VecState { ctx, ops, held: 0 }
    }
}

/// A compiled vectorized pipeline for one UNION branch.
pub(super) struct VecPipeline<'p> {
    drive: &'p Step,
    /// The steps after the driving scan, every one run by some operator.
    chains: Vec<&'p [Step]>,
    /// The driving scan's pattern.
    pattern: QuadPattern,
    /// The driving scan's output-order preference (quad position 0..=3):
    /// where it binds the group key, so tying indexes break towards
    /// group-key-sorted output and the run-length accumulator sees long
    /// key runs. `None` keeps the sequential index choice, which ordered
    /// row production must: its rows match the streaming executor's.
    prefer: Option<usize>,
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
        let mut ops: Vec<VecOp<'p>> = Vec::new();
        for steps in chains.iter().copied() {
            for (idx, step) in steps.iter().enumerate() {
                let draft = match &step.strategy {
                    Strategy::HashJoin { join_slots } => {
                        Hash::draft(ctx, step, join_slots, &mut bind)?
                    }
                    strategy => {
                        let draft = Probe::draft(ctx, step, &mut bind)?;
                        // A closing step folds into the expand probe drafted
                        // just before it; anywhere else (its expand step
                        // drives the scan) it runs as the existence probe it
                        // is.
                        if let (Strategy::Intersect { on }, Some(prev), Some(d)) =
                            (strategy, idx.checked_sub(1), ops.last_mut())
                        {
                            if d.fold_close(&steps[prev], *on, &draft) {
                                continue;
                            }
                        }
                        draft
                    }
                };
                ops.push(draft);
            }
        }
        let mut any_exists = false;
        for filters in filters {
            ops.push(Filter::draft(ctx, filters, &base, &bind, &mut any_exists));
        }

        // An EXISTS inside a filter may read any slot through its inner
        // pattern: keep everything alive.
        let final_need: Vec<bool> = needed.iter().map(|&n| n || any_exists).collect();

        // Pass 2: backward liveness. need_from[k] = slots read by op k or
        // any later op, or needed by the output — minus slots op k binds
        // (they do not exist upstream of k).
        let nops = ops.len();
        let mut need_from: Vec<Vec<bool>> = vec![vec![false; nvars]; nops + 1];
        need_from[nops].clone_from(&final_need);
        for k in (0..nops).rev() {
            let mut cur = need_from[k + 1].clone();
            for &(_, slot) in &ops[k].binds {
                cur[slot] = false;
            }
            for &s in &ops[k].reads {
                cur[s] = true;
            }
            need_from[k] = cur;
        }

        // Pass 3: forward presence; prune drive columns, per-op binds and
        // keep lists to live slots.
        let drive_binds: Vec<(usize, usize)> = drive_binds_all
            .into_iter()
            .filter(|&(_, slot)| need_from[0][slot])
            .collect();
        let (positions, same) = scan_layout(&drive_binds, &drive_same);
        let drive_slots = drive_binds.iter().map(|&(_, slot)| slot).collect();
        let mut live = vec![false; nvars];
        for &(_, slot) in &drive_binds {
            live[slot] = true;
        }
        for (k, op) in ops.iter_mut().enumerate() {
            op.prune(&need_from[k + 1], &mut live);
        }
        let final_cols: Vec<usize> = (0..nvars).filter(|&s| live[s]).collect();

        let template = base.iter().zip(&final_need).map(|(v, &n)| v.filter(|_| n));

        Some(VecPipeline {
            drive,
            chains,
            pattern: probe_pattern(&base, &drive.triple)?,
            prefer,
            positions,
            drive_slots,
            same,
            ops,
            final_cols,
            bound: bind.iter().map(|b| *b != BindState::Unbound).collect(),
            count,
            template: template.collect(),
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
            p.add(step_key(self.drive), 0, 1, 0);
            for step in self.chains.iter().copied().flatten() {
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
        let profile = ctx.profile.is_some();

        // 1. Drive scan → columns.
        let t0 = profile.then(Instant::now);
        let mut dcols: Vec<Vec<u64>> = vec![Vec::new(); self.positions.len()];
        let mut n =
            ctx.view
                .scan_morsel_columns(&self.pattern, morsel, &self.positions, &mut dcols);
        if !self.same.is_empty() {
            n = retain_same(&mut dcols, &self.same, n);
        }
        if let (Some(p), Some(t0)) = (&ctx.profile, t0) {
            let nanos = t0.elapsed().as_nanos() as u64;
            p.add(step_key(self.drive), n as u64, 0, nanos);
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

        // 2. The operator chain, each op tallying its own steps.
        for (op, state) in self.ops.iter().zip(&mut st.ops) {
            if batch.len == 0 || ctx.is_exhausted() {
                return None;
            }
            let mut run = Run {
                ctx,
                count: self.count,
                binds: &op.binds,
                keep: &op.keep,
                charged: &mut *charged_bytes,
                held: &mut st.held,
                started: profile.then(|| (Instant::now(), batch.total())),
            };
            batch = op.run(&mut run, state, batch)?;
            if track && !matches!(op.op, Op::Filter(_)) {
                crate::metrics::vec_batches_emitted().inc();
                crate::metrics::vec_rows_emitted().add(batch.len as u64);
            }
        }
        (batch.len > 0).then_some(batch)
    }
}

/// The quad positions a scan reads to bind `binds` and check `same`: one
/// per bind (column `i` fills bind `i`), then any position only a `same`
/// pair reads; and `same` as pairs of indexes into those positions.
pub(super) fn scan_layout(
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
pub(super) fn retain_same(cols: &mut [Vec<u64>], same: &[(usize, usize)], n: usize) -> usize {
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

/// One operator's run over one batch: the query, the op's columns, and
/// the charges it makes besides its own state's.
pub(super) struct Run<'a> {
    pub(super) ctx: &'a EvalCtx,
    /// Count mode: rows carry weights (see the module docs).
    pub(super) count: bool,
    /// The op's [`VecOp::binds`] and [`VecOp::keep`].
    pub(super) binds: &'a [(usize, usize)],
    pub(super) keep: &'a [usize],
    /// Bytes of column buffers charged for the morsel, released once its
    /// rows are emitted.
    charged: &'a mut u64,
    /// Bytes of memos charged for the query, released when the worker's
    /// [`VecState`] drops.
    held: &'a mut u64,
    /// Under profiling: when the op started and the weighted rows into it.
    started: Option<(Instant, u64)>,
}

impl Run<'_> {
    /// Charges `bytes` of column buffers for the morsel.
    pub(super) fn buffer(&mut self, bytes: u64) -> bool {
        *self.charged += bytes;
        self.ctx.charge_mem(bytes)
    }

    /// Charges `bytes` of memo growth for the query.
    pub(super) fn hold(&mut self, bytes: u64) -> bool {
        *self.held += bytes;
        self.ctx.charge_mem(bytes)
    }

    /// Charges `bytes` of memo growth the op can do without, only if they
    /// fit the budget; the query runs on either way.
    pub(super) fn try_hold(&mut self, bytes: u64) -> bool {
        let held = self.ctx.try_charge_mem(bytes);
        if held {
            *self.held += bytes;
        }
        held
    }

    /// Under profiling: the profile, the weighted rows into the op (a
    /// step's loops) and the op's nanoseconds so far.
    pub(super) fn profile(&self) -> Option<(&ProfileState, u64, u64)> {
        let (t0, loops) = self.started?;
        let nanos = t0.elapsed().as_nanos() as u64;
        Some((self.ctx.profile.as_deref()?, loops, nanos))
    }

    /// Under profiling, tallies the rows of `out` and the rows into the op
    /// as `step`'s.
    pub(super) fn tally(&self, step: &Step, out: &Batch) {
        if let Some((p, loops, nanos)) = self.profile() {
            p.add(step_key(step), out.total(), loops, nanos);
        }
    }
}

/// An operator's output under construction: the input row each output
/// row comes from, and its weight when the output carries weights. Rows
/// are charged against the row budget in weighted counts, the solutions
/// they stand for (the row pipeline's totals), and against the memory
/// budget as the bytes of the rows materialised.
pub(super) struct Out<'a> {
    keep: &'a [usize],
    binds: &'a [(usize, usize)],
    pub(super) src: Vec<u32>,
    weights: Option<Vec<u64>>,
    /// Count mode with no live bind: each surviving input row is emitted
    /// once, weighted by its matches, instead of once per match.
    pub(super) collapse: bool,
    /// Bytes per materialised row: its columns, and its weight if any.
    pub(super) row_bytes: u64,
    /// Weighted rows produced, and how many of them (and of the
    /// materialised rows) are charged.
    pub(super) rows: u64,
    charged_rows: u64,
    charged_len: usize,
}

impl<'a> Out<'a> {
    /// The output of an op that carries `keep` and binds `binds`.
    pub(super) fn new(
        batch: &Batch,
        collapse: bool,
        keep: &'a [usize],
        binds: &'a [(usize, usize)],
    ) -> Out<'a> {
        let weighted = collapse || batch.weights.is_some();
        Out {
            keep,
            binds,
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
    pub(super) fn matched(&mut self, i: usize, n: u64, w: u64) {
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
    /// [`DEADLINE_STRIDE`] rows), and the bytes materialised since.
    /// `false` means a limit fired (sticky; the caller abandons the
    /// batch).
    pub(super) fn settle(&mut self, run: &mut Run, force: bool) -> bool {
        let pending = self.rows - self.charged_rows;
        if pending == 0 || (!force && pending < MEM_CHARGE_CHUNK) {
            return true;
        }
        self.charged_rows = self.rows;
        if !run.ctx.charge(pending) {
            return false;
        }
        let bytes = (self.src.len() - self.charged_len) as u64 * self.row_bytes;
        self.charged_len = self.src.len();
        bytes == 0 || run.buffer(bytes)
    }

    /// Settles the last rows and gathers the output batch.
    pub(super) fn finish(
        mut self,
        run: &mut Run,
        batch: &Batch,
        fresh: Vec<Vec<u64>>,
    ) -> Option<Batch> {
        self.settle(run, true).then(|| self.gather(batch, fresh))
    }

    /// Gathers the kept columns of `batch` through the source rows and
    /// installs freshly built bind columns (the buffers were already
    /// charged as they grew).
    pub(super) fn gather(self, batch: &Batch, fresh: Vec<Vec<u64>>) -> Batch {
        let mut cols: Vec<Option<Vec<u64>>> = vec![None; batch.cols.len()];
        for &s in self.keep {
            let old = batch.col(s);
            cols[s] = Some(self.src.iter().map(|&i| old[i as usize]).collect());
        }
        for ((_, slot), vals) in self.binds.iter().zip(fresh) {
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
    pub(super) fn unbind(&mut self, pos: usize) {
        if pos == quadstore::ids::S {
            self.s = PosSpec::Any;
        } else {
            self.o = PosSpec::Any;
        }
    }

    /// The per-row probe pattern (mirrors [`probe_pattern`] over a row
    /// whose bound slots come from columns and base constants).
    pub(super) fn pattern(&self, batch: &Batch, i: usize) -> QuadPattern {
        self.pattern_with(|s| batch.col(s)[i])
    }

    /// The probe pattern with every column position bound to `col(slot)`.
    pub(super) fn pattern_with(&self, col: impl Fn(usize) -> u64) -> QuadPattern {
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
    pub(super) fn value(&self, batch: &Batch, i: usize) -> u64 {
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
pub(super) fn triple_binds(
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
pub(super) fn probe_spec(triple: &CTriple, bind: &[BindState]) -> Option<(ProbeSpec, Vec<usize>)> {
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
pub(super) fn val_src(slot: usize, bind: &[BindState], reads: &mut Vec<usize>) -> ValSrc {
    match bind[slot] {
        BindState::Base(id) => ValSrc::Const(id),
        BindState::Col => {
            reads.push(slot);
            ValSrc::Col(slot)
        }
        BindState::Unbound => unreachable!("caller checked boundness"),
    }
}
