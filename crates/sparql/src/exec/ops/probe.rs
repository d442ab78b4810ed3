//! The index nested-loop probe, and the merge join's probe through a
//! forward cursor.

use super::*;
use quadstore::SpanCursor;

/// Index nested-loop probe: per input row, probe the per-row pattern and
/// emit one output row per match (memoized on the pattern, which repeats
/// in long runs because the drive column is index-sorted). A step that
/// binds nothing reads no positions: each input row is repeated once per
/// match (or, in count mode, weighted by the match count), an existence
/// and multiplicity check.
pub(crate) struct Probe<'p> {
    pub(super) step: &'p Step,
    pub(super) spec: ProbeSpec,
    /// A merge join's ([`Strategy::Merge`]) forward cursor: the per-row
    /// spans are runs of one index span that the rows, sorted on the key,
    /// meet in ascending order. Each worker reads them through its own
    /// copy, galloping forward from the last run, so it emits exactly the
    /// plain probe's rows in the probe's order.
    pub(super) cursor: Option<SpanCursor>,
    /// Quad positions read per match, laid out by [`scan_layout`].
    pub(super) positions: Vec<usize>,
    /// Pairs of quad positions while drafting, then of `positions`
    /// indexes, that must hold equal IDs.
    pub(super) same: Vec<(usize, usize)>,
}

/// A probe's per-worker memo: the last pattern probed and its matches.
pub(crate) struct Memo {
    pattern: Option<QuadPattern>,
    /// Matched quads' values, one vector per read position.
    vals: Vec<Vec<u64>>,
    count: usize,
    /// Merge probes: this worker's copy of the forward cursor.
    cursor: Option<SpanCursor>,
}

impl<'p> Probe<'p> {
    /// Drafts `step` as a probe. A base-row constant can bind a position
    /// the planner left free and move the probe to another index: then a
    /// merge step probes like any other.
    pub(crate) fn draft(
        ctx: &EvalCtx,
        step: &'p Step,
        bind: &mut [BindState],
    ) -> Option<VecOp<'p>> {
        let (spec, reads) = probe_spec(&step.triple, bind)?;
        let (binds_all, same) = triple_binds(&step.triple, bind)?;
        let cursor = match step.strategy {
            Strategy::Merge { on } => merge_cursor(ctx, step, &spec, on),
            _ => None,
        };
        let op = Op::Probe(Probe {
            step,
            spec,
            cursor,
            positions: Vec::new(),
            same,
        });
        Some(VecOp::draft(op, reads, binds_all))
    }

    pub(super) fn state(&self) -> Memo {
        Memo {
            pattern: None,
            vals: vec![Vec::new(); self.positions.len()],
            count: 0,
            cursor: self.cursor.clone(),
        }
    }

    pub(super) fn run(&self, run: &mut Run, memo: &mut Memo, batch: Batch) -> Option<Batch> {
        let binds = run.binds;
        let mut out = Out::new(&batch, run.count && binds.is_empty(), run.keep, binds);
        let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); binds.len()];
        for i in 0..batch.len {
            let pat = self.spec.pattern(&batch, i);
            if memo.pattern != Some(pat) {
                memo.vals.iter_mut().for_each(Vec::clear);
                memo.count = match &mut memo.cursor {
                    Some(cursor) => cursor.scan_columns(&pat, &self.positions, &mut memo.vals),
                    None => run
                        .ctx
                        .view
                        .scan_columns(&pat, &self.positions, &mut memo.vals),
                };
                if !self.same.is_empty() {
                    memo.count = retain_same(&mut memo.vals, &self.same, memo.count);
                }
                memo.pattern = Some(pat);
            }
            if memo.count > 0 {
                out.matched(i, memo.count as u64, batch.weight(i));
                for (col, vals) in fresh.iter_mut().zip(&memo.vals) {
                    col.extend_from_slice(vals);
                }
                if !out.settle(run, false) {
                    return None;
                }
            }
        }
        let out = out.finish(run, &batch, fresh);
        out.inspect(|out| run.tally(self.step, out))
    }
}

/// The forward cursor a merge step on slot `on` reads its spans through,
/// or `None` when the step's probe (as `spec` builds it, base constants
/// included) does not end its bound prefix with `on` in every member.
fn merge_cursor(ctx: &EvalCtx, step: &Step, spec: &ProbeSpec, on: usize) -> Option<SpanCursor> {
    let key = step.triple.sole_position(on)?;
    ctx.view.span_cursor(&spec.pattern_with(|_| u64::MAX), key)
}
