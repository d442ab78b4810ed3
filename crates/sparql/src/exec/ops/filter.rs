//! A FILTER conjunction over a batch, as a selection vector.

use super::*;

/// A FILTER conjunction: its conjuncts select the rows that pass, which
/// are gathered in one pass per surviving column.
pub(crate) struct Filter<'p> {
    specs: Vec<FilterSpec<'p>>,
    /// The base row: a scalar conjunct's scratch row starts from it.
    base: Row,
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
    /// Scalar fallback: fill a scratch row with the listed columns (all
    /// the batch holds for `None`: an EXISTS may read any slot through its
    /// inner pattern) and evaluate through the row pipeline's `RowEnv`,
    /// with identical semantics.
    Generic {
        expr: &'p CExpr,
        col_slots: Option<Vec<usize>>,
    },
}

impl<'p> Filter<'p> {
    /// Drafts the conjunction `exprs`, noting in `exists` whether a
    /// conjunct references EXISTS (which widens liveness to every slot).
    pub(crate) fn draft(
        ctx: &EvalCtx,
        exprs: &'p [CExpr],
        base: &Row,
        bind: &[BindState],
        exists: &mut bool,
    ) -> VecOp<'p> {
        let mut reads = Vec::new();
        let specs = exprs
            .iter()
            .map(|f| filter_spec(ctx, f, base, bind, &mut reads, exists))
            .collect();
        let base = base.clone();
        VecOp::draft(Op::Filter(Filter { specs, base }), reads, Vec::new())
    }

    pub(super) fn run(&self, run: &mut Run, batch: Batch) -> Option<Batch> {
        let (ctx, in_len) = (run.ctx, batch.len);
        let mut out = Out::new(&batch, false, run.keep, run.binds);
        out.src.reserve(in_len);
        let mut scratch: Option<Row> = None;
        'rows: for i in 0..batch.len {
            // Filters produce no rows, so they observe deadlines and
            // cancellation through the rowless tick, one per stride.
            if i % 1024 == 1023 && !ctx.tick(1024) {
                return None;
            }
            for spec in &self.specs {
                let pass = match spec {
                    FilterSpec::True => true,
                    FilterSpec::False => false,
                    FilterSpec::ColEqConst { slot, id } => batch.col(*slot)[i] == *id,
                    FilterSpec::ColKind { slot, kind } => {
                        ctx.kind(batch.col(*slot)[i]) == Some(*kind)
                    }
                    FilterSpec::Generic { expr, col_slots } => {
                        let row = scratch.get_or_insert_with(|| self.base.clone());
                        match col_slots {
                            Some(slots) => {
                                slots.iter().for_each(|&s| row[s] = Some(batch.col(s)[i]))
                            }
                            None => {
                                for (s, col) in batch.cols.iter().enumerate() {
                                    row[s] = col.as_ref().map_or(self.base[s], |c| Some(c[i]));
                                }
                            }
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
            // Everything survived: reuse the batch as-is, dropping the
            // columns that die here.
            let mut batch = batch;
            for (s, col) in batch.cols.iter_mut().enumerate() {
                if !run.keep.contains(&s) {
                    *col = None;
                }
            }
            return Some(batch);
        }
        let bytes = out.src.len() as u64 * out.row_bytes;
        if bytes > 0 && !run.buffer(bytes) {
            return None;
        }
        Some(out.gather(&batch, Vec::new()))
    }
}

/// Compiles one FILTER conjunct, noting in `any_exists` whether it
/// references EXISTS.
fn filter_spec<'p>(
    ctx: &EvalCtx,
    expr: &'p CExpr,
    base: &Row,
    bind: &[BindState],
    reads: &mut Vec<usize>,
    any_exists: &mut bool,
) -> FilterSpec<'p> {
    let mut slots = Vec::new();
    let exists = expr.collect_slots(&mut slots);
    *any_exists |= exists;
    slots.retain(|&s| bind[s] == BindState::Col);
    slots.sort_unstable();
    slots.dedup();
    let col_slots = slots;
    if !exists && col_slots.is_empty() {
        // Every input is a base constant or statically unbound: constant
        // fold by evaluating against the base row (the exact environment
        // the row pipeline would see for these slots).
        let env = RowEnv {
            ctx,
            row: base,
            aggs: None,
        };
        return if expr.eval_filter(&env) {
            FilterSpec::True
        } else {
            FilterSpec::False
        };
    }
    reads.extend_from_slice(&col_slots);
    match *expr {
        CExpr::SlotEqConst(slot, Some(id), _) if !exists && bind[slot] == BindState::Col => {
            return FilterSpec::ColEqConst { slot, id };
        }
        CExpr::KindCheck(slot, kind) if !exists && bind[slot] == BindState::Col => {
            return FilterSpec::ColKind { slot, kind };
        }
        _ => {}
    }
    let col_slots = (!exists).then_some(col_slots);
    FilterSpec::Generic { expr, col_slots }
}
