//! The hash-join probe against the shared build table.

use super::*;

/// Hash-join probe: per input row, the key assembled from columns and
/// constants looks up the `OnceLock`-shared build table, and each
/// candidate quad that passes the residual checks is a match.
pub(crate) struct Hash<'p> {
    step: &'p Step,
    join_slots: &'p [usize],
    cell: Arc<OnceLock<BuildTable>>,
    key_srcs: Vec<ValSrc>,
    /// Residual equality checks for positions the key does not cover
    /// (mirrors `extend_row`'s consistency checks).
    checks: Vec<(usize, ValSrc)>,
    same: Vec<(usize, usize)>,
}

/// A collapsing hash probe's per-worker memo: the match count per key,
/// at most one entry per distinct key of the build table.
pub(crate) type Counts = HashMap<Vec<u64>, u64, IdHashState>;

impl<'p> Hash<'p> {
    /// Drafts `step`, or `None` when a key slot is statically unbound:
    /// that takes the row evaluator's per-row fallback.
    pub(crate) fn draft(
        ctx: &EvalCtx,
        step: &'p Step,
        join_slots: &'p [usize],
        bind: &mut [BindState],
    ) -> Option<VecOp<'p>> {
        if join_slots.iter().any(|&s| bind[s] == BindState::Unbound) {
            return None;
        }
        let mut reads = Vec::new();
        let key_srcs: Vec<ValSrc> = join_slots
            .iter()
            .map(|&s| val_src(s, bind, &mut reads))
            .collect();
        let key_pos = key_positions(&step.triple, join_slots);
        let checks = hash_checks(&step.triple, join_slots, &key_pos, bind, &mut reads);
        let (binds_all, same) = triple_binds(&step.triple, bind)?;
        let op = Op::Hash(Hash {
            step,
            join_slots,
            cell: ctx.build_cell(step),
            key_srcs,
            checks,
            same,
        });
        Some(VecOp::draft(op, reads, binds_all))
    }

    pub(super) fn run(&self, run: &mut Run, counts: &mut Counts, batch: Batch) -> Option<Batch> {
        let table = self
            .cell
            .get_or_init(|| build_table(run.ctx, self.step, self.join_slots));
        let binds = run.binds;
        let mut out = Out::new(&batch, run.count && binds.is_empty(), run.keep, binds);
        let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); binds.len()];
        let mut key = vec![0u64; self.key_srcs.len()];
        // A collapsing probe whose residual checks read no column counts
        // each key's matches once per query and worker.
        let memoise = out.collapse && self.checks.iter().all(|c| matches!(c.1, ValSrc::Const(_)));
        for i in 0..batch.len {
            for (dst, ks) in key.iter_mut().zip(&self.key_srcs) {
                *dst = ks.value(&batch, i);
            }
            let hit = memoise.then(|| counts.get(&key).copied()).flatten();
            let n = hit.unwrap_or_else(|| {
                let mut n = 0;
                for quad in table.get(&key) {
                    if self
                        .checks
                        .iter()
                        .any(|(pos, vs)| quad[*pos] != vs.value(&batch, i))
                        || self.same.iter().any(|&(a, b)| quad[a] != quad[b])
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
                counts.insert(key.clone(), n);
                if !run.hold(MEMO_ENTRY_BYTES + 8 * key.len() as u64) {
                    return None;
                }
            }
            if n > 0 {
                out.matched(i, n, batch.weight(i));
            }
            if !out.settle(run, false) {
                return None;
            }
        }
        let out = out.finish(run, &batch, fresh);
        out.inspect(|out| run.tally(self.step, out))
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
