//! The vectorized operators, one module each: [`probe`], [`intersect`],
//! [`hash`] and [`filter`]. Every operator turns one batch into the next
//! through [`Out`], charges through [`Run`], builds its own per-worker
//! state and tallies its own plan steps; the pipeline dispatches once per
//! batch, never per row.

mod filter;
mod hash;
mod intersect;
mod probe;

use super::batch::*;
use super::*;

pub(super) use {filter::Filter, hash::Hash, probe::Probe};

/// Estimated retained bytes per memo map entry, besides a closing list's
/// values (16 bytes each) or a count's key words.
const MEMO_ENTRY_BYTES: u64 = 48;

/// One vectorized operator and the columns it reads, binds and keeps.
pub(super) struct VecOp<'p> {
    pub(super) op: Op<'p>,
    /// The slots it reads, for liveness.
    pub(super) reads: Vec<usize>,
    /// The columns it fills from matched quads, as `(quad position,
    /// slot)`: every one while drafting, the live ones once pruned.
    pub(super) binds: Vec<(usize, usize)>,
    /// The input columns it carries through, once pruned.
    pub(super) keep: Vec<usize>,
}

pub(super) enum Op<'p> {
    Probe(Probe<'p>),
    Intersect(intersect::Intersect<'p>),
    Hash(Hash<'p>),
    Filter(Filter<'p>),
}

/// One operator's per-worker state, built by the operator.
pub(super) enum OpState {
    Probe(probe::Memo),
    Intersect(intersect::Memo),
    Hash(hash::Counts),
    Filter,
}

impl<'p> VecOp<'p> {
    /// A drafted op, before liveness prunes it.
    pub(super) fn draft(op: Op<'p>, reads: Vec<usize>, binds: Vec<(usize, usize)>) -> Self {
        let keep = Vec::new();
        VecOp {
            op,
            reads,
            binds,
            keep,
        }
    }

    /// Prunes the op's binds to the slots `need`ed after it and keeps the
    /// `live` columns needed; `live` becomes the columns after the op. A
    /// probe reads the positions of its live binds only.
    pub(super) fn prune(&mut self, need: &[bool], live: &mut Vec<bool>) {
        self.keep = (0..need.len()).filter(|&s| live[s] && need[s]).collect();
        self.binds.retain(|&(_, slot)| need[slot]);
        *live = vec![false; need.len()];
        for &s in self.keep.iter().chain(self.binds.iter().map(|(_, s)| s)) {
            live[s] = true;
        }
        if let Op::Probe(p) = &mut self.op {
            (p.positions, p.same) = scan_layout(&self.binds, &p.same);
        }
    }

    pub(super) fn state(&self) -> OpState {
        match &self.op {
            Op::Probe(op) => OpState::Probe(op.state()),
            Op::Intersect(_) => OpState::Intersect(Default::default()),
            Op::Hash(_) => OpState::Hash(Default::default()),
            Op::Filter(_) => OpState::Filter,
        }
    }

    /// Applies the op to a batch. `None` means a resource limit fired
    /// mid-operator (the charge totals match the row pipeline).
    pub(super) fn run(&self, run: &mut Run, state: &mut OpState, batch: Batch) -> Option<Batch> {
        match (&self.op, state) {
            (Op::Probe(op), OpState::Probe(memo)) => op.run(run, memo, batch),
            (Op::Intersect(op), OpState::Intersect(memo)) => op.run(run, memo, batch),
            (Op::Hash(op), OpState::Hash(counts)) => op.run(run, counts, batch),
            (Op::Filter(op), OpState::Filter) => op.run(run, batch),
            _ => unreachable!("an op runs on the state it built"),
        }
    }
}
