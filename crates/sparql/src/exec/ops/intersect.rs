//! Cycle closing by span intersection: an expand probe fused with the
//! closing steps after it (`Strategy::Intersect`).

use super::*;

/// An index NLJ that binds one variable `v` (the expand step) fused with
/// the steps after it that `v` fully binds (the closing steps): per input
/// row, the expand step's matching `v` values, in probe order, are
/// intersected with each closing step's memoised, sorted (value,
/// multiplicity) list ([`CloseMemo`]), by galloping each value through the
/// lists ([`intersect_row`]) or, with one closing step and one ascending
/// run of values, by testing each key of the list against a bitmap of the
/// values ([`marked_row`]); a match surviving every list is emitted once
/// per combination of closing matches, exactly as the unfused probe steps
/// would emit it.
pub(crate) struct Intersect<'p> {
    step: &'p Step,
    spec: ProbeSpec,
    v_pos: usize,
    closes: Vec<Close<'p>>,
}

/// A closing step fused into an [`Intersect`]: its probe with the merge
/// variable left unbound, and the quad position that variable holds.
struct Close<'p> {
    step: &'p Step,
    spec: ProbeSpec,
    v_pos: usize,
}

/// An Intersect's per-worker memo: the expand step's values for the last
/// pattern probed, and the closing steps' lists.
#[derive(Default)]
pub(crate) struct Memo {
    pattern: Option<QuadPattern>,
    vals: Vec<u64>,
    closes: Vec<CloseMemo>,
    /// With one closing step: whether `vals` is one strictly ascending
    /// run, which [`Marks`] can hold.
    ascending: bool,
    /// `vals` as a bitmap, once a row has chosen the bit-test kernel for
    /// it and the budget has taken its growth.
    marks: Marks,
}

impl<'p> VecOp<'p> {
    /// Folds `close`, closing step `on`'s probe draft, into this draft
    /// when the draft runs `prev`, the step right before it: an index
    /// probe binding only `on` (at S or O) becomes an [`Intersect`], and
    /// an Intersect on `on` takes another closing step.
    pub(crate) fn fold_close(&mut self, prev: &'p Step, on: usize, close: &VecOp<'p>) -> bool {
        let (Op::Probe(c), true) = (&close.op, close.binds.is_empty()) else {
            return false;
        };
        let Some(v_pos) = c.step.triple.sole_s_or_o(on) else {
            return false;
        };
        match &self.op {
            Op::Probe(p)
                if std::ptr::eq(p.step, prev)
                    && p.cursor.is_none()
                    && p.same.is_empty()
                    && matches!(self.binds.as_slice(), [(_, s)] if *s == on)
                    && p.step.triple.sole_s_or_o(on).is_some() =>
            {
                self.op = Op::Intersect(Intersect {
                    step: p.step,
                    spec: p.spec,
                    v_pos: self.binds[0].0,
                    closes: Vec::new(),
                });
            }
            Op::Intersect(x)
                if std::ptr::eq(x.closes.last().map_or(x.step, |c| c.step), prev)
                    && self.binds[0].1 == on => {}
            _ => return false,
        }
        let Op::Intersect(x) = &mut self.op else {
            unreachable!()
        };
        let mut spec = c.spec;
        spec.unbind(v_pos);
        x.closes.push(Close {
            step: c.step,
            spec,
            v_pos,
        });
        self.reads
            .extend(close.reads.iter().copied().filter(|&s| s != on));
        true
    }
}

impl Intersect<'_> {
    /// Runs the op and tallies every fused step with the op's time: the
    /// expand step's rows are its matches, a closing step's loops the rows
    /// entering it.
    pub(super) fn run(&self, run: &mut Run, memo: &mut Memo, batch: Batch) -> Option<Batch> {
        let binds = run.binds;
        let collapse = run.count && binds.is_empty();
        let mut out = Out::new(&batch, collapse, run.keep, binds);
        // Rows produced: the expand step's matches and every closing
        // step's output, of which the last is the op's output and the rest
        // exist only as counts.
        let mut inner = Out::new(&batch, false, &[], &[]);
        let (mut produced, mut expanded) = (0u64, 0u64);
        let mut fresh: Vec<u64> = Vec::new();
        memo.closes
            .resize_with(self.closes.len(), CloseMemo::default);
        for cm in &mut memo.closes {
            (cm.loops, cm.rows) = (0, 0);
        }
        for i in 0..batch.len {
            let pat = self.spec.pattern(&batch, i);
            if memo.pattern != Some(pat) {
                memo.marks.unmark(&memo.vals);
                memo.vals.clear();
                let vals = std::slice::from_mut(&mut memo.vals);
                run.ctx.view.scan_columns(&pat, &[self.v_pos], vals);
                memo.pattern = Some(pat);
                // Several members, a delta or one triple in several graphs
                // break the run.
                memo.ascending =
                    self.closes.len() == 1 && memo.vals.windows(2).all(|p| p[0] < p[1]);
            }
            let mut grown = 0;
            for (close, cm) in self.closes.iter().zip(&mut memo.closes) {
                grown += cm.select(&run.ctx.view, &close.spec.pattern(&batch, i), close.v_pos);
            }
            if grown > 0 && !run.hold(grown) {
                return None;
            }
            let mut bits = memo.ascending && {
                let list = memo.closes[0].list;
                bit_tests_win(&memo.marks, &memo.vals, list.1 - list.0)
            };
            if bits && !memo.marks.set {
                // The bitmap only speeds the row up: growth the budget
                // cannot take leaves the row to the gallop.
                let grown = memo.marks.growth(&memo.vals);
                bits = grown == 0 || run.try_hold(grown);
                if bits {
                    memo.marks.mark(&memo.vals);
                }
            }
            let (vals, w) = (&memo.vals, batch.weight(i));
            expanded += vals.len() as u64 * w;
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
            if !inner.settle(run, false) || !out.settle(run, false) {
                return None;
            }
        }
        if !inner.settle(run, true) {
            return None;
        }
        let fresh = (!binds.is_empty()).then_some(fresh).into_iter().collect();
        let out = out.finish(run, &batch, fresh)?;
        if let Some((p, loops, nanos)) = run.profile() {
            p.add(step_key(self.step), expanded, loops, nanos);
            for (c, cm) in self.closes.iter().zip(&memo.closes) {
                p.add(step_key(c.step), cm.rows, cm.loops, nanos);
            }
        }
        Some(out)
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
