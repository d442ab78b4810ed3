//! Cost-based physical planning of basic graph patterns.
//!
//! Two join-order searches share one cost model, one set of statistics
//! and one emission path, chosen by BGP size alone:
//!
//! * **Dynamic programming** (2 to [`DP_MAX_PATTERNS`] triples):
//!   subset-indexed enumeration of left-deep join orders, each step
//!   costed as the cheaper of an index nested-loop probe and a hash join
//!   over a full scan. The search prefers connected extensions (a triple
//!   sharing a variable with the planned prefix) whenever one exists, so
//!   cartesian products are only considered when unavoidable — the
//!   classic DPsize pruning.
//! * **Greedy** (above the DP size cap, where the 2^n subset table stops
//!   paying for itself): joined-first, smallest per-probe fanout next.
//!
//! Cardinalities come from [`Estimator`]: index range estimates for
//! scans, and per-predicate distinct counts plus equi-depth object
//! histograms ([`quadstore::CboStats`]) for join fanouts, falling back to
//! the same snapshot's model-wide distinct counts when no predicate
//! statistics apply.

use std::collections::HashSet;
use std::sync::Arc;

use quadstore::{CboStats, DatasetView, GraphConstraint};
use rdf_model::TermId;

use crate::plan::{CGraph, CPos, CTriple, ForcedJoin, Node, Step, Strategy};

/// Cost charged per index probe (binary search + pointer chasing) relative
/// to one sequential key visit; used in the NLJ-vs-hash decision.
pub(crate) const PROBE_COST: f64 = 20.0;

/// Largest BGP the dynamic-programming enumerator will take on; beyond
/// this the subset table (2^n entries) stops paying for itself and the
/// planner falls back to the greedy heuristic.
pub(crate) const DP_MAX_PATTERNS: usize = 10;

/// Index positions of a triple's variables that are bound upstream — the
/// join positions a probe will constrain.
pub(crate) fn join_positions(triple: &CTriple, bound: &HashSet<usize>) -> Vec<usize> {
    let mut positions = Vec::new();
    if let CPos::Var(s) = &triple.s {
        if bound.contains(s) {
            positions.push(quadstore::ids::S);
        }
    }
    if let CPos::Var(s) = &triple.p {
        if bound.contains(s) {
            positions.push(quadstore::ids::P);
        }
    }
    if let CPos::Var(s) = &triple.o {
        if bound.contains(s) {
            positions.push(quadstore::ids::O);
        }
    }
    if let CGraph::Var(s) = &triple.g {
        if bound.contains(s) {
            positions.push(quadstore::ids::G);
        }
    }
    positions
}

/// Cardinality estimator over a dataset view: holds each member model's
/// statistics snapshot ([`CboStats`], computed lazily and pinned until
/// DML drifts past the refresh threshold).
pub(crate) struct Estimator<'a> {
    view: &'a DatasetView,
    stats: Vec<Arc<CboStats>>,
}

impl<'a> Estimator<'a> {
    pub(crate) fn new(view: &'a DatasetView) -> Estimator<'a> {
        let stats = view.members().iter().map(|m| m.cbo_stats()).collect();
        Estimator { view, stats }
    }

    /// Estimated rows of the constants-only scan of a triple.
    pub(crate) fn scan_rows(&self, triple: &CTriple) -> usize {
        if triple.unsatisfiable() {
            0
        } else {
            self.view.estimate(&triple.const_pattern())
        }
    }

    /// Expected matches per probe when the given positions are bound by
    /// the join, summed over members. A member uses its per-predicate
    /// distinct counts (and the object histogram when the object is a
    /// constant) when the pattern has a constant predicate and only
    /// subject/object join positions; otherwise the coarse fanout: its
    /// range estimate divided by its distinct counts per join position.
    /// Both come from the pinned snapshot, so planning never scans data.
    pub(crate) fn fanout(&self, triple: &CTriple, positions: &[usize]) -> f64 {
        let pattern = triple.const_pattern();
        let pure_so = !positions.is_empty()
            && positions
                .iter()
                .all(|&p| p == quadstore::ids::S || p == quadstore::ids::O);
        let pid = match &triple.p {
            CPos::Const(_, Some(id)) if pure_so => Some(id.0),
            _ => None,
        };
        let mut total = 0.0f64;
        for (member, stats) in self.view.members().iter().zip(&self.stats) {
            let est = member.estimate(&pattern) as f64;
            if est == 0.0 {
                continue;
            }
            // No predicate statistics apply, or the predicate was added
            // since the last refresh: the coarse fanout of this member.
            let Some(ps) = pid.and_then(|p| stats.predicate(p)) else {
                let denom: f64 =
                    positions.iter().map(|&p| stats.distinct[p].max(1) as f64).product();
                total += (est / denom).max(1.0).min(est);
                continue;
            };
            let mut denom = 1.0f64;
            for &p in positions {
                denom *= if p == quadstore::ids::S {
                    ps.distinct_subjects.max(1) as f64
                } else {
                    ps.distinct_objects.max(1) as f64
                };
            }
            let mut per = (est / denom).max(1.0).min(est.max(1.0));
            // A constant object narrows a subject join below the predicate
            // average: the histogram knows that value's depth.
            if positions == [quadstore::ids::S] {
                if let CPos::Const(_, Some(oid)) = &triple.o {
                    let rows = ps.objects.estimate_eq(oid.0);
                    if rows > 0.0 {
                        per = per.min((rows / ps.distinct_subjects.max(1) as f64).max(1.0));
                    }
                }
            }
            total += per;
        }
        total.max(1.0)
    }
}

/// Plans one BGP: chooses a join order (DP or greedy) and emits the
/// executable step chain with per-step strategy, access path, and
/// estimated output cardinality.
pub(crate) struct BgpPlanner<'a> {
    pub(crate) view: &'a DatasetView,
    pub(crate) est: &'a Estimator<'a>,
    pub(crate) force_join: Option<ForcedJoin>,
}

#[derive(Clone, Copy)]
struct Cand {
    cost: f64,
    card: f64,
    last: usize,
    prev: usize,
}

impl BgpPlanner<'_> {
    pub(crate) fn plan(&self, triples: Vec<CTriple>, bound: &mut HashSet<usize>) -> Option<Node> {
        if triples.is_empty() {
            return None;
        }
        let order = if (2..=DP_MAX_PATTERNS).contains(&triples.len()) {
            self.dp_order(&triples, bound)
        } else {
            self.greedy_order(&triples, bound)
        };
        Some(Node::Steps(self.emit(triples, &order, bound)))
    }

    /// Exhaustive left-deep join ordering over the 2^n subset lattice.
    /// Deterministic: masks ascend, candidates ascend, and a new path must
    /// strictly beat the recorded one.
    fn dp_order(&self, triples: &[CTriple], outer: &HashSet<usize>) -> Vec<usize> {
        let n = triples.len();
        let slot_sets: Vec<HashSet<usize>> = triples
            .iter()
            .map(|t| t.var_slots().into_iter().collect())
            .collect();
        let full = (1usize << n) - 1;
        let mut table: Vec<Option<Cand>> = vec![None; 1usize << n];
        for mask in 0..full {
            let (base_cost, base_card) = if mask == 0 {
                (0.0, 1.0)
            } else {
                match &table[mask] {
                    Some(c) => (c.cost, c.card),
                    None => continue,
                }
            };
            let mut bset: HashSet<usize> = outer.clone();
            for (i, slots) in slot_sets.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    bset.extend(slots.iter().copied());
                }
            }
            let any_joined = (0..n).any(|i| {
                mask & (1 << i) == 0 && slot_sets[i].iter().any(|s| bset.contains(s))
            });
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let joined = slot_sets[i].iter().any(|s| bset.contains(s));
                if any_joined && !joined {
                    continue;
                }
                let (step_cost, out_card) = self.step_cost(&triples[i], &bset, base_card);
                let cost = base_cost + step_cost;
                let next = mask | (1 << i);
                let better = match &table[next] {
                    None => true,
                    Some(c) => cost + 1e-9 < c.cost,
                };
                if better {
                    table[next] = Some(Cand { cost, card: out_card, last: i, prev: mask });
                }
            }
        }
        let mut order = vec![0usize; n];
        let mut mask = full;
        for slot in order.iter_mut().rev() {
            let c = table[mask].expect("connected extensions keep every subset reachable");
            *slot = c.last;
            mask = c.prev;
        }
        order
    }

    /// Cost and output cardinality of appending one triple to a prefix
    /// with cardinality `left_card` and bound set `bset`. Mirrors the
    /// formulas of [`Self::emit`] exactly so the DP's choices survive
    /// re-derivation at emission time.
    fn step_cost(&self, triple: &CTriple, bset: &HashSet<usize>, left_card: f64) -> (f64, f64) {
        let est_scan = self.est.scan_rows(triple) as f64;
        let positions = join_positions(triple, bset);
        if positions.is_empty() {
            (left_card * est_scan, left_card * est_scan)
        } else {
            let per_probe = self.est.fanout(triple, &positions);
            let nlj_cost = left_card * (PROBE_COST + per_probe);
            let hash_cost = 2.0 * est_scan + left_card;
            let cost = match self.force_join {
                Some(ForcedJoin::Nlj) => nlj_cost,
                Some(ForcedJoin::Hash) => hash_cost,
                None => nlj_cost.min(hash_cost),
            };
            (cost, (left_card * per_probe).max(1.0))
        }
    }

    /// The greedy ordering: joined-to-bound-set first, smallest per-probe
    /// fanout (or total estimate when unjoined) next.
    fn greedy_order(&self, triples: &[CTriple], outer: &HashSet<usize>) -> Vec<usize> {
        let mut remaining: Vec<(usize, &CTriple)> = triples.iter().enumerate().collect();
        let mut bound = outer.clone();
        let mut order = Vec::with_capacity(triples.len());
        while !remaining.is_empty() {
            let mut best = 0usize;
            let mut best_key = (usize::MAX, usize::MAX);
            for (i, (_, t)) in remaining.iter().enumerate() {
                let shared = t.var_slots().iter().filter(|s| bound.contains(s)).count();
                let cost = if t.unsatisfiable() {
                    0.0
                } else if shared > 0 {
                    self.est.fanout(t, &join_positions(t, &bound))
                } else {
                    self.est.scan_rows(t) as f64
                };
                let rank = if shared > 0 || order.is_empty() { 0 } else { 1 };
                let key = (rank, (cost * 1024.0).min(usize::MAX as f64) as usize);
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            let (orig, t) = remaining.swap_remove(best);
            for v in t.var_slots() {
                bound.insert(v);
            }
            order.push(orig);
        }
        order
    }

    /// Emits the planned steps in the chosen order: per-step strategy
    /// (index NLJ vs hash join, or the forced override), access path for
    /// EXPLAIN, estimated scan and output cardinalities. Updates `bound`
    /// with every slot the chain binds.
    fn emit(&self, triples: Vec<CTriple>, order: &[usize], bound: &mut HashSet<usize>) -> Vec<Step> {
        let mut slots: Vec<Option<CTriple>> = triples.into_iter().map(Some).collect();
        let mut steps = Vec::with_capacity(order.len());
        let mut left_card: f64 = 1.0;
        for &idx in order {
            let triple = slots[idx].take().expect("each triple planned once");
            let est_scan = self.est.scan_rows(&triple);

            // Slots of this triple already bound upstream = join slots.
            let join_slots: Vec<usize> = {
                let mut seen = HashSet::new();
                triple
                    .var_slots()
                    .into_iter()
                    .filter(|s| bound.contains(s) && seen.insert(*s))
                    .collect()
            };

            let strategy;
            let out_card;
            if join_slots.is_empty() {
                strategy = Strategy::IndexNlj;
                out_card = left_card * est_scan as f64;
            } else {
                let positions = join_positions(&triple, bound);
                let per_probe = self.est.fanout(&triple, &positions);
                let nlj_cost = left_card * (PROBE_COST + per_probe);
                let hash_cost = 2.0 * est_scan as f64 + left_card;
                strategy = match self.force_join {
                    Some(ForcedJoin::Nlj) => Strategy::IndexNlj,
                    Some(ForcedJoin::Hash) => Strategy::HashJoin { join_slots },
                    None if nlj_cost <= hash_cost => Strategy::IndexNlj,
                    None => Strategy::HashJoin { join_slots },
                };
                out_card = (left_card * per_probe).max(1.0);
            }
            left_card = out_card;

            // What access path will the probe use? (For EXPLAIN.) At probe
            // time only the *join* slots are bound — reflect exactly those
            // in the pattern. The hash build side scans constants only.
            let access = {
                let mut probe = triple.const_pattern();
                if !matches!(strategy, Strategy::HashJoin { .. }) {
                    if let CPos::Var(v) = &triple.s {
                        if bound.contains(v) && probe.s.is_none() {
                            probe.s = Some(TermId(u64::MAX));
                        }
                    }
                    if let CPos::Var(v) = &triple.p {
                        if bound.contains(v) && probe.p.is_none() {
                            probe.p = Some(TermId(u64::MAX));
                        }
                    }
                    if let CPos::Var(v) = &triple.o {
                        if bound.contains(v) && probe.o.is_none() {
                            probe.o = Some(TermId(u64::MAX));
                        }
                    }
                    if let CGraph::Var(v) = &triple.g {
                        if bound.contains(v) {
                            probe.g = GraphConstraint::Named(TermId(u64::MAX));
                        }
                    }
                }
                self.view
                    .access_paths(&probe)
                    .into_iter()
                    .next()
                    .map(|(_, p)| p)
            };

            for v in triple.var_slots() {
                bound.insert(v);
            }

            steps.push(Step {
                triple,
                strategy,
                est_scan,
                est_out: out_card.min(u64::MAX as f64) as u64,
                access,
            });
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadstore::Store;
    use rdf_model::{Quad, Term};

    fn quad(s: usize, o: usize) -> Quad {
        let iri = |kind: &str, i: usize| Term::iri(format!("http://{kind}{i}"));
        Quad::triple(iri("s", s), Term::iri("http://p"), iri("o", o)).unwrap()
    }

    #[test]
    fn coarse_fanout_reads_the_pinned_snapshot() {
        let store = Store::new();
        store.create_model("m").unwrap();
        // 8 quads, 4 distinct subjects -> fanout 2 per subject.
        let quads: Vec<Quad> = (0..8).map(|i| quad(i % 4, i)).collect();
        store.bulk_load("m", &quads).unwrap();
        // No constant predicate, so no per-predicate statistics apply.
        let any = CTriple { s: CPos::Var(0), p: CPos::Var(1), o: CPos::Var(2), g: CGraph::Any };
        let fanout = |store: &Store| {
            let view = store.dataset("m").unwrap();
            Estimator::new(&view).fanout(&any, &[quadstore::ids::S])
        };
        assert!((fanout(&store) - 2.0).abs() < 1e-9, "got {}", fanout(&store));
        // A write below the drift threshold keeps the snapshot: a fifth
        // subject raises the range estimate to 9, not the distinct count.
        store.insert("m", &quad(4, 8)).unwrap();
        assert!((fanout(&store) - 2.25).abs() < 1e-9, "got {}", fanout(&store));
    }
}
