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
//! statistics apply. A join fanout divides by the larger of a member's
//! own distinct count and the join variable's domain over the whole
//! dataset ([`Estimator::domains`]): System R's containment rule,
//! `|R ⋈ S| = |R|·|S| / max(V(R,a), V(S,a))`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use quadstore::{CboStats, DatasetView, GraphConstraint};
use rdf_model::TermId;

use crate::plan::{CGraph, CPos, CTriple, ForcedJoin, Step, Strategy};

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

    /// Each variable's domain over the whole dataset: the smallest, over
    /// the variable's positions in `triples`, of the member-summed
    /// distinct count at that position. A subject or object under a
    /// constant predicate counts that predicate's distinct subjects or
    /// objects (0 in a member whose statistics lack it); any other
    /// position counts the member's distinct values there. Reads the
    /// pinned snapshots only, never an index.
    pub(crate) fn domains(&self, triples: &[CTriple]) -> Domains {
        let mut domains = Domains::new();
        for triple in triples {
            for (pos, slot) in triple.var_positions() {
                let count: u64 = self.stats.iter().map(|s| distinct_at(s, triple, pos)).sum();
                let count = count as f64;
                domains
                    .entry(slot)
                    .and_modify(|d| *d = d.min(count))
                    .or_insert(count);
            }
        }
        domains
    }

    /// Expected matches per probe when the given positions are bound by
    /// the join, summed over members. A member uses its per-predicate
    /// distinct counts (and the object histogram when the object is a
    /// constant) when the pattern has a constant predicate and only
    /// subject/object join positions; otherwise the coarse fanout: its
    /// range estimate divided by its distinct counts per join position.
    /// Each join position divides by the larger of the member's own count
    /// and the bound variable's domain, so a member that holds few of the
    /// variable's values is not priced as if every probe hit it. On one
    /// member the own count is never below the domain. Both come from the
    /// pinned snapshot, so planning never scans data. A per-predicate
    /// fanout may fall below one match: a probe whose positions are all
    /// bound (SP's `?p k:hasTag "t"` with `?p` bound) is a semi-join that
    /// drops most rows, and is priced as one. The coarse fanout keeps its
    /// floor of one, because it multiplies the distinct counts of
    /// positions that are often correlated (NG's `GRAPH ?e { ?e … }`).
    pub(crate) fn fanout(&self, triple: &CTriple, positions: &[usize], domains: &Domains) -> f64 {
        let pattern = triple.const_pattern();
        let pure_so = !positions.is_empty()
            && positions
                .iter()
                .all(|&p| p == quadstore::ids::S || p == quadstore::ids::O);
        let pid = match &triple.p {
            CPos::Const(_, Some(id)) if pure_so => Some(id.0),
            _ => None,
        };
        let domain = |pos: usize| {
            triple
                .var_positions()
                .find(|&(at, _)| at == pos)
                .and_then(|(_, slot)| domains.get(&slot).copied())
                .unwrap_or(0.0)
        };
        let denom = |pos: usize, own: u64| (own.max(1) as f64).max(domain(pos));
        let mut total = 0.0f64;
        for (member, stats) in self.view.members().iter().zip(&self.stats) {
            let est = member.estimate(&pattern) as f64;
            if est == 0.0 {
                continue;
            }
            // No predicate statistics apply, or the predicate was added
            // since the last refresh: the coarse fanout of this member.
            let Some(ps) = pid.and_then(|p| stats.predicate(p)) else {
                let d: f64 = positions
                    .iter()
                    .map(|&p| denom(p, stats.distinct[p]))
                    .product();
                total += (est / d).max(1.0).min(est);
                continue;
            };
            let mut d = 1.0f64;
            for &p in positions {
                d *= denom(p, distinct_at(stats, triple, p));
            }
            let mut per = (est / d).min(est);
            // A constant object narrows a subject join below the predicate
            // average: the histogram knows that value's depth.
            if positions == [quadstore::ids::S] {
                if let CPos::Const(_, Some(oid)) = &triple.o {
                    let rows = ps.objects.estimate_eq(oid.0);
                    if rows > 0.0 {
                        let subjects = denom(quadstore::ids::S, ps.distinct_subjects);
                        per = per.min(rows / subjects);
                    }
                }
            }
            total += per;
        }
        total
    }
}

/// Each variable slot's domain over a BGP's dataset ([`Estimator::domains`]).
pub(crate) type Domains = HashMap<usize, f64>;

/// One member's distinct count at quad position `pos` of `triple`: the
/// constant predicate's distinct subjects or objects at S or O (0 when
/// the snapshot lacks the predicate or the dictionary the constant),
/// else the member's distinct values at `pos`.
fn distinct_at(stats: &CboStats, triple: &CTriple, pos: usize) -> u64 {
    match &triple.p {
        CPos::Const(_, id) if pos == quadstore::ids::S || pos == quadstore::ids::O => {
            id.and_then(|id| stats.predicate(id.0)).map_or(0, |ps| {
                if pos == quadstore::ids::S {
                    ps.distinct_subjects
                } else {
                    ps.distinct_objects
                }
            })
        }
        _ => stats.distinct[pos],
    }
}

/// What appending one step to a planned prefix costs and yields
/// ([`BgpPlanner::price`]).
struct Price {
    /// Estimated rows of the step's constants-only scan.
    scan: usize,
    /// Cost of the chosen strategy.
    cost: f64,
    /// Estimated output rows.
    out: f64,
    /// Expected matches per probe (0 for an unjoined step).
    fanout: f64,
    /// Whether the step hash-joins instead of probing per row.
    hash: bool,
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
    pub(crate) fn plan(&self, triples: Vec<CTriple>, bound: &mut HashSet<usize>) -> Vec<Step> {
        if triples.is_empty() {
            return Vec::new();
        }
        // On one member no domain is below the member's own count, so the
        // rule cannot move a fanout there (`domains_never_move_a_one_member_fanout`).
        let domains = match self.view.members().len() {
            1 => Domains::new(),
            _ => self.est.domains(&triples),
        };
        let order = if (2..=DP_MAX_PATTERNS).contains(&triples.len()) {
            self.dp_order(&triples, bound, &domains)
        } else {
            self.greedy_order(&triples, bound, &domains)
        };
        self.emit(triples, &order, bound, &domains)
    }

    /// Exhaustive left-deep join ordering over the 2^n subset lattice.
    /// Deterministic: masks ascend, candidates ascend, and a new path must
    /// strictly beat the recorded one.
    fn dp_order(
        &self,
        triples: &[CTriple],
        outer: &HashSet<usize>,
        domains: &Domains,
    ) -> Vec<usize> {
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
            let any_joined = (0..n)
                .any(|i| mask & (1 << i) == 0 && slot_sets[i].iter().any(|s| bset.contains(s)));
            for i in 0..n {
                if mask & (1 << i) != 0 {
                    continue;
                }
                let joined = slot_sets[i].iter().any(|s| bset.contains(s));
                if any_joined && !joined {
                    continue;
                }
                let price = self.price(&triples[i], &bset, base_card, domains);
                let cost = base_cost + price.cost;
                let next = mask | (1 << i);
                let better = match &table[next] {
                    None => true,
                    Some(c) => cost + 1e-9 < c.cost,
                };
                if better {
                    table[next] = Some(Cand {
                        cost,
                        card: price.out,
                        last: i,
                        prev: mask,
                    });
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

    /// The one pricing of a step that the DP, the greedy order and
    /// [`Self::emit`] all read: appending `triple` to a prefix of `left`
    /// rows with slots `bound`. An unjoined step is a cartesian product;
    /// a joined one is the cheaper (or the forced) of an index NLJ,
    /// `left·(PROBE_COST + fanout)`, and a hash join over the step's
    /// constants-only scan, `2·scan + left`.
    fn price(
        &self,
        triple: &CTriple,
        bound: &HashSet<usize>,
        left: f64,
        domains: &Domains,
    ) -> Price {
        let scan = self.est.scan_rows(triple);
        let rows = scan as f64;
        let positions = join_positions(triple, bound);
        if positions.is_empty() {
            return Price {
                scan,
                cost: left * rows,
                out: left * rows,
                fanout: 0.0,
                hash: false,
            };
        }
        let fanout = self.est.fanout(triple, &positions, domains);
        let nlj = left * (PROBE_COST + fanout);
        let hash_cost = 2.0 * rows + left;
        let hash = match self.force_join {
            Some(ForcedJoin::Nlj) => false,
            Some(ForcedJoin::Hash) => true,
            None => hash_cost < nlj,
        };
        let cost = if hash { hash_cost } else { nlj };
        Price {
            scan,
            cost,
            out: (left * fanout).max(1.0),
            fanout,
            hash,
        }
    }

    /// The greedy ordering: joined-to-bound-set first, smallest per-probe
    /// fanout (or total estimate when unjoined) next.
    fn greedy_order(
        &self,
        triples: &[CTriple],
        outer: &HashSet<usize>,
        domains: &Domains,
    ) -> Vec<usize> {
        let mut remaining: Vec<(usize, &CTriple)> = triples.iter().enumerate().collect();
        let mut bound = outer.clone();
        let mut order = Vec::with_capacity(triples.len());
        while !remaining.is_empty() {
            let mut best = 0usize;
            let mut best_key = (usize::MAX, usize::MAX);
            for (i, (_, t)) in remaining.iter().enumerate() {
                let shared = t.var_slots().iter().filter(|s| bound.contains(s)).count();
                // Per probe when joined; the scan estimate when not.
                let price = self.price(t, &bound, 1.0, domains);
                let cost = if t.unsatisfiable() {
                    0.0
                } else if shared > 0 {
                    price.fanout
                } else {
                    price.out
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
    /// (index NLJ vs hash join, or the forced override), the cycle-closing
    /// fusion of [`Self::fuse_cycles`], access path for EXPLAIN, estimated
    /// scan and output cardinalities. Updates `bound` with every slot the
    /// chain binds.
    fn emit(
        &self,
        triples: Vec<CTriple>,
        order: &[usize],
        bound: &mut HashSet<usize>,
        domains: &Domains,
    ) -> Vec<Step> {
        let mut slots: Vec<Option<CTriple>> = triples.into_iter().map(Some).collect();
        let mut steps = Vec::with_capacity(order.len());
        let mut planned = Vec::with_capacity(order.len());
        let mut left_card: f64 = 1.0;
        for &idx in order {
            let triple = slots[idx].take().expect("each triple planned once");

            // Slots of this triple already bound upstream = join slots.
            let join_slots: Vec<usize> = {
                let mut seen = HashSet::new();
                triple
                    .var_slots()
                    .into_iter()
                    .filter(|s| bound.contains(s) && seen.insert(*s))
                    .collect()
            };

            let price = self.price(&triple, bound, left_card, domains);
            let strategy = if price.hash {
                Strategy::HashJoin { join_slots }
            } else {
                Strategy::IndexNlj
            };
            left_card = price.out;
            let mut joined = [false; 4];
            for (pos, slot) in triple.var_positions() {
                joined[pos] = bound.contains(&slot);
            }
            planned.push(Planned {
                joined,
                fanout: price.fanout,
            });
            for v in triple.var_slots() {
                bound.insert(v);
            }
            steps.push(Step {
                triple,
                strategy,
                est_scan: price.scan,
                est_out: price.out.min(u64::MAX as f64) as u64,
                access: None,
            });
        }
        if self.force_join.is_none() {
            self.fuse_cycles(&mut steps, &planned);
            self.merge_sorted(&mut steps, &planned);
        }
        // What access path will the probe use? (For EXPLAIN.) At probe
        // time only the *join* slots are bound — reflect exactly those in
        // the pattern. The hash build side scans constants only.
        for (step, p) in steps.iter_mut().zip(&planned) {
            let probe = if matches!(step.strategy, Strategy::HashJoin { .. }) {
                step.triple.const_pattern()
            } else {
                probe_shape(&step.triple, p.joined)
            };
            step.access = self.view.access_path(&probe);
        }
        steps
    }

    /// The cycle-closing fusion, applied after the join order is fixed.
    /// An expand step — an index probe with a join slot that binds exactly
    /// one new variable `v` (once, at S or O) and whose planner fanout is
    /// above 1, i.e. it grows its input (Umbra's criterion for a
    /// worst-case-optimal join) — fuses with the run of steps right after
    /// it that mention `v` once, at S or O, and are fully bound once `v`
    /// is. Every fused step must have a fixed graph, and every member's
    /// index for its probe with `v` unbound must sort `v` right after the
    /// bound prefix, so each span arrives sorted on `v`. The expand step
    /// becomes an index NLJ and the closing steps [`Strategy::Intersect`].
    fn fuse_cycles(&self, steps: &mut [Step], planned: &[Planned]) {
        let mut k = 0;
        while k < steps.len() {
            let Some(v) = self.expands(&steps[k].triple, &planned[k]) else {
                k += 1;
                continue;
            };
            let mut end = k + 1;
            while end < steps.len() && self.closes(&steps[end].triple, planned[end].joined, v) {
                end += 1;
            }
            if end > k + 1 {
                steps[k].strategy = Strategy::IndexNlj;
                for step in &mut steps[k + 1..end] {
                    step.strategy = Strategy::Intersect { on: v };
                }
            }
            k = end;
        }
    }

    /// The merge-join pass, applied after [`Self::fuse_cycles`]. The drive
    /// scan (step 0) emits each member's index span in order, so the
    /// variable at the first unbound position of every member's index for
    /// it arrives sorted within each morsel; every operator after the
    /// drive emits its output row by row in input order, so the variable
    /// stays sorted down the chain. A hash join on that variable alone
    /// becomes [`Strategy::Merge`] when every member's index for the
    /// step's probe orders the step's constants and then the variable:
    /// successive probes then read successive runs of one span.
    fn merge_sorted(&self, steps: &mut [Step], planned: &[Planned]) {
        let Some(drive) = steps.first() else { return };
        let sorted = drive.triple.var_positions().find(|&(pos, v)| {
            !planned[0].joined[pos]
                && drive.triple.sole_position(v).is_some()
                && self.sorted_on(&drive.triple, planned[0].joined, pos)
        });
        let Some((_, v)) = sorted else { return };
        for (step, p) in steps.iter_mut().zip(planned).skip(1) {
            if matches!(&step.strategy, Strategy::HashJoin { join_slots } if join_slots == &[v])
                && self.merges(&step.triple, p.joined, v)
            {
                step.strategy = Strategy::Merge { on: v };
            }
        }
    }

    /// Whether every member's index for `triple`'s probe with `joined`
    /// positions bound ends its bound prefix with `v`'s one position: what
    /// [`DatasetView::span_cursor`] walks.
    fn merges(&self, triple: &CTriple, joined: [bool; 4], v: usize) -> bool {
        let Some(pos) = triple.sole_position(v) else {
            return false;
        };
        let probe = probe_shape(triple, joined);
        !triple.unsatisfiable() && self.view.span_cursor(&probe, pos).is_some()
    }

    /// The variable an expand step binds: its only unbound position's
    /// slot, when the step grows its input and its spans are sorted on it.
    fn expands(&self, triple: &CTriple, planned: &Planned) -> Option<usize> {
        if planned.fanout <= 1.0 {
            return None;
        }
        let mut new = triple
            .var_positions()
            .filter(|&(pos, _)| !planned.joined[pos]);
        let (_, v) = new.next()?;
        if new.next().is_some() {
            return None;
        }
        let pos = triple.sole_s_or_o(v)?;
        self.sorted_on(triple, planned.joined, pos).then_some(v)
    }

    /// Whether a step with `joined` positions bound before it is a closing
    /// step for `v`: fully bound, with `v` at one position only, S or O,
    /// and its spans sorted on `v` once `v` is left unbound.
    fn closes(&self, triple: &CTriple, mut joined: [bool; 4], v: usize) -> bool {
        if triple.var_positions().any(|(pos, _)| !joined[pos]) {
            return false;
        }
        let Some(pos) = triple.sole_s_or_o(v) else {
            return false;
        };
        joined[pos] = false;
        self.sorted_on(triple, joined, pos)
    }

    /// Whether `triple` has a fixed graph and no absent constant, and every
    /// member's index for its probe with `joined` positions bound emits
    /// matches sorted on quad position `pos`.
    fn sorted_on(&self, triple: &CTriple, joined: [bool; 4], pos: usize) -> bool {
        if matches!(triple.g, CGraph::Var(_)) || triple.unsatisfiable() {
            return false;
        }
        let probe = probe_shape(triple, joined);
        self.view.members().iter().all(|m| {
            let path = m.choose_index(&probe);
            path.bound_prefix < 4 && path.index.position_at(path.bound_prefix) == pos
        })
    }
}

/// What [`BgpPlanner::emit`] records per step for the passes after it.
struct Planned {
    /// Which quad positions (S, P, O, G) hold a slot bound before the step.
    joined: [bool; 4],
    /// The planner's per-probe fanout (0 for an unjoined step).
    fanout: f64,
}

/// A triple's probe pattern shape: its constants, plus a placeholder ID at
/// every `joined` position. Index choice depends only on which positions
/// are bound, so this is what the executor's per-row probes will choose.
fn probe_shape(triple: &CTriple, joined: [bool; 4]) -> quadstore::QuadPattern {
    let mut probe = triple.const_pattern();
    let placeholder = TermId(u64::MAX);
    for (pos, _) in triple.var_positions().filter(|&(pos, _)| joined[pos]) {
        match pos {
            quadstore::ids::S => probe.s = Some(placeholder),
            quadstore::ids::P => probe.p = Some(placeholder),
            quadstore::ids::O => probe.o = Some(placeholder),
            _ => probe.g = GraphConstraint::Named(placeholder),
        }
    }
    probe
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_with, CForm, CompileOptions, Node};
    use quadstore::Store;
    use rdf_model::{GraphName, Quad, Term};

    /// Every ordered pair of distinct nodes among `n`, under each of
    /// `preds` predicates and in each of `graphs` named graphs.
    fn complete_store(n: usize, preds: usize, graphs: usize) -> Store {
        let store = Store::new();
        store.create_model("m").unwrap();
        let mut quads = Vec::new();
        for (a, b) in (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|(a, b)| a != b)
        {
            for (p, g) in (0..preds).flat_map(|p| (0..graphs).map(move |g| (p, g))) {
                quads.push(
                    Quad::new(
                        Term::iri(format!("http://n{a}")),
                        Term::iri(format!("http://p{p}")),
                        Term::iri(format!("http://n{b}")),
                        GraphName::iri(format!("http://g{g}")),
                    )
                    .unwrap(),
                );
            }
        }
        store.bulk_load("m", &quads).unwrap();
        store
    }

    /// The strategies of a `SELECT *`'s planned steps, in plan order
    /// (BGPs joined one after another).
    fn strategies(store: &Store, body: &str, force_join: Option<ForcedJoin>) -> Vec<Strategy> {
        let view = store.dataset("m").unwrap();
        let query = crate::parse_query(&format!("SELECT * WHERE {{ {body} }}")).unwrap();
        let options = CompileOptions {
            force_join,
            ..Default::default()
        };
        let CForm::Select(sel) = compile_with(&view, &query, options).unwrap().form else {
            panic!("expected a select");
        };
        let bgps = match sel.root {
            Node::Join(children) => children,
            root => vec![root],
        };
        bgps.into_iter()
            .flat_map(|bgp| match bgp {
                Node::Steps(steps) => steps,
                other => panic!("expected BGPs, got {other:?}"),
            })
            .map(|s| s.strategy)
            .collect()
    }

    const TRIANGLE: &str = "?x <http://p0> ?y . ?y <http://p0> ?z . ?z <http://p0> ?x";

    #[test]
    fn a_growing_expand_step_closes_its_cycle_by_intersection() {
        // Out-degree 5: the expand step's fanout is above 1.
        let store = complete_store(6, 1, 1);
        let got = strategies(&store, TRIANGLE, None);
        assert_eq!(got[1], Strategy::IndexNlj, "{got:?}");
        assert!(matches!(got[2], Strategy::Intersect { .. }), "{got:?}");
        // Forced strategies keep today's binary plans.
        for force in [ForcedJoin::Nlj, ForcedJoin::Hash] {
            let got = strategies(&store, TRIANGLE, Some(force));
            assert!(
                !got.iter().any(|s| matches!(s, Strategy::Intersect { .. })),
                "{got:?}"
            );
        }
    }

    #[test]
    fn no_intersection_without_growth_or_off_s_and_o() {
        let fused = |got: &[Strategy]| got.iter().any(|s| matches!(s, Strategy::Intersect { .. }));
        // A ring: every node has one successor, so the expand step's
        // fanout is 1 and it does not grow its input.
        let ring = Store::new();
        ring.create_model("m").unwrap();
        let node = |i: usize| Term::iri(format!("http://n{i}"));
        let quads: Vec<Quad> = (0..6)
            .map(|i| Quad::triple(node(i), Term::iri("http://p0"), node((i + 1) % 6)).unwrap())
            .collect();
        ring.bulk_load("m", &quads).unwrap();
        assert!(!fused(&strategies(&ring, TRIANGLE, None)));

        // Four predicates and three graphs between every pair: binding a
        // predicate or a graph variable grows the input, but the spans are
        // not sorted on it, so it never fuses.
        let store = complete_store(4, 4, 3);
        let at_p = "?x <http://p0> ?y . ?x ?q ?y . ?y ?q ?x";
        let at_g = "?x <http://p0> ?y . GRAPH ?g { ?x <http://p1> ?y . ?y <http://p2> ?x }";
        for bgp in [at_p, at_g] {
            let got = strategies(&store, bgp, None);
            assert!(!fused(&got), "{bgp}: {got:?}");
        }
    }

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
        let any = CTriple {
            s: CPos::Var(0),
            p: CPos::Var(1),
            o: CPos::Var(2),
            g: CGraph::Any,
        };
        let fanout = |store: &Store| {
            let view = store.dataset("m").unwrap();
            Estimator::new(&view).fanout(&any, &[quadstore::ids::S], &Domains::new())
        };
        assert!(
            (fanout(&store) - 2.0).abs() < 1e-9,
            "got {}",
            fanout(&store)
        );
        // A write below the drift threshold keeps the snapshot: a fifth
        // subject raises the range estimate to 9, not the distinct count.
        store.insert("m", &quad(4, 8)).unwrap();
        assert!(
            (fanout(&store) - 2.25).abs() < 1e-9,
            "got {}",
            fanout(&store)
        );
    }

    /// A triple pattern from three tokens: `?name` is a variable, with one
    /// slot per distinct name in `vars`; anything else is the IRI
    /// `http://token`, with its ID in `view` (`None` when absent).
    fn tp(view: &DatasetView, vars: &mut Vec<String>, tokens: [&str; 3]) -> CTriple {
        let mut pos = |token: &str| match token.strip_prefix('?') {
            Some(name) => {
                let slot = vars.iter().position(|v| v == name).unwrap_or_else(|| {
                    vars.push(name.to_string());
                    vars.len() - 1
                });
                CPos::Var(slot)
            }
            None => {
                let term = Term::iri(format!("http://{token}"));
                let id = view.term_id(&term);
                CPos::Const(term, id)
            }
        };
        CTriple {
            s: pos(tokens[0]),
            p: pos(tokens[1]),
            o: pos(tokens[2]),
            g: CGraph::Any,
        }
    }

    const TOPO_QUADS: usize = 400;
    const EDGES: usize = 50;

    /// SP's shape over two models viewed as one, `v`. `topo` holds 400
    /// `follows` / `knows` quads among 20 nodes; `kv` holds 50 edge IRIs,
    /// each the predicate of one triple, with its `sub follows` anchor and
    /// a `tag` triple.
    fn sp_union() -> Store {
        let store = Store::new();
        let triple = |s: &str, p: &str, o: &str| {
            let iri = |name: &str| Term::iri(format!("http://{name}"));
            Quad::triple(iri(s), iri(p), iri(o)).unwrap()
        };
        let mut topo = Vec::new();
        for a in 0..20 {
            for b in 1..=10 {
                for p in ["follows", "knows"] {
                    topo.push(triple(&format!("n{a}"), p, &format!("n{}", (a + b) % 20)));
                }
            }
        }
        let mut kv = Vec::new();
        for i in 0..EDGES {
            let e = format!("e{i}");
            kv.push(triple(
                &format!("n{}", i % 20),
                &e,
                &format!("n{}", (i + 3) % 20),
            ));
            kv.push(triple(&e, "sub", "follows"));
            kv.push(triple(&e, "tag", &format!("t{}", i % 5)));
        }
        for (name, quads) in [("topo", topo), ("kv", kv)] {
            store.create_model(name).unwrap();
            store.bulk_load(name, &quads).unwrap();
        }
        store.create_virtual_model("v", &["topo", "kv"]).unwrap();
        store
    }

    #[test]
    fn a_member_without_the_join_values_is_capped_by_the_domain() {
        let store = sp_union();
        let view = store.dataset("v").unwrap();
        let est = Estimator::new(&view);
        let mut vars = Vec::new();
        let anchor = tp(&view, &mut vars, ["?p", "sub", "follows"]);
        let edge = tp(&view, &mut vars, ["?s", "?p", "?o"]);
        let domains = est.domains(&[anchor, edge.clone()]);
        // ?p: 50 subjects under `sub`, against 2 + 52 distinct predicates.
        assert_eq!(domains[&0], EDGES as f64);
        // `kv` holds 150 quads under 52 predicates; its own count is above
        // the domain, so only `topo` (2 predicates) is capped.
        let kv = 3.0 * EDGES as f64 / (EDGES + 2) as f64;
        let p = [quadstore::ids::P];
        let uncapped = est.fanout(&edge, &p, &Domains::new());
        assert!(
            (uncapped - (TOPO_QUADS as f64 / 2.0 + kv)).abs() < 1e-9,
            "got {uncapped}"
        );
        let capped = est.fanout(&edge, &p, &domains);
        let want = TOPO_QUADS as f64 / EDGES as f64 + kv;
        assert!((capped - want).abs() < 1e-9, "got {capped}, want {want}");
    }

    #[test]
    fn the_greedy_order_prices_joins_by_domain() {
        // Eleven patterns, above the DP cap. After the anchor, the edge
        // triple (fanout 400/50 + 150/52 ≈ 11) must come before a second
        // anchor on the same super-property (fanout 50); priced by the
        // topology member's own 2 predicates it would cost ≈ 203.
        let store = sp_union();
        let view = store.dataset("v").unwrap();
        let est = Estimator::new(&view);
        let mut vars = Vec::new();
        let mut triples = vec![
            tp(&view, &mut vars, ["?p", "sub", "?super"]),
            tp(&view, &mut vars, ["?q", "sub", "?super"]),
            tp(&view, &mut vars, ["?s", "?p", "?o"]),
        ];
        for hop in 0..8 {
            let (from, to) = (format!("?x{hop}"), format!("?x{}", hop + 1));
            let from = if hop == 0 { "?o".to_string() } else { from };
            triples.push(tp(&view, &mut vars, [&from, "follows", &to]));
        }
        assert!(triples.len() > DP_MAX_PATTERNS);
        let planner = BgpPlanner {
            view: &view,
            est: &est,
            force_join: None,
        };
        let domains = est.domains(&triples);
        let outer = HashSet::new();
        assert_eq!(
            planner.greedy_order(&triples, &outer, &domains)[..2],
            [0, 2]
        );
        assert_eq!(
            planner.greedy_order(&triples, &outer, &Domains::new())[..2],
            [0, 1]
        );
        let steps = planner.plan(triples, &mut HashSet::new());
        assert_eq!(
            steps[1].triple.p,
            CPos::Var(vars.iter().position(|v| v == "p").unwrap())
        );
        let fanout = TOPO_QUADS as f64 / EDGES as f64 + 3.0 * EDGES as f64 / (EDGES + 2) as f64;
        assert_eq!(steps[1].est_out, (EDGES as f64 * fanout) as u64);
    }

    #[test]
    fn domains_never_move_a_one_member_fanout() {
        let mut r = twittergen::rng::Rng::seed_from_u64(29);
        let tokens = [
            "?a", "?b", "?c", "?d", "n0", "n1", "n2", "p0", "p1", "p2", "p9",
        ];
        for case in 0..64 {
            let store = Store::new();
            store.create_model("m").unwrap();
            let iri = |kind: &str, i: usize| Term::iri(format!("http://{kind}{i}"));
            let quad = |r: &mut twittergen::rng::Rng| {
                let [s, p, o] = [r.gen_range(0..5), r.gen_range(0..4), r.gen_range(0..5)];
                Quad::triple(iri("n", s), iri("p", p), iri("n", o)).unwrap()
            };
            let quads: Vec<Quad> = (0..1 + r.gen_range(0..40)).map(|_| quad(&mut r)).collect();
            store.bulk_load("m", &quads).unwrap();
            // Writes below the drift threshold: the snapshot may lack a
            // predicate the data now holds.
            for _ in 0..r.gen_range(0..3) {
                store.insert("m", &quad(&mut r)).unwrap();
            }
            let view = store.dataset("m").unwrap();
            let est = Estimator::new(&view);
            let mut vars = Vec::new();
            let triples: Vec<CTriple> = (0..1 + r.gen_range(0..4))
                .map(|_| {
                    let mut pick = || tokens[r.gen_range(0..tokens.len())];
                    let mut t = tp(&view, &mut vars, [pick(), pick(), pick()]);
                    if r.gen_bool(0.25) {
                        t.g = CGraph::Var(r.gen_range(0..vars.len().max(1)));
                    }
                    t
                })
                .collect();
            let domains = est.domains(&triples);
            for t in &triples {
                for mask in 1..16u32 {
                    let bound: HashSet<usize> = (0..4).filter(|i| mask & (1 << i) != 0).collect();
                    let positions = join_positions(t, &bound);
                    if positions.is_empty() {
                        continue;
                    }
                    assert_eq!(
                        est.fanout(t, &positions, &domains),
                        est.fanout(t, &positions, &Domains::new()),
                        "case {case}: {t:?} at {positions:?}"
                    );
                }
            }
        }
    }
}
