//! Rule-based rewrites over the logical algebra ([`crate::logical`]).
//!
//! The pass runs between lowering and physical planning:
//!
//! 1. **pin-pushdown** — a filter that pins `?v = <const>` substitutes the
//!    resolved dictionary ID into every scan position of its subtree
//!    (subject/object always, predicate and graph for IRIs — this is the
//!    GRAPH-scope narrowing rule when the pinned variable is a graph
//!    variable) and prepends a one-row VALUES so `?v` stays bound — but
//!    only when every solution of the subtree binds `?v`: where a UNION
//!    branch or an OPTIONAL may leave it unbound, the filter must reject
//!    that solution and the VALUES row would bind it instead. The
//!    original filter is kept as a safety net.
//! 2. **fold-constants** — boolean algebra over constant subexpressions;
//!    filters reduced to `true` are dropped.
//! 3. **prune-unsatisfiable** — a scan whose constant is absent from the
//!    dictionary can never match; the proof propagates structurally
//!    (empty UNION branches vanish, empty OPTIONAL right sides vanish,
//!    empty MINUS sides become no-ops, unsatisfiable join inputs are
//!    hoisted to the front so execution short-circuits before any work).
//! 4. **constant-false-filter** — `FILTER(false)` proves its scope empty.
//! 5. **prune-unused-bind** — BIND targets that no projection, filter,
//!    pattern or sibling expression references are dead code (BIND
//!    expressions are pure) and are removed.
//!
//! Rules run to a bounded fixpoint; every applied rule is recorded in the
//! trace rendered by `EXPLAIN LOGICAL`.

use std::collections::HashSet;
use std::mem;

use rdf_model::Term;

use crate::expr::{CExpr, Value};
use crate::logical::{LForm, LNode, LQuery, LSelect, Pin};
use crate::plan::{CAggregate, CGraph, CPos, PathStep};

/// Upper bound on rewrite fixpoint iterations. The rules are monotone
/// (they only shrink or annotate the tree), so convergence is fast; the
/// bound is a safety net, not a tuning knob.
const MAX_PASSES: usize = 4;

/// Names of rewrite rules applied to a query, in first-fired order.
#[derive(Debug, Default)]
pub struct RewriteTrace {
    applied: Vec<&'static str>,
}

impl RewriteTrace {
    fn note(&mut self, rule: &'static str) {
        if !self.applied.contains(&rule) {
            self.applied.push(rule);
        }
    }

    /// The applied rule names.
    pub fn applied(&self) -> &[&'static str] {
        &self.applied
    }
}

/// Rewrites a lowered query in place and reports which rules fired.
pub fn rewrite_query(query: &mut LQuery) -> RewriteTrace {
    let mut trace = RewriteTrace::default();
    {
        let mut roots: Vec<&mut LNode> = Vec::new();
        match &mut query.form {
            LForm::Select(sel) => roots.push(&mut sel.root),
            LForm::Ask(node) => roots.push(node),
            LForm::Construct(_, sel) => roots.push(&mut sel.root),
        }
        for (node, _) in &mut query.exists {
            roots.push(node);
        }
        for root in &mut roots {
            push_pins(root, &mut trace);
        }
        for _ in 0..MAX_PASSES {
            let mut changed = false;
            for root in &mut roots {
                changed |= fold_constants(root, &mut trace);
                changed |= propagate_unsat(root, &mut trace);
            }
            if !changed {
                break;
            }
        }
    }
    for _ in 0..MAX_PASSES {
        if !prune_unused_binds(query, &mut trace) {
            break;
        }
    }
    trace
}

fn take(node: &mut LNode) -> LNode {
    mem::replace(node, LNode::Bgp(Vec::new()))
}

// ---------------------------------------------------------------------------
// Pin pushdown
// ---------------------------------------------------------------------------

fn push_pins(node: &mut LNode, trace: &mut RewriteTrace) {
    match node {
        LNode::Filter { pins, inner, .. } => {
            push_pins(inner, trace);
            // An unpushed pin stays an ordinary equality in `exprs`.
            let bound = certainly_bound(inner);
            pins.retain(|pin| bound.contains(&pin.slot));
            if pins.is_empty() {
                return;
            }
            for pin in pins.iter() {
                substitute(inner, pin);
            }
            let values = LNode::Values {
                slots: pins.iter().map(|p| p.slot).collect(),
                rows: vec![pins.iter().map(|p| Some(p.term.clone())).collect()],
            };
            match &mut **inner {
                LNode::Join(children) => children.insert(0, values),
                _ => {
                    let prev = take(inner);
                    **inner = LNode::Join(vec![values, prev]);
                }
            }
            trace.note("pin-pushdown");
        }
        LNode::Join(children) => {
            for c in children {
                push_pins(c, trace);
            }
        }
        LNode::Union(a, b) | LNode::Optional(a, b) => {
            push_pins(a, trace);
            push_pins(b, trace);
        }
        LNode::Minus(inner) | LNode::Unsatisfiable(inner) => push_pins(inner, trace),
        LNode::SubSelect(sel) => push_pins(&mut sel.root, trace),
        LNode::Bgp(_) | LNode::Path(_) | LNode::Values { .. } | LNode::Extend(..) => {}
    }
}

/// The slots every solution of `node` binds.
fn certainly_bound(node: &LNode) -> HashSet<usize> {
    match node {
        LNode::Bgp(tps) => tps.iter().flat_map(|t| t.var_slots()).collect(),
        LNode::Path(p) => [&p.s, &p.o].into_iter().filter_map(CPos::slot).collect(),
        LNode::Join(children) => children.iter().flat_map(certainly_bound).collect(),
        LNode::Filter { inner, .. } | LNode::Unsatisfiable(inner) => certainly_bound(inner),
        LNode::Union(a, b) => &certainly_bound(a) & &certainly_bound(b),
        LNode::Optional(a, _) => certainly_bound(a),
        LNode::Values { slots, rows } => slots
            .iter()
            .enumerate()
            .filter(|(i, _)| rows.iter().all(|row| row[*i].is_some()))
            .map(|(_, slot)| *slot)
            .collect(),
        LNode::SubSelect(sel) => {
            let inner = certainly_bound(&sel.root);
            sel.projection
                .iter()
                .filter(|p| p.expr.is_none() && inner.contains(&p.slot))
                .map(|p| p.slot)
                .collect()
        }
        // BIND leaves its target unbound on an expression error; MINUS
        // binds nothing.
        LNode::Extend(..) | LNode::Minus(_) => HashSet::new(),
    }
}

/// Substitutes a pinned constant into every scan position of a subtree.
/// Does not descend into scopes with their own binding rules (sub-selects,
/// VALUES, BIND): the safety-net filter still constrains those.
fn substitute(node: &mut LNode, pin: &Pin) {
    match node {
        LNode::Bgp(tps) => {
            for t in tps {
                substitute_pos(&mut t.s, pin, false);
                substitute_pos(&mut t.p, pin, true);
                substitute_pos(&mut t.o, pin, false);
                if matches!(&t.g, CGraph::Var(s) if *s == pin.slot)
                    && matches!(&pin.term, Term::Iri(_))
                {
                    t.g = CGraph::Const(pin.term.clone(), pin.id);
                }
            }
        }
        LNode::Path(p) => {
            substitute_path(p, pin);
        }
        LNode::Join(children) => {
            for c in children {
                substitute(c, pin);
            }
        }
        LNode::Filter { inner, .. } => substitute(inner, pin),
        LNode::Union(a, b) | LNode::Optional(a, b) => {
            substitute(a, pin);
            substitute(b, pin);
        }
        LNode::Minus(inner) => substitute(inner, pin),
        LNode::Unsatisfiable(inner) => substitute(inner, pin),
        LNode::SubSelect(_) | LNode::Values { .. } | LNode::Extend(..) => {}
    }
}

fn substitute_pos(pos: &mut CPos, pin: &Pin, predicate: bool) {
    if predicate && !matches!(&pin.term, Term::Iri(_)) {
        return;
    }
    if matches!(pos, CPos::Var(s) if *s == pin.slot) {
        *pos = CPos::Const(pin.term.clone(), pin.id);
    }
}

fn substitute_path(p: &mut PathStep, pin: &Pin) {
    substitute_pos(&mut p.s, pin, false);
    substitute_pos(&mut p.o, pin, false);
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

fn fold_constants(node: &mut LNode, trace: &mut RewriteTrace) -> bool {
    let changed = match node {
        LNode::Join(children) => {
            let mut c = false;
            for child in children {
                c |= fold_constants(child, trace);
            }
            c
        }
        LNode::Filter { exprs, inner, pins } => {
            let mut c = fold_constants(inner, trace);
            for e in exprs.iter_mut() {
                c |= fold_expr(e);
            }
            let before = exprs.len();
            exprs.retain(|e| !matches!(e, CExpr::Const(Value::Bool(true))));
            if exprs.len() != before {
                c = true;
            }
            if exprs.is_empty() && pins.is_empty() {
                let prev = take(inner);
                *node = prev;
                c = true;
            }
            c
        }
        LNode::Union(a, b) | LNode::Optional(a, b) => {
            let ca = fold_constants(a, trace);
            let cb = fold_constants(b, trace);
            ca | cb
        }
        LNode::Minus(inner) => fold_constants(inner, trace),
        LNode::SubSelect(sel) => fold_constants(&mut sel.root, trace),
        LNode::Unsatisfiable(_)
        | LNode::Bgp(_)
        | LNode::Path(_)
        | LNode::Values { .. }
        | LNode::Extend(..) => false,
    };
    if changed {
        trace.note("fold-constants");
    }
    changed
}

/// Boolean-algebra folding over a compiled expression. Only constant
/// booleans participate: value coercion rules (effective boolean value of
/// numerics, errors) stay in the evaluator.
fn fold_expr(expr: &mut CExpr) -> bool {
    match expr {
        CExpr::And(a, b) => {
            let changed = fold_expr(a) | fold_expr(b);
            if let CExpr::Const(Value::Bool(false)) = **a {
                *expr = CExpr::Const(Value::Bool(false));
                return true;
            } else if let CExpr::Const(Value::Bool(false)) = **b {
                *expr = CExpr::Const(Value::Bool(false));
                return true;
            } else if let CExpr::Const(Value::Bool(true)) = **a {
                *expr = mem::replace(b, CExpr::Const(Value::Bool(true)));
                return true;
            } else if let CExpr::Const(Value::Bool(true)) = **b {
                *expr = mem::replace(a, CExpr::Const(Value::Bool(true)));
                return true;
            }
            changed
        }
        CExpr::Or(a, b) => {
            let changed = fold_expr(a) | fold_expr(b);
            if let CExpr::Const(Value::Bool(true)) = **a {
                *expr = CExpr::Const(Value::Bool(true));
                return true;
            } else if let CExpr::Const(Value::Bool(true)) = **b {
                *expr = CExpr::Const(Value::Bool(true));
                return true;
            } else if let CExpr::Const(Value::Bool(false)) = **a {
                *expr = mem::replace(b, CExpr::Const(Value::Bool(false)));
                return true;
            } else if let CExpr::Const(Value::Bool(false)) = **b {
                *expr = mem::replace(a, CExpr::Const(Value::Bool(false)));
                return true;
            }
            changed
        }
        CExpr::Not(a) => {
            let changed = fold_expr(a);
            if let CExpr::Const(Value::Bool(v)) = **a {
                *expr = CExpr::Const(Value::Bool(!v));
                return true;
            }
            changed
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Unsatisfiability
// ---------------------------------------------------------------------------

fn propagate_unsat(node: &mut LNode, trace: &mut RewriteTrace) -> bool {
    let mut changed = match node {
        LNode::Join(children) => {
            let mut c = false;
            for child in children.iter_mut() {
                c |= propagate_unsat(child, trace);
            }
            c
        }
        LNode::Filter { inner, .. } => propagate_unsat(inner, trace),
        LNode::Union(a, b) | LNode::Optional(a, b) => {
            let ca = propagate_unsat(a, trace);
            let cb = propagate_unsat(b, trace);
            ca | cb
        }
        LNode::Minus(inner) => propagate_unsat(inner, trace),
        LNode::SubSelect(sel) => propagate_unsat(&mut sel.root, trace),
        // Already-proven subtrees are final; do not re-derive.
        LNode::Unsatisfiable(_)
        | LNode::Bgp(_)
        | LNode::Path(_)
        | LNode::Values { .. }
        | LNode::Extend(..) => false,
    };

    match node {
        LNode::Bgp(tps) => {
            if !tps.is_empty() && tps.iter().any(|t| t.unsatisfiable()) {
                let inner = take(node);
                *node = LNode::Unsatisfiable(Box::new(inner));
                trace.note("prune-unsatisfiable");
                changed = true;
            }
        }
        LNode::Join(children) => {
            if children.iter().any(|c| matches!(c, LNode::Unsatisfiable(_))) {
                // Hoist proven-empty inputs to the front: the pipeline
                // starts with a zero-row producer and never runs the rest.
                children.sort_by_key(|c| !matches!(c, LNode::Unsatisfiable(_)));
                let inner = take(node);
                *node = LNode::Unsatisfiable(Box::new(inner));
                trace.note("prune-unsatisfiable");
                changed = true;
            } else {
                let before = children.len();
                if before > 1 {
                    children.retain(|c| !matches!(c, LNode::Bgp(tps) if tps.is_empty()));
                    if children.is_empty() {
                        *node = LNode::Bgp(Vec::new());
                        changed = true;
                    }
                }
                if let LNode::Join(children) = node {
                    if children.len() != before {
                        trace.note("simplify-join");
                        changed = true;
                    }
                    if children.len() == 1 {
                        let only = children.pop().expect("single child");
                        *node = only;
                        trace.note("simplify-join");
                        changed = true;
                    }
                }
            }
        }
        LNode::Union(a, b) => {
            let a_unsat = matches!(&**a, LNode::Unsatisfiable(_));
            let b_unsat = matches!(&**b, LNode::Unsatisfiable(_));
            if a_unsat && b_unsat {
                let inner = take(node);
                *node = LNode::Unsatisfiable(Box::new(inner));
                trace.note("prune-unsatisfiable");
                changed = true;
            } else if a_unsat {
                *node = take(b);
                trace.note("prune-empty-union-branch");
                changed = true;
            } else if b_unsat {
                *node = take(a);
                trace.note("prune-empty-union-branch");
                changed = true;
            }
        }
        LNode::Optional(a, b) => {
            if matches!(&**a, LNode::Unsatisfiable(_)) {
                let inner = take(node);
                *node = LNode::Unsatisfiable(Box::new(inner));
                trace.note("prune-unsatisfiable");
                changed = true;
            } else if matches!(&**b, LNode::Unsatisfiable(_)) {
                // OPTIONAL over an empty right side keeps every left row.
                *node = take(a);
                trace.note("drop-empty-optional");
                changed = true;
            }
        }
        LNode::Minus(inner) => {
            if matches!(&**inner, LNode::Unsatisfiable(_)) {
                // MINUS an empty set removes nothing.
                *node = LNode::Bgp(Vec::new());
                trace.note("drop-empty-minus");
                changed = true;
            }
        }
        LNode::Filter { exprs, inner, .. } => {
            let false_filter = exprs
                .iter()
                .any(|e| matches!(e, CExpr::Const(Value::Bool(false))));
            if false_filter || matches!(&**inner, LNode::Unsatisfiable(_)) {
                if let LNode::Unsatisfiable(proved) = &mut **inner {
                    let unwrapped = take(proved);
                    **inner = unwrapped;
                }
                let whole = take(node);
                *node = LNode::Unsatisfiable(Box::new(whole));
                trace.note(if false_filter {
                    "constant-false-filter"
                } else {
                    "prune-unsatisfiable"
                });
                changed = true;
            }
        }
        LNode::Unsatisfiable(inner) => {
            if matches!(&**inner, LNode::Unsatisfiable(_)) {
                if let LNode::Unsatisfiable(nested) = &mut **inner {
                    let flat = take(nested);
                    **inner = flat;
                    changed = true;
                }
            }
        }
        _ => {}
    }
    changed
}

// ---------------------------------------------------------------------------
// BIND liveness
// ---------------------------------------------------------------------------

fn prune_unused_binds(query: &mut LQuery, trace: &mut RewriteTrace) -> bool {
    let mut used = HashSet::new();
    match &query.form {
        LForm::Select(sel) | LForm::Construct(_, sel) => collect_select_uses(sel, &mut used),
        LForm::Ask(node) => collect_node_uses(node, &mut used),
    }
    for (node, _) in &query.exists {
        collect_node_uses(node, &mut used);
    }
    let mut changed = false;
    {
        let mut roots: Vec<&mut LNode> = Vec::new();
        match &mut query.form {
            LForm::Select(sel) => roots.push(&mut sel.root),
            LForm::Ask(node) => roots.push(node),
            LForm::Construct(_, sel) => roots.push(&mut sel.root),
        }
        for (node, _) in &mut query.exists {
            roots.push(node);
        }
        for root in roots {
            changed |= prune_binds_in(root, &used);
        }
    }
    if changed {
        trace.note("prune-unused-bind");
    }
    changed
}

fn prune_binds_in(node: &mut LNode, used: &HashSet<usize>) -> bool {
    match node {
        LNode::Join(children) => {
            let mut changed = false;
            let before = children.len();
            children.retain(|c| !matches!(c, LNode::Extend(slot, _) if !used.contains(slot)));
            if children.len() != before {
                changed = true;
            }
            for c in children.iter_mut() {
                changed |= prune_binds_in(c, used);
            }
            if children.len() == 1 {
                let only = children.pop().expect("single child");
                *node = only;
                changed = true;
            } else if children.is_empty() {
                *node = LNode::Bgp(Vec::new());
                changed = true;
            }
            changed
        }
        LNode::Extend(slot, _) if !used.contains(slot) => {
            *node = LNode::Bgp(Vec::new());
            true
        }
        LNode::Filter { inner, .. } => prune_binds_in(inner, used),
        LNode::Union(a, b) | LNode::Optional(a, b) => {
            let ca = prune_binds_in(a, used);
            let cb = prune_binds_in(b, used);
            ca | cb
        }
        LNode::Minus(inner) | LNode::Unsatisfiable(inner) => prune_binds_in(inner, used),
        LNode::SubSelect(sel) => prune_binds_in(&mut sel.root, used),
        _ => false,
    }
}

fn collect_select_uses(sel: &LSelect, used: &mut HashSet<usize>) {
    for p in sel.projection.iter().chain(&sel.hidden) {
        used.insert(p.slot);
        if let Some(e) = &p.expr {
            collect_expr_uses(e, used);
        }
    }
    for a in &sel.aggregates {
        match a {
            CAggregate::CountAll => {}
            CAggregate::Count { expr, .. }
            | CAggregate::Sum(expr)
            | CAggregate::Avg(expr)
            | CAggregate::Min(expr)
            | CAggregate::Max(expr) => collect_expr_uses(expr, used),
        }
    }
    used.extend(sel.group_slots.iter().copied());
    for e in &sel.having {
        collect_expr_uses(e, used);
    }
    for (e, _) in &sel.order_by {
        collect_expr_uses(e, used);
    }
    collect_node_uses(&sel.root, used);
}

fn collect_node_uses(node: &LNode, used: &mut HashSet<usize>) {
    match node {
        LNode::Bgp(tps) => {
            for t in tps {
                used.extend(t.var_slots());
            }
        }
        LNode::Path(p) => {
            if let CPos::Var(s) = &p.s {
                used.insert(*s);
            }
            if let CPos::Var(s) = &p.o {
                used.insert(*s);
            }
        }
        LNode::Join(children) => {
            for c in children {
                collect_node_uses(c, used);
            }
        }
        LNode::Filter { exprs, inner, pins } => {
            for e in exprs {
                collect_expr_uses(e, used);
            }
            for p in pins {
                used.insert(p.slot);
            }
            collect_node_uses(inner, used);
        }
        LNode::Union(a, b) | LNode::Optional(a, b) => {
            collect_node_uses(a, used);
            collect_node_uses(b, used);
        }
        LNode::SubSelect(sel) => collect_select_uses(sel, used),
        LNode::Values { slots, .. } => used.extend(slots.iter().copied()),
        // The defined slot is NOT a use: an Extend only stays alive when
        // some other site references its output.
        LNode::Extend(_, expr) => collect_expr_uses(expr, used),
        LNode::Minus(inner) | LNode::Unsatisfiable(inner) => collect_node_uses(inner, used),
    }
}

fn collect_expr_uses(expr: &CExpr, used: &mut HashSet<usize>) {
    match expr {
        CExpr::Var(s) | CExpr::KindCheck(s, _) => {
            used.insert(*s);
        }
        CExpr::SlotEqConst(s, _, fallback) => {
            used.insert(*s);
            collect_expr_uses(fallback, used);
        }
        CExpr::Or(a, b) | CExpr::And(a, b) | CExpr::Compare(_, a, b) | CExpr::Arith(_, a, b) => {
            collect_expr_uses(a, used);
            collect_expr_uses(b, used);
        }
        CExpr::Not(a) | CExpr::Neg(a) => collect_expr_uses(a, used),
        CExpr::Call(_, args) => {
            for a in args {
                collect_expr_uses(a, used);
            }
        }
        CExpr::Const(_) | CExpr::Agg(_) | CExpr::ExistsRef(_) => {}
    }
}
