//! Rule-based rewrites over the lowered query tree, in place.
//!
//! The pass runs between lowering and planning (see [`crate::logical`]):
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
use crate::logical::Pin;
use crate::plan::{CAggregate, CForm, CGraph, CPos, CSelect, CompiledQuery, Node, PathStep};

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
pub fn rewrite_query(query: &mut CompiledQuery) -> RewriteTrace {
    let mut trace = RewriteTrace::default();
    {
        let mut trees = roots(query);
        for root in &mut trees {
            push_pins(root, &mut trace);
        }
        for _ in 0..MAX_PASSES {
            let mut changed = false;
            for root in &mut trees {
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

/// The form's pattern tree, then every EXISTS pattern.
fn roots(query: &mut CompiledQuery) -> Vec<&mut Node> {
    let form = match &mut query.form {
        CForm::Select(sel) | CForm::Construct(_, sel) | CForm::Ask(sel) => &mut sel.root,
    };
    std::iter::once(form).chain(&mut query.exists).collect()
}

/// The empty group pattern: what a node taken out of the tree leaves.
impl Default for Node {
    fn default() -> Node {
        Node::Steps(Vec::new())
    }
}

fn take(node: &mut Node) -> Node {
    mem::take(node)
}

// ---------------------------------------------------------------------------
// Pin pushdown
// ---------------------------------------------------------------------------

fn push_pins(node: &mut Node, trace: &mut RewriteTrace) {
    match node {
        Node::Filter(_, pins, inner) => {
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
            let values = Node::Values {
                slots: pins.iter().map(|p| p.slot).collect(),
                rows: vec![pins.iter().map(|p| Some(p.term.clone())).collect()],
            };
            match &mut **inner {
                Node::Join(children) => children.insert(0, values),
                _ => {
                    let prev = take(inner);
                    **inner = Node::Join(vec![values, prev]);
                }
            }
            trace.note("pin-pushdown");
        }
        Node::Join(children) => {
            for c in children {
                push_pins(c, trace);
            }
        }
        Node::Union(a, b) | Node::Optional(a, b) => {
            push_pins(a, trace);
            push_pins(b, trace);
        }
        Node::Minus(inner) | Node::Unsatisfiable(inner) => push_pins(inner, trace),
        Node::SubSelect(sel) => push_pins(&mut sel.root, trace),
        Node::Steps(_) | Node::Path(_) | Node::Values { .. } | Node::Extend(..) => {}
    }
}

/// The slots every solution of `node` binds.
fn certainly_bound(node: &Node) -> HashSet<usize> {
    match node {
        Node::Steps(steps) => steps.iter().flat_map(|s| s.triple.var_slots()).collect(),
        Node::Path(p) => [&p.s, &p.o].into_iter().filter_map(CPos::slot).collect(),
        Node::Join(children) => children.iter().flat_map(certainly_bound).collect(),
        Node::Filter(_, _, inner) | Node::Unsatisfiable(inner) => certainly_bound(inner),
        Node::Union(a, b) => &certainly_bound(a) & &certainly_bound(b),
        Node::Optional(a, _) => certainly_bound(a),
        Node::Values { slots, rows } => slots
            .iter()
            .enumerate()
            .filter(|(i, _)| rows.iter().all(|row| row[*i].is_some()))
            .map(|(_, slot)| *slot)
            .collect(),
        Node::SubSelect(sel) => {
            let inner = certainly_bound(&sel.root);
            sel.projection
                .iter()
                .filter(|p| p.expr.is_none() && inner.contains(&p.slot))
                .map(|p| p.slot)
                .collect()
        }
        // BIND leaves its target unbound on an expression error; MINUS
        // binds nothing.
        Node::Extend(..) | Node::Minus(_) => HashSet::new(),
    }
}

/// Substitutes a pinned constant into every scan position of a subtree.
/// Does not descend into scopes with their own binding rules (sub-selects,
/// VALUES, BIND): the safety-net filter still constrains those.
fn substitute(node: &mut Node, pin: &Pin) {
    match node {
        Node::Steps(steps) => {
            for t in steps.iter_mut().map(|s| &mut s.triple) {
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
        Node::Path(p) => {
            substitute_path(p, pin);
        }
        Node::Join(children) => {
            for c in children {
                substitute(c, pin);
            }
        }
        Node::Filter(_, _, inner) => substitute(inner, pin),
        Node::Union(a, b) | Node::Optional(a, b) => {
            substitute(a, pin);
            substitute(b, pin);
        }
        Node::Minus(inner) => substitute(inner, pin),
        Node::Unsatisfiable(inner) => substitute(inner, pin),
        Node::SubSelect(_) | Node::Values { .. } | Node::Extend(..) => {}
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

fn fold_constants(node: &mut Node, trace: &mut RewriteTrace) -> bool {
    let changed = match node {
        Node::Join(children) => {
            let mut c = false;
            for child in children {
                c |= fold_constants(child, trace);
            }
            c
        }
        Node::Filter(exprs, pins, inner) => {
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
        Node::Union(a, b) | Node::Optional(a, b) => {
            let ca = fold_constants(a, trace);
            let cb = fold_constants(b, trace);
            ca | cb
        }
        Node::Minus(inner) => fold_constants(inner, trace),
        Node::SubSelect(sel) => fold_constants(&mut sel.root, trace),
        Node::Unsatisfiable(_)
        | Node::Steps(_)
        | Node::Path(_)
        | Node::Values { .. }
        | Node::Extend(..) => false,
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

fn propagate_unsat(node: &mut Node, trace: &mut RewriteTrace) -> bool {
    let mut changed = match node {
        Node::Join(children) => {
            let mut c = false;
            for child in children.iter_mut() {
                c |= propagate_unsat(child, trace);
            }
            c
        }
        Node::Filter(_, _, inner) => propagate_unsat(inner, trace),
        Node::Union(a, b) | Node::Optional(a, b) => {
            let ca = propagate_unsat(a, trace);
            let cb = propagate_unsat(b, trace);
            ca | cb
        }
        Node::Minus(inner) => propagate_unsat(inner, trace),
        Node::SubSelect(sel) => propagate_unsat(&mut sel.root, trace),
        // Already-proven subtrees are final; do not re-derive.
        Node::Unsatisfiable(_)
        | Node::Steps(_)
        | Node::Path(_)
        | Node::Values { .. }
        | Node::Extend(..) => false,
    };

    match node {
        Node::Steps(steps) if steps.iter().any(|s| s.triple.unsatisfiable()) => {
            let inner = take(node);
            *node = Node::Unsatisfiable(Box::new(inner));
            trace.note("prune-unsatisfiable");
            changed = true;
        }
        Node::Join(children) => {
            if children.iter().any(|c| matches!(c, Node::Unsatisfiable(_))) {
                // Hoist proven-empty inputs to the front: the pipeline
                // starts with a zero-row producer and never runs the rest.
                children.sort_by_key(|c| !matches!(c, Node::Unsatisfiable(_)));
                let inner = take(node);
                *node = Node::Unsatisfiable(Box::new(inner));
                trace.note("prune-unsatisfiable");
                changed = true;
            } else {
                let before = children.len();
                if before > 1 {
                    children.retain(|c| !matches!(c, Node::Steps(steps) if steps.is_empty()));
                    if children.is_empty() {
                        *node = Node::Steps(Vec::new());
                        changed = true;
                    }
                }
                if let Node::Join(children) = node {
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
        Node::Union(a, b) => {
            let a_unsat = matches!(&**a, Node::Unsatisfiable(_));
            let b_unsat = matches!(&**b, Node::Unsatisfiable(_));
            if a_unsat && b_unsat {
                let inner = take(node);
                *node = Node::Unsatisfiable(Box::new(inner));
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
        Node::Optional(a, b) => {
            if matches!(&**a, Node::Unsatisfiable(_)) {
                let inner = take(node);
                *node = Node::Unsatisfiable(Box::new(inner));
                trace.note("prune-unsatisfiable");
                changed = true;
            } else if matches!(&**b, Node::Unsatisfiable(_)) {
                // OPTIONAL over an empty right side keeps every left row.
                *node = take(a);
                trace.note("drop-empty-optional");
                changed = true;
            }
        }
        Node::Minus(inner) => {
            if matches!(&**inner, Node::Unsatisfiable(_)) {
                // MINUS an empty set removes nothing.
                *node = Node::Steps(Vec::new());
                trace.note("drop-empty-minus");
                changed = true;
            }
        }
        Node::Filter(exprs, _, inner) => {
            let false_filter = exprs
                .iter()
                .any(|e| matches!(e, CExpr::Const(Value::Bool(false))));
            if false_filter || matches!(&**inner, Node::Unsatisfiable(_)) {
                if let Node::Unsatisfiable(proved) = &mut **inner {
                    let unwrapped = take(proved);
                    **inner = unwrapped;
                }
                let whole = take(node);
                *node = Node::Unsatisfiable(Box::new(whole));
                trace.note(if false_filter {
                    "constant-false-filter"
                } else {
                    "prune-unsatisfiable"
                });
                changed = true;
            }
        }
        Node::Unsatisfiable(inner) => {
            if matches!(&**inner, Node::Unsatisfiable(_)) {
                if let Node::Unsatisfiable(nested) = &mut **inner {
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

fn prune_unused_binds(query: &mut CompiledQuery, trace: &mut RewriteTrace) -> bool {
    let mut used = HashSet::new();
    match &query.form {
        CForm::Select(sel) | CForm::Construct(_, sel) => collect_select_uses(sel, &mut used),
        CForm::Ask(sel) => collect_node_uses(&sel.root, &mut used),
    }
    for node in &query.exists {
        collect_node_uses(node, &mut used);
    }
    let mut changed = false;
    for root in roots(query) {
        changed |= prune_binds_in(root, &used);
    }
    if changed {
        trace.note("prune-unused-bind");
    }
    changed
}

fn prune_binds_in(node: &mut Node, used: &HashSet<usize>) -> bool {
    match node {
        Node::Join(children) => {
            let mut changed = false;
            let before = children.len();
            children.retain(|c| !matches!(c, Node::Extend(slot, _) if !used.contains(slot)));
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
                *node = Node::Steps(Vec::new());
                changed = true;
            }
            changed
        }
        Node::Extend(slot, _) if !used.contains(slot) => {
            *node = Node::Steps(Vec::new());
            true
        }
        Node::Filter(_, _, inner) => prune_binds_in(inner, used),
        Node::Union(a, b) | Node::Optional(a, b) => {
            let ca = prune_binds_in(a, used);
            let cb = prune_binds_in(b, used);
            ca | cb
        }
        Node::Minus(inner) | Node::Unsatisfiable(inner) => prune_binds_in(inner, used),
        Node::SubSelect(sel) => prune_binds_in(&mut sel.root, used),
        _ => false,
    }
}

fn collect_select_uses(sel: &CSelect, used: &mut HashSet<usize>) {
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

fn collect_node_uses(node: &Node, used: &mut HashSet<usize>) {
    match node {
        Node::Steps(steps) => {
            for step in steps {
                used.extend(step.triple.var_slots());
            }
        }
        Node::Path(p) => used.extend([&p.s, &p.o].into_iter().filter_map(CPos::slot)),
        Node::Join(children) => {
            for c in children {
                collect_node_uses(c, used);
            }
        }
        Node::Filter(exprs, pins, inner) => {
            for e in exprs {
                collect_expr_uses(e, used);
            }
            for p in pins {
                used.insert(p.slot);
            }
            collect_node_uses(inner, used);
        }
        Node::Union(a, b) | Node::Optional(a, b) => {
            collect_node_uses(a, used);
            collect_node_uses(b, used);
        }
        Node::SubSelect(sel) => collect_select_uses(sel, used),
        Node::Values { slots, .. } => used.extend(slots.iter().copied()),
        // The defined slot is NOT a use: an Extend only stays alive when
        // some other site references its output.
        Node::Extend(_, expr) => collect_expr_uses(expr, used),
        Node::Minus(inner) | Node::Unsatisfiable(inner) => collect_node_uses(inner, used),
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
