//! The logical query algebra — the optimizer's intermediate form.
//!
//! Compilation is layered (the classic optimizer pipeline the paper
//! attributes to Oracle's SEM_MATCH translation): the AST is first
//! *lowered* into this algebra (slot-resolved variables, dictionary-ID
//! constants, paths expanded), then a rule-based rewrite pass runs over
//! it ([`crate::rewrite`]), and only then does the physical planner
//! ([`crate::cost`]) pick join orders and strategies, emitting the
//! executable [`crate::plan::Node`] tree.
//!
//! The algebra deliberately reuses the compiled leaf types
//! ([`CTriple`], [`CExpr`], [`PathStep`]): the logical/physical split is
//! about *structure* (what joins what, which filters apply where), not
//! about re-encoding terms.

use std::collections::HashSet;

use rdf_model::{Term, TermId};

use crate::expr::CExpr;
use crate::plan::{CAggregate, CGraph, CPos, CProj, CTriple, PathStep, VarTable};

/// A `?v = <const>` equality proven by a conjunctive filter: the variable
/// is *pinned* to one term for the whole scope of the filter. Recorded by
/// lowering; consumed by the pin-pushdown rewrite, which substitutes the
/// resolved ID into scan patterns.
#[derive(Debug, Clone)]
pub struct Pin {
    /// The pinned variable's slot.
    pub slot: usize,
    /// The pinned constant.
    pub term: Term,
    /// Its dictionary ID (`None` = absent from the store).
    pub id: Option<TermId>,
}

/// A logical pattern-tree node. Mirrors [`crate::plan::Node`] minus every
/// physical decision: BGPs are unordered triple sets, not planned step
/// chains, and no join strategies exist yet.
#[derive(Debug, Clone)]
pub enum LNode {
    /// An unordered basic graph pattern.
    Bgp(Vec<CTriple>),
    /// A closure-path step (`p*`, `p+`, `p?`).
    Path(PathStep),
    /// Sequential join of children.
    Join(Vec<LNode>),
    /// Filters over the child's solutions, plus any pins lowered from
    /// them.
    Filter {
        /// Compiled filter expressions (conjunctive).
        exprs: Vec<CExpr>,
        /// `?v = <const>` pins extracted from the expressions.
        pins: Vec<Pin>,
        /// The filtered subtree.
        inner: Box<LNode>,
    },
    /// Union of two branches.
    Union(Box<LNode>, Box<LNode>),
    /// Left outer join.
    Optional(Box<LNode>, Box<LNode>),
    /// A nested sub-select (its own projection scope).
    SubSelect(Box<LSelect>),
    /// Inline VALUES rows.
    Values {
        /// Target slots.
        slots: Vec<usize>,
        /// Rows; `None` = UNDEF.
        rows: Vec<Vec<Option<Term>>>,
    },
    /// `BIND(expr AS ?v)`.
    Extend(usize, CExpr),
    /// `MINUS { ... }`.
    Minus(Box<LNode>),
    /// A subtree the rewrite pass proved can produce no solutions
    /// (missing constant, constant-false filter). The original subtree is
    /// kept for rendering and variable bookkeeping; the physical planner
    /// emits a zero-cost empty scan for anything but a plain BGP (whose
    /// own unsatisfiable triple already short-circuits execution).
    Unsatisfiable(Box<LNode>),
}

/// A logical SELECT (top-level or nested). Identical to
/// [`crate::plan::CSelect`] except the WHERE tree is logical.
#[derive(Debug, Clone)]
pub struct LSelect {
    /// DISTINCT flag.
    pub distinct: bool,
    /// Projected columns in order.
    pub projection: Vec<CProj>,
    /// Aggregates referenced by projection expressions.
    pub aggregates: Vec<CAggregate>,
    /// GROUP BY slots.
    pub group_slots: Vec<usize>,
    /// HAVING conditions.
    pub having: Vec<CExpr>,
    /// WHERE tree.
    pub root: LNode,
    /// ORDER BY keys (expr, descending).
    pub order_by: Vec<(CExpr, bool)>,
    /// Hidden per-group columns of aggregate-bearing ORDER BY keys.
    pub hidden: Vec<CProj>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: Option<usize>,
}

/// Logical query forms.
#[derive(Debug, Clone)]
pub enum LForm {
    /// `SELECT`.
    Select(LSelect),
    /// `ASK`.
    Ask(LNode),
    /// `CONSTRUCT`.
    Construct(Vec<crate::ast::QuadTemplate>, LSelect),
}

/// A lowered query: the form plus every `EXISTS { ... }` pattern, each
/// paired with a snapshot of the slots certainly bound at its filter site
/// (the physical planner seeds BGP planning with that bound set).
#[derive(Debug)]
pub struct LQuery {
    /// The query form.
    pub form: LForm,
    /// Compiled EXISTS patterns in [`CExpr::ExistsRef`] index order.
    pub exists: Vec<(LNode, HashSet<usize>)>,
}

/// All variable slots a logical node can bind.
pub fn lnode_vars(node: &LNode) -> Vec<usize> {
    let mut out = Vec::new();
    collect_vars(node, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn collect_vars(node: &LNode, out: &mut Vec<usize>) {
    match node {
        LNode::Bgp(tps) => {
            for t in tps {
                out.extend(t.var_slots());
            }
        }
        LNode::Path(p) => {
            if let CPos::Var(s) = &p.s {
                out.push(*s);
            }
            if let CPos::Var(s) = &p.o {
                out.push(*s);
            }
        }
        LNode::Join(children) => {
            for c in children {
                collect_vars(c, out);
            }
        }
        LNode::Filter { inner, .. } => collect_vars(inner, out),
        LNode::Union(a, b) | LNode::Optional(a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
        LNode::SubSelect(sel) => out.extend(sel.projection.iter().map(|p| p.slot)),
        LNode::Values { slots, .. } => out.extend(slots.iter().copied()),
        LNode::Extend(slot, _) => out.push(*slot),
        LNode::Minus(_) => {}
        LNode::Unsatisfiable(inner) => collect_vars(inner, out),
    }
}

/// Renders the rewritten logical plan as indented text — the
/// `EXPLAIN LOGICAL` output (`pgq --explain-logical`). The header lists
/// which rewrite rules fired.
pub fn render(vars: &VarTable, query: &LQuery, applied_rules: &[&'static str]) -> String {
    let mut out = String::new();
    out.push_str("LOGICAL PLAN");
    if applied_rules.is_empty() {
        out.push_str(" (no rewrites applied)\n");
    } else {
        out.push_str(" (rewrites: ");
        out.push_str(&applied_rules.join(", "));
        out.push_str(")\n");
    }
    match &query.form {
        LForm::Select(sel) => render_select(&mut out, vars, sel, 0),
        LForm::Ask(node) => {
            out.push_str("ASK\n");
            render_node(&mut out, vars, node, 1);
        }
        LForm::Construct(templates, sel) => {
            out.push_str(&format!("CONSTRUCT ({} template quads)\n", templates.len()));
            render_select(&mut out, vars, sel, 1);
        }
    }
    for (i, (node, _)) in query.exists.iter().enumerate() {
        out.push_str(&format!("EXISTS #{i}\n"));
        render_node(&mut out, vars, node, 1);
    }
    out
}

fn render_select(out: &mut String, vars: &VarTable, sel: &LSelect, depth: usize) {
    let pad = "  ".repeat(depth);
    let cols: Vec<String> = sel
        .projection
        .iter()
        .map(|p| format!("?{}", vars.name(p.slot)))
        .collect();
    out.push_str(&format!(
        "{pad}SELECT{} {}\n",
        if sel.distinct { " DISTINCT" } else { "" },
        cols.join(" ")
    ));
    render_node(out, vars, &sel.root, depth + 1);
}

fn render_node(out: &mut String, vars: &VarTable, node: &LNode, depth: usize) {
    let pad = "  ".repeat(depth);
    match node {
        LNode::Bgp(tps) => {
            out.push_str(&format!("{pad}BGP ({} triple patterns)\n", tps.len()));
            for t in tps {
                out.push_str(&format!(
                    "{pad}  {} {} {}{}\n",
                    render_pos(vars, &t.s),
                    render_pos(vars, &t.p),
                    render_pos(vars, &t.o),
                    match &t.g {
                        CGraph::Any | CGraph::Default => String::new(),
                        CGraph::Var(s) => format!(" GRAPH ?{}", vars.name(*s)),
                        CGraph::Const(term, _) => format!(" GRAPH {term}"),
                    }
                ));
            }
        }
        LNode::Path(p) => {
            out.push_str(&format!(
                "{pad}PATH {} -[closure]-> {}\n",
                render_pos(vars, &p.s),
                render_pos(vars, &p.o)
            ));
        }
        LNode::Join(children) => {
            out.push_str(&format!("{pad}JOIN\n"));
            for c in children {
                render_node(out, vars, c, depth + 1);
            }
        }
        LNode::Filter { exprs, pins, inner } => {
            let pin_text = if pins.is_empty() {
                String::new()
            } else {
                let rendered: Vec<String> = pins
                    .iter()
                    .map(|p| format!("?{} = {}", vars.name(p.slot), p.term))
                    .collect();
                format!(" [pins: {}]", rendered.join(", "))
            };
            out.push_str(&format!("{pad}FILTER ({} exprs){pin_text}\n", exprs.len()));
            render_node(out, vars, inner, depth + 1);
        }
        LNode::Union(a, b) => {
            out.push_str(&format!("{pad}UNION\n"));
            render_node(out, vars, a, depth + 1);
            render_node(out, vars, b, depth + 1);
        }
        LNode::Optional(a, b) => {
            out.push_str(&format!("{pad}OPTIONAL\n"));
            render_node(out, vars, a, depth + 1);
            render_node(out, vars, b, depth + 1);
        }
        LNode::SubSelect(sel) => {
            out.push_str(&format!("{pad}SUBQUERY\n"));
            render_select(out, vars, sel, depth + 1);
        }
        LNode::Values { slots, rows } => {
            let names: Vec<String> =
                slots.iter().map(|&s| format!("?{}", vars.name(s))).collect();
            out.push_str(&format!(
                "{pad}VALUES {} ({} rows)\n",
                names.join(" "),
                rows.len()
            ));
        }
        LNode::Extend(slot, _) => {
            out.push_str(&format!("{pad}BIND -> ?{}\n", vars.name(*slot)));
        }
        LNode::Minus(inner) => {
            out.push_str(&format!("{pad}MINUS\n"));
            render_node(out, vars, inner, depth + 1);
        }
        LNode::Unsatisfiable(inner) => {
            out.push_str(&format!("{pad}UNSATISFIABLE (yields no solutions)\n"));
            render_node(out, vars, inner, depth + 1);
        }
    }
}

fn render_pos(vars: &VarTable, pos: &CPos) -> String {
    match pos {
        CPos::Var(s) => format!("?{}", vars.name(*s)),
        CPos::Const(t, _) => t.to_string(),
    }
}
