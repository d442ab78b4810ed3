//! `EXPLAIN LOGICAL`: the query tree between rewriting and planning.
//!
//! Compilation works on one tree, [`crate::plan::Node`]. Lowering builds
//! it from the AST (slot-resolved variables, dictionary-ID constants,
//! paths expanded), with every basic graph pattern an unplanned
//! [`Node::Steps`] chain in lowering order; the rewrite pass
//! ([`crate::rewrite`]) edits it in place; [`render`] prints it; and the
//! planner then orders each BGP and resolves each
//! [`Node::Unsatisfiable`] in place. The tree is executable at every
//! phase: an unplanned chain is a correct index nested-loop chain.

use rdf_model::{Term, TermId};

use crate::plan::{CForm, CGraph, CPos, CSelect, CompiledQuery, Node, VarTable};

/// A `?v = <const>` equality proven by a conjunctive filter: the variable
/// is *pinned* to one term for the whole scope of the filter. Recorded by
/// lowering; consumed by the pin-pushdown rewrite, which substitutes the
/// resolved ID into scan patterns. Planning drops them.
#[derive(Debug, Clone)]
pub struct Pin {
    /// The pinned variable's slot.
    pub slot: usize,
    /// The pinned constant.
    pub term: Term,
    /// Its dictionary ID (`None` = absent from the store).
    pub id: Option<TermId>,
}

/// All variable slots a node can bind, sorted.
pub fn node_vars(node: &Node) -> Vec<usize> {
    let mut out = Vec::new();
    collect_vars(node, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn collect_vars(node: &Node, out: &mut Vec<usize>) {
    match node {
        Node::Steps(steps) => {
            for step in steps {
                out.extend(step.triple.var_slots());
            }
        }
        Node::Path(p) => out.extend([&p.s, &p.o].into_iter().filter_map(CPos::slot)),
        Node::Join(children) => {
            for c in children {
                collect_vars(c, out);
            }
        }
        Node::Filter(_, _, inner) | Node::Unsatisfiable(inner) => collect_vars(inner, out),
        Node::Union(a, b) | Node::Optional(a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
        Node::SubSelect(sel) => out.extend(sel.projection.iter().map(|p| p.slot)),
        Node::Values { slots, .. } => out.extend(slots.iter().copied()),
        Node::Extend(slot, _) => out.push(*slot),
        Node::Minus(_) => {}
    }
}

/// Renders a rewritten, not yet planned query as indented text — the
/// `EXPLAIN LOGICAL` output (`pgq --explain-logical`). The header lists
/// which rewrite rules fired.
pub fn render(query: &CompiledQuery, applied_rules: &[&'static str]) -> String {
    let vars = &query.vars;
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
        CForm::Select(sel) => render_select(&mut out, vars, sel, 0),
        CForm::Ask(sel) => {
            out.push_str("ASK\n");
            render_node(&mut out, vars, &sel.root, 1);
        }
        CForm::Construct(templates, sel) => {
            out.push_str(&format!("CONSTRUCT ({} template quads)\n", templates.len()));
            render_select(&mut out, vars, sel, 1);
        }
    }
    for (i, node) in query.exists.iter().enumerate() {
        out.push_str(&format!("EXISTS #{i}\n"));
        render_node(&mut out, vars, node, 1);
    }
    out
}

fn render_select(out: &mut String, vars: &VarTable, sel: &CSelect, depth: usize) {
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

fn render_node(out: &mut String, vars: &VarTable, node: &Node, depth: usize) {
    let pad = "  ".repeat(depth);
    match node {
        Node::Steps(steps) => {
            out.push_str(&format!("{pad}BGP ({} triple patterns)\n", steps.len()));
            for t in steps.iter().map(|s| &s.triple) {
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
        Node::Path(p) => {
            out.push_str(&format!(
                "{pad}PATH {} -[closure]-> {}\n",
                render_pos(vars, &p.s),
                render_pos(vars, &p.o)
            ));
        }
        Node::Join(children) => {
            out.push_str(&format!("{pad}JOIN\n"));
            for c in children {
                render_node(out, vars, c, depth + 1);
            }
        }
        Node::Filter(exprs, pins, inner) => {
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
        Node::Union(a, b) => {
            out.push_str(&format!("{pad}UNION\n"));
            render_node(out, vars, a, depth + 1);
            render_node(out, vars, b, depth + 1);
        }
        Node::Optional(a, b) => {
            out.push_str(&format!("{pad}OPTIONAL\n"));
            render_node(out, vars, a, depth + 1);
            render_node(out, vars, b, depth + 1);
        }
        Node::SubSelect(sel) => {
            out.push_str(&format!("{pad}SUBQUERY\n"));
            render_select(out, vars, sel, depth + 1);
        }
        Node::Values { slots, rows } => {
            let names: Vec<String> = slots
                .iter()
                .map(|&s| format!("?{}", vars.name(s)))
                .collect();
            out.push_str(&format!(
                "{pad}VALUES {} ({} rows)\n",
                names.join(" "),
                rows.len()
            ));
        }
        Node::Extend(slot, _) => {
            out.push_str(&format!("{pad}BIND -> ?{}\n", vars.name(*slot)));
        }
        Node::Minus(inner) => {
            out.push_str(&format!("{pad}MINUS\n"));
            render_node(out, vars, inner, depth + 1);
        }
        Node::Unsatisfiable(inner) => {
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
