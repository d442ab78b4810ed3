//! Plan rendering — the Table 5 analogue — plus `EXPLAIN ANALYZE`.
//!
//! For each planned triple pattern the output shows the bound components
//! (constants in brackets), the chosen index, and whether the access is an
//! index range scan probed per binding (NLJ), a full scan feeding a hash
//! join, or a cycle-closing step merged with the NLJ step before it on the
//! variable that step binds (`INTERSECT on ?z`), e.g.:
//!
//! ```text
//! 1: ?x <http://pg/r/follows> ?y  [P=<http://pg/r/follows>] PCSGM range scan (NLJ)
//! ```
//!
//! [`render_analyze`] re-renders the same plan annotated with the actual
//! rows, loops (input rows), and inclusive time each step recorded during
//! a profiled execution ([`crate::exec::execute_profiled`]):
//!
//! ```text
//! 1: ?x <...follows> ?y  [P=<...>] PCSGM range scan (NLJ) ~81 rows -> ~81 out (actual: rows=81 loops=1 time=0.113ms Q=1.0)
//! ```
//!
//! `Q=` is the step's Q-error — `max(est, actual) / min(est, actual)` of
//! the optimizer's output-row estimate, 1.0 being a perfect estimate.
//!
//! The profiled run uses the thread count the query asked for. Rows and
//! loops do not depend on it; at `threads > 1` a step's `time=` is the
//! sum over the workers that ran it, so it can exceed the wall time.
//!
//! Rows are pushed into the result tail, which stops them once it needs no
//! more, so under a tail that ends early — `LIMIT 10 (ends scan)`, or
//! `DISTINCT (streaming)` filling its LIMIT — a step's `actual` rows are
//! the rows it actually produced before the tail stopped: for the driving
//! step, the morsels scanned (whole ones), not the size of the relation. An ORDER BY reads every
//! row either way: `ORDER BY (2 keys, top 10)` keeps ten of them in a
//! bounded heap, `ORDER BY (2 keys)` sorts them all.

use std::fmt::Write as _;

use crate::exec::ExecProfile;
use crate::plan::{CForm, CGraph, CPos, CSelect, CompiledQuery, Node, Step, Strategy, VarTable};
use crate::profile::StepProfile;

/// Renders a compiled query plan as indented text.
pub fn render(compiled: &CompiledQuery) -> String {
    render_with(compiled, None)
}

/// Renders a compiled query plan annotated with the actuals from a
/// profiled execution — the `EXPLAIN ANALYZE` output. Steps the executor
/// never reached (e.g. behind an empty input) are marked
/// `never executed`; per-step `time=` is summed over workers.
pub fn render_analyze(compiled: &CompiledQuery, profile: &ExecProfile) -> String {
    render_with(compiled, Some(profile))
}

fn render_with(compiled: &CompiledQuery, profile: Option<&ExecProfile>) -> String {
    let mut out = String::new();
    match &compiled.form {
        CForm::Select(sel) => render_select(&mut out, &compiled.vars, sel, 0, profile),
        CForm::Ask(sel) => {
            let _ = writeln!(out, "ASK");
            render_node(&mut out, &compiled.vars, &sel.root, 1, &mut 1, profile);
        }
        CForm::Construct(templates, sel) => {
            let _ = writeln!(out, "CONSTRUCT ({} template quads)", templates.len());
            render_select(&mut out, &compiled.vars, sel, 1, profile);
        }
    }
    if let Some(p) = profile {
        let _ = writeln!(out, "Execution time: {}", format_nanos(p.wall_nanos));
    }
    out
}

/// Collects one [`StepProfile`] per numbered plan step, in EXPLAIN
/// numbering order — the structured counterpart of [`render_analyze`].
pub fn step_profiles(compiled: &CompiledQuery, profile: &ExecProfile) -> Vec<StepProfile> {
    let mut steps = Vec::new();
    match &compiled.form {
        CForm::Select(sel) | CForm::Construct(_, sel) => {
            collect_select(&compiled.vars, sel, profile, &mut steps)
        }
        CForm::Ask(sel) => collect_node(&compiled.vars, &sel.root, &mut 1, profile, &mut steps),
    }
    steps
}

fn collect_select(
    vars: &VarTable,
    sel: &CSelect,
    profile: &ExecProfile,
    out: &mut Vec<StepProfile>,
) {
    // Mirrors render_select: each SELECT scope restarts step numbering.
    let mut local = 1usize;
    collect_node(vars, &sel.root, &mut local, profile, out);
}

fn collect_node(
    vars: &VarTable,
    node: &Node,
    counter: &mut usize,
    profile: &ExecProfile,
    out: &mut Vec<StepProfile>,
) {
    match node {
        Node::Steps(steps) => {
            for step in steps {
                let tally = profile.step(step);
                out.push(StepProfile {
                    ordinal: *counter,
                    pattern: step_pattern(vars, step),
                    index: step_access(step),
                    strategy: step_strategy(vars, step),
                    est_rows: step.est_scan as u64,
                    est_out_rows: step.est_out,
                    executed: tally.is_some(),
                    actual_rows: tally.map(|t| t.rows).unwrap_or(0),
                    loops: tally.map(|t| t.loops).unwrap_or(0),
                    nanos: tally.map(|t| t.nanos).unwrap_or(0),
                });
                *counter += 1;
            }
        }
        Node::Path(p) => {
            let tally = profile.path(p);
            out.push(StepProfile {
                ordinal: *counter,
                pattern: format!(
                    "PATH {} -[closure]-> {}",
                    render_pos(vars, &p.s),
                    render_pos(vars, &p.o)
                ),
                index: "closure".to_string(),
                strategy: "PATH".to_string(),
                est_rows: 0,
                est_out_rows: 0,
                executed: tally.is_some(),
                actual_rows: tally.map(|t| t.rows).unwrap_or(0),
                loops: tally.map(|t| t.loops).unwrap_or(0),
                nanos: tally.map(|t| t.nanos).unwrap_or(0),
            });
            *counter += 1;
        }
        Node::Join(children) => {
            for child in children {
                collect_node(vars, child, counter, profile, out);
            }
        }
        Node::Filter(_, _, inner) | Node::Minus(inner) | Node::Unsatisfiable(inner) => {
            collect_node(vars, inner, counter, profile, out)
        }
        Node::Union(a, b) | Node::Optional(a, b) => {
            collect_node(vars, a, counter, profile, out);
            collect_node(vars, b, counter, profile, out);
        }
        Node::SubSelect(sel) => collect_select(vars, sel, profile, out),
        Node::Values { .. } | Node::Extend(..) => {}
    }
}

fn render_select(
    out: &mut String,
    vars: &VarTable,
    sel: &CSelect,
    depth: usize,
    profile: Option<&ExecProfile>,
) {
    let pad = "  ".repeat(depth);
    let cols: Vec<String> = sel
        .projection
        .iter()
        .map(|p| format!("?{}", vars.name(p.slot)))
        .collect();
    let _ = writeln!(
        out,
        "{pad}SELECT{} {}",
        if sel.distinct { " DISTINCT" } else { "" },
        cols.join(" ")
    );
    if !sel.group_slots.is_empty() {
        let g: Vec<String> = sel
            .group_slots
            .iter()
            .map(|&s| format!("?{}", vars.name(s)))
            .collect();
        let _ = writeln!(out, "{pad}GROUP BY {}", g.join(" "));
    }
    let mut counter = 1usize;
    render_node(out, vars, &sel.root, depth + 1, &mut counter, profile);
    // The result tail, in pipeline order. Only ORDER BY blocks — under a
    // LIMIT without DISTINCT it keeps the top `offset + limit` rows in a
    // bounded heap, else it sorts them all: without it DISTINCT dedups
    // rows as they are pushed, and a plain LIMIT is the executor's
    // appetite — it ends the scans beneath it.
    if !sel.order_by.is_empty() {
        let top = crate::exec::top_k(sel)
            .map(|k| format!(", top {k}"))
            .unwrap_or_default();
        let _ = writeln!(out, "{pad}ORDER BY ({} keys{top})", sel.order_by.len());
    } else if sel.distinct {
        let _ = writeln!(out, "{pad}DISTINCT (streaming)");
    }
    if let Some(limit) = sel.limit.filter(|_| crate::exec::appetite(sel).is_some()) {
        let offset = sel
            .offset
            .map(|o| format!(" OFFSET {o}"))
            .unwrap_or_default();
        let _ = writeln!(out, "{pad}LIMIT {limit}{offset} (ends scan)");
    } else if sel.limit.is_some() || sel.offset.is_some() {
        let _ = writeln!(
            out,
            "{pad}SLICE limit={:?} offset={:?}",
            sel.limit, sel.offset
        );
    }
}

fn render_node(
    out: &mut String,
    vars: &VarTable,
    node: &Node,
    depth: usize,
    counter: &mut usize,
    profile: Option<&ExecProfile>,
) {
    let pad = "  ".repeat(depth);
    match node {
        Node::Steps(steps) => {
            for step in steps {
                let actual = profile
                    .map(|p| format_actual(p.step(step), Some(step.est_out)))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{pad}{}: {}{}",
                    counter,
                    render_step(vars, step),
                    actual
                );
                *counter += 1;
            }
        }
        Node::Path(p) => {
            let actual = profile
                .map(|pr| format_actual(pr.path(p), None))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "{pad}{}: PATH {} -[closure]-> {}{}",
                counter,
                render_pos(vars, &p.s),
                render_pos(vars, &p.o),
                actual
            );
            *counter += 1;
        }
        Node::Join(children) => {
            for child in children {
                render_node(out, vars, child, depth, counter, profile);
            }
        }
        Node::Filter(filters, _, inner) => {
            render_node(out, vars, inner, depth, counter, profile);
            let _ = writeln!(out, "{pad}FILTER ({} predicates)", filters.len());
        }
        Node::Union(a, b) => {
            let _ = writeln!(out, "{pad}UNION");
            render_node(out, vars, a, depth + 1, counter, profile);
            let _ = writeln!(out, "{pad}  --");
            render_node(out, vars, b, depth + 1, counter, profile);
        }
        Node::Optional(a, b) => {
            render_node(out, vars, a, depth, counter, profile);
            let _ = writeln!(out, "{pad}OPTIONAL");
            render_node(out, vars, b, depth + 1, counter, profile);
        }
        Node::SubSelect(sel) => {
            let _ = writeln!(out, "{pad}SUBQUERY");
            render_select(out, vars, sel, depth + 1, profile);
        }
        Node::Values { slots, rows } => {
            let names: Vec<String> = slots
                .iter()
                .map(|&s| format!("?{}", vars.name(s)))
                .collect();
            let _ = writeln!(out, "{pad}VALUES {} ({} rows)", names.join(" "), rows.len());
        }
        Node::Extend(slot, _) => {
            let _ = writeln!(out, "{pad}BIND -> ?{}", vars.name(*slot));
        }
        Node::Minus(inner) => {
            let _ = writeln!(out, "{pad}MINUS");
            render_node(out, vars, inner, depth + 1, counter, profile);
        }
        Node::Unsatisfiable(inner) => {
            let _ = writeln!(out, "{pad}UNSATISFIABLE (yields no solutions)");
            render_node(out, vars, inner, depth + 1, counter, profile);
        }
    }
}

fn format_actual(tally: Option<crate::exec::StepTally>, est_out: Option<u64>) -> String {
    match tally {
        Some(t) => {
            let q = est_out
                .map(|est| format!(" Q={:.1}", q_error(est, t.rows)))
                .unwrap_or_default();
            format!(
                " (actual: rows={} loops={} time={}{q})",
                t.rows,
                t.loops,
                format_nanos(t.nanos)
            )
        }
        None => " (actual: never executed)".to_string(),
    }
}

/// The Q-error of an estimate: `max(est, actual) / min(est, actual)`,
/// with both sides clamped to at least 1 so empty results stay finite.
/// 1.0 is a perfect estimate; the factor is symmetric in direction.
pub fn q_error(est: u64, actual: u64) -> f64 {
    let est = est.max(1) as f64;
    let actual = actual.max(1) as f64;
    (est / actual).max(actual / est)
}

/// Human formatting for nanosecond figures: `ns`, `µs`, or `ms`.
pub(crate) fn format_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{:.3}ms", nanos as f64 / 1e6)
    }
}

/// The triple-pattern part of a step line (without access/strategy).
fn step_pattern(vars: &VarTable, step: &Step) -> String {
    format!(
        "{} {} {}{}",
        render_pos(vars, &step.triple.s),
        render_pos(vars, &step.triple.p),
        render_pos(vars, &step.triple.o),
        match &step.triple.g {
            CGraph::Any | CGraph::Default => String::new(),
            CGraph::Var(s) => format!(" GRAPH ?{}", vars.name(*s)),
            CGraph::Const(t, _) => format!(" GRAPH {t}"),
        }
    )
}

/// The access-path part of a step line (index + scan kind).
fn step_access(step: &Step) -> String {
    if step.triple.unsatisfiable() {
        "empty scan (constant absent from store)".to_string()
    } else {
        step.access
            .as_ref()
            .map(|a| {
                if a.is_full_scan() {
                    format!("{} full scan", a.index)
                } else {
                    format!("{} range scan", a.index)
                }
            })
            .unwrap_or_else(|| "no access path".to_string())
    }
}

/// The join-strategy part of a step line.
fn step_strategy(vars: &VarTable, step: &Step) -> String {
    match &step.strategy {
        Strategy::IndexNlj => "NLJ".to_string(),
        Strategy::HashJoin { join_slots } => {
            let keys: Vec<String> = join_slots
                .iter()
                .map(|&s| format!("?{}", vars.name(s)))
                .collect();
            format!("HASH JOIN on {}", keys.join(","))
        }
        Strategy::Intersect { on } => format!("INTERSECT on ?{}", vars.name(*on)),
        Strategy::Merge { on } => format!("MERGE JOIN on ?{}", vars.name(*on)),
    }
}

fn render_step(vars: &VarTable, step: &Step) -> String {
    let mut bound = Vec::new();
    if let CPos::Const(t, _) = &step.triple.s {
        bound.push(format!("S={t}"));
    }
    if let CPos::Const(t, _) = &step.triple.p {
        bound.push(format!("P={t}"));
    }
    if let CPos::Const(t, _) = &step.triple.o {
        bound.push(format!("C={t}"));
    }
    if let CGraph::Const(t, _) = &step.triple.g {
        bound.push(format!("G={t}"));
    }
    format!(
        "{}  [{}] {} ({}) ~{} rows -> ~{} out",
        step_pattern(vars, step),
        bound.join(" and "),
        step_access(step),
        step_strategy(vars, step),
        step.est_scan,
        step.est_out
    )
}

fn render_pos(vars: &VarTable, pos: &CPos) -> String {
    match pos {
        CPos::Var(s) => format!("?{}", vars.name(*s)),
        CPos::Const(t, _) => t.to_string(),
    }
}
