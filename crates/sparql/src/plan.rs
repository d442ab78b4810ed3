//! Query compilation and planning.
//!
//! Compilation builds one tree, [`Node`], and edits it in place:
//!
//! 1. **Lowering** maps AST variables to binding slots, resolves constant
//!    terms to dictionary IDs, and rewrites property-path
//!    sequences/alternatives into joins/unions (the standard SPARQL
//!    algebra translation). Each basic graph pattern becomes a
//!    [`Node::Steps`] chain in lowering order, every step an index
//!    nested-loop probe with no estimates: already executable.
//! 2. **Rewriting** ([`crate::rewrite`]) pushes filter pins into scans,
//!    folds constants, and marks provably empty subtrees
//!    [`Node::Unsatisfiable`]; the result is the `EXPLAIN LOGICAL` text
//!    ([`crate::logical`]).
//! 3. **Planning** (`cost`) replaces each chain with its planned order —
//!    statistics-driven dynamic programming by default, the greedy
//!    heuristic as fallback — with a per-step choice between index
//!    nested-loop join and hash join, the two physical strategies whose
//!    interplay the paper's experiments 4 and 5 highlight, and a third
//!    that closes cycles by intersecting sorted index spans. It also
//!    resolves each unsatisfiable subtree and drops the filter pins.

use std::collections::{HashMap, HashSet};

use quadstore::{AccessPath, DatasetView, GraphConstraint, QuadPattern};
use rdf_model::{Term, TermId};

use crate::ast::{
    Aggregate, Expression, GraphPattern, PredicatePattern, Projection, PropertyPath, Query,
    SelectQuery, VarOrTerm,
};
use crate::cost::{BgpPlanner, Estimator};
use crate::error::SparqlError;
use crate::expr::{CExpr, TermKind, Value};
use crate::logical::{node_vars, Pin};

/// Maps variable names to binding slots.
#[derive(Debug, Default, Clone)]
pub struct VarTable {
    names: Vec<String>,
    slots: HashMap<String, usize>,
}

impl VarTable {
    /// Interns a variable name.
    pub fn slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.names.len();
        self.names.push(name.to_string());
        self.slots.insert(name.to_string(), s);
        s
    }

    /// A fresh, non-user-visible slot (path rewriting intermediates).
    pub fn fresh(&mut self) -> usize {
        let name = format!(" _path{}", self.names.len());
        self.slot(&name)
    }

    /// Slot of an existing variable.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.slots.get(name).copied()
    }

    /// Name of a slot.
    pub fn name(&self, slot: usize) -> &str {
        &self.names[slot]
    }

    /// Total number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variables have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A variable slot or a constant term with its (optional) dictionary ID.
#[derive(Debug, Clone, PartialEq)]
pub enum CPos {
    /// Variable slot.
    Var(usize),
    /// Constant; `None` ID means the term does not occur in the store.
    Const(Term, Option<TermId>),
}

impl CPos {
    /// The slot, if a variable.
    pub fn slot(&self) -> Option<usize> {
        match self {
            CPos::Var(s) => Some(*s),
            CPos::Const(_, _) => None,
        }
    }
}

/// Graph context of a compiled triple.
#[derive(Debug, Clone, PartialEq)]
pub enum CGraph {
    /// Union-default-graph semantics (Oracle SEM_MATCH style): a pattern
    /// outside any `GRAPH` clause matches quads in *any* graph. This is
    /// what the paper's queries assume — the NG model's `e-s-p-o` quads
    /// must be visible to bare patterns like `?x rel:follows ?y`.
    Any,
    /// The default (unnamed) graph only — strict SPARQL semantics.
    Default,
    /// `GRAPH ?g` — the slot joins/binds like any variable.
    Var(usize),
    /// `GRAPH <iri>`.
    Const(Term, Option<TermId>),
}

/// A compiled triple pattern (predicate is a slot or a plain IRI).
#[derive(Debug, Clone, PartialEq)]
pub struct CTriple {
    /// Subject.
    pub s: CPos,
    /// Predicate (var or IRI constant).
    pub p: CPos,
    /// Object.
    pub o: CPos,
    /// Graph context.
    pub g: CGraph,
}

impl CTriple {
    /// Variable slots mentioned by this triple (including the graph var).
    pub fn var_slots(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for pos in [&self.s, &self.p, &self.o] {
            if let CPos::Var(s) = pos {
                out.push(*s);
            }
        }
        if let CGraph::Var(s) = self.g {
            out.push(s);
        }
        out
    }

    /// `(quad position, slot)` of every variable position, graph included.
    pub(crate) fn var_positions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let g = match self.g {
            CGraph::Var(slot) => Some((quadstore::ids::G, slot)),
            _ => None,
        };
        [
            (quadstore::ids::S, &self.s),
            (quadstore::ids::P, &self.p),
            (quadstore::ids::O, &self.o),
        ]
        .into_iter()
        .filter_map(|(pos, c)| c.slot().map(|slot| (pos, slot)))
        .chain(g)
    }

    /// The quad position of `slot`'s only occurrence in the triple, or
    /// `None` when it occurs more than once (or not at all).
    pub(crate) fn sole_position(&self, slot: usize) -> Option<usize> {
        let mut at = self
            .var_positions()
            .filter(|&(_, s)| s == slot)
            .map(|(pos, _)| pos);
        match (at.next(), at.next()) {
            (Some(pos), None) => Some(pos),
            _ => None,
        }
    }

    /// [`Self::sole_position`] when it is S or O.
    pub(crate) fn sole_s_or_o(&self, slot: usize) -> Option<usize> {
        self.sole_position(slot)
            .filter(|&pos| pos == quadstore::ids::S || pos == quadstore::ids::O)
    }

    /// The constants-only scan pattern (bound variables are not applied).
    pub fn const_pattern(&self) -> QuadPattern {
        let id = |p: &CPos| match p {
            CPos::Const(_, id) => *id,
            CPos::Var(_) => None,
        };
        QuadPattern {
            s: id(&self.s),
            p: id(&self.p),
            o: id(&self.o),
            g: match &self.g {
                CGraph::Any => GraphConstraint::Any,
                CGraph::Default => GraphConstraint::DefaultOnly,
                CGraph::Var(_) => GraphConstraint::AnyNamed,
                CGraph::Const(_, Some(id)) => GraphConstraint::Named(*id),
                CGraph::Const(_, None) => GraphConstraint::Named(TermId(u64::MAX)),
            },
        }
    }

    /// True if some constant in the triple is absent from the dictionary,
    /// making the pattern unsatisfiable.
    pub fn unsatisfiable(&self) -> bool {
        let missing = |p: &CPos| matches!(p, CPos::Const(_, None));
        missing(&self.s)
            || missing(&self.p)
            || missing(&self.o)
            || matches!(&self.g, CGraph::Const(_, None))
    }
}

/// Physical join strategy of one BGP step.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Index nested-loop join: probe the chosen index once per incoming
    /// binding.
    IndexNlj,
    /// Hash join: scan the pattern once (typically a full index scan),
    /// build a hash table on the join slots, probe with incoming bindings.
    HashJoin {
        /// Slots shared with the already-planned part of the query.
        join_slots: Vec<usize>,
    },
    /// Cycle closing: the step is fully bound once the index NLJ step
    /// before it (the expand step, possibly via earlier closing steps)
    /// binds `on`. The executor merges the sorted index spans of the
    /// expand step and every closing step on `on` instead of probing
    /// once per expanded row; semantically it is an [`Self::IndexNlj`]
    /// existence count, which is how the reference evaluator runs it.
    Intersect {
        /// The slot the expand step binds and the spans are merged on.
        on: usize,
    },
    /// Merge join: the step's probe rows arrive sorted on `on` (the drive
    /// scan binds it in index order, and every operator after it keeps
    /// input order), and every member's index for the probe orders the
    /// step's constants and then `on`. The executor walks that index with
    /// a forward cursor ([`quadstore::SpanCursor`]) instead of building a
    /// hash table over the constants-only scan; semantically it is an
    /// [`Self::IndexNlj`] probe, which is how the reference evaluator
    /// runs it.
    Merge {
        /// The one join slot, which the probe rows arrive sorted on.
        on: usize,
    },
}

/// One planned step of a basic graph pattern.
#[derive(Debug, Clone)]
pub struct Step {
    /// The triple pattern.
    pub triple: CTriple,
    /// Join strategy.
    pub strategy: Strategy,
    /// Estimated matches of the constants-only scan.
    pub est_scan: usize,
    /// Estimated rows flowing *out* of this step (the optimizer's
    /// cardinality after the join), for EXPLAIN's estimated-vs-actual
    /// comparison.
    pub est_out: u64,
    /// The access path the (first member of the) dataset would use.
    pub access: Option<AccessPath>,
}

impl Step {
    /// A step as lowering emits it, before planning: an index
    /// nested-loop probe with no estimates and no access path.
    fn unplanned(triple: CTriple) -> Step {
        Step {
            triple,
            strategy: Strategy::IndexNlj,
            est_scan: 0,
            est_out: 0,
            access: None,
        }
    }
}

/// A compiled closure path (only `*`, `+`, `?` survive compilation; other
/// operators were rewritten into joins/unions).
#[derive(Debug, Clone, PartialEq)]
pub enum CPath {
    /// A single predicate step.
    Iri(Term, Option<TermId>),
    /// Inverse step.
    Inverse(Box<CPath>),
    /// Sequence inside a closure.
    Sequence(Box<CPath>, Box<CPath>),
    /// Alternation inside a closure.
    Alternative(Box<CPath>, Box<CPath>),
    /// Zero or more.
    ZeroOrMore(Box<CPath>),
    /// One or more.
    OneOrMore(Box<CPath>),
    /// Zero or one.
    ZeroOrOne(Box<CPath>),
}

/// A closure-path step (`p*`, `p+`, `p?` and nested combinations).
#[derive(Debug, Clone)]
pub struct PathStep {
    /// Subject end.
    pub s: CPos,
    /// Object end.
    pub o: CPos,
    /// The compiled path.
    pub path: CPath,
    /// Graph context (closure paths do not bind graph variables).
    pub graph: GraphConstraint,
}

/// A compiled pattern-tree node: lowered, rewritten and planned in place
/// (see the module docs).
#[derive(Debug, Clone)]
pub enum Node {
    /// A BGP fragment: steps in lowering order until planning orders them.
    Steps(Vec<Step>),
    /// A closure-path step.
    Path(PathStep),
    /// Sequential join of children (each child consumes the previous
    /// child's bindings).
    Join(Vec<Node>),
    /// Conjunctive filters applied over the child's solutions, plus the
    /// `?v = <const>` pins lowered from them (planning drops the pins).
    Filter(Vec<CExpr>, Vec<Pin>, Box<Node>),
    /// Union of two branches.
    Union(Box<Node>, Box<Node>),
    /// Left outer join.
    Optional(Box<Node>, Box<Node>),
    /// A materialised sub-select.
    SubSelect(Box<CSelect>),
    /// Inline VALUES rows.
    Values {
        /// Target slots.
        slots: Vec<usize>,
        /// Rows; `None` = UNDEF.
        rows: Vec<Vec<Option<Term>>>,
    },
    /// `BIND(expr AS ?v)`: extend each row with a computed value.
    Extend(usize, CExpr),
    /// `MINUS { ... }`: drop rows compatible with the inner solutions.
    Minus(Box<Node>),
    /// A subtree the rewrite pass proved can produce no solutions
    /// (missing constant, constant-false filter); it yields no rows. The
    /// original subtree is kept for `EXPLAIN LOGICAL` and for planning,
    /// which replaces the node with the subtree or with one empty scan,
    /// so a compiled plan holds none.
    Unsatisfiable(Box<Node>),
}

/// One projected column: output slot plus an optional computed expression.
#[derive(Debug, Clone)]
pub struct CProj {
    /// Output slot.
    pub slot: usize,
    /// Expression, if this is a `(expr AS ?v)` column.
    pub expr: Option<CExpr>,
}

/// A compiled aggregate.
#[derive(Debug, Clone)]
pub enum CAggregate {
    /// `COUNT(*)`.
    CountAll,
    /// `COUNT([DISTINCT] expr)`.
    Count {
        /// DISTINCT flag.
        distinct: bool,
        /// Counted expression.
        expr: CExpr,
    },
    /// `SUM(expr)`.
    Sum(CExpr),
    /// `AVG(expr)`.
    Avg(CExpr),
    /// `MIN(expr)`.
    Min(CExpr),
    /// `MAX(expr)`.
    Max(CExpr),
}

/// A compiled SELECT (top-level or nested).
#[derive(Debug, Clone, Default)]
pub struct CSelect {
    /// DISTINCT flag.
    pub distinct: bool,
    /// Projected columns in order.
    pub projection: Vec<CProj>,
    /// Aggregates referenced by projection expressions.
    pub aggregates: Vec<CAggregate>,
    /// GROUP BY slots.
    pub group_slots: Vec<usize>,
    /// HAVING conditions (evaluated with aggregate values in scope).
    pub having: Vec<CExpr>,
    /// WHERE tree.
    pub root: Node,
    /// ORDER BY keys (expr, descending).
    pub order_by: Vec<(CExpr, bool)>,
    /// Hidden columns: ORDER BY keys that hold an aggregate, computed per
    /// group like projection expressions into `' '`-named slots the keys
    /// read. Never projected.
    pub hidden: Vec<CProj>,
    /// LIMIT.
    pub limit: Option<usize>,
    /// OFFSET.
    pub offset: Option<usize>,
}

impl CSelect {
    /// Output slots in projection order.
    pub fn projected_slots(&self) -> Vec<usize> {
        self.projection.iter().map(|p| p.slot).collect()
    }

    /// True when the query aggregates (explicit GROUP BY or aggregate
    /// projections).
    pub fn is_grouped(&self) -> bool {
        !self.group_slots.is_empty() || !self.aggregates.is_empty()
    }
}

/// A fully compiled query.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// The variable table (shared across nesting levels).
    pub vars: VarTable,
    /// Compiled `EXISTS { ... }` patterns, referenced by
    /// [`CExpr::ExistsRef`] indexes.
    pub exists: Vec<Node>,
    /// The compiled form.
    pub form: CForm,
    /// Rendered logical plan (post-rewrite), with the applied rewrite
    /// rules — the `EXPLAIN LOGICAL` text. A plan the cache bound new
    /// constants into keeps its template's text.
    pub logical: String,
}

impl CompiledQuery {
    /// The optimizer's estimated result cardinality of the root pattern
    /// (the estimated output of the last planned step; 0 when the plan
    /// has no scan steps to estimate).
    pub fn estimated_rows(&self) -> u64 {
        fn last_est(node: &Node) -> Option<u64> {
            match node {
                Node::Steps(steps) => steps.last().map(|s| s.est_out),
                Node::Filter(_, _, inner) => last_est(inner),
                Node::Join(children) => children.iter().rev().find_map(last_est),
                Node::Union(a, b) => Some(
                    last_est(a)
                        .unwrap_or(0)
                        .saturating_add(last_est(b).unwrap_or(0)),
                ),
                Node::Optional(a, _) => last_est(a),
                Node::SubSelect(sel) => last_est(&sel.root),
                Node::Values { rows, .. } => Some(rows.len() as u64),
                _ => None,
            }
        }
        let root = match &self.form {
            CForm::Select(sel) | CForm::Construct(_, sel) => &sel.root,
            CForm::Ask(sel) => return last_est(&sel.root).unwrap_or(0).min(1),
        };
        last_est(root).unwrap_or(0)
    }
}

/// Compiled query forms.
#[derive(Debug, Clone)]
pub enum CForm {
    /// `SELECT`.
    Select(CSelect),
    /// `ASK`: the select it runs as, with no projection and LIMIT 1.
    Ask(CSelect),
    /// `CONSTRUCT`: instantiate the templates per solution of the select.
    Construct(Vec<crate::ast::QuadTemplate>, CSelect),
}

/// Forces one physical join strategy for every joined BGP step —
/// the optimizer-ablation hook (the paper's experiments hinge on the
/// optimizer's NLJ-vs-hash choices; forcing lets benches measure both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForcedJoin {
    /// Always probe indexes per binding.
    Nlj,
    /// Always build hash tables from full scans.
    Hash,
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileOptions {
    /// Union-default-graph semantics (Oracle SEM_MATCH style). On by
    /// default; SPARQL Update compiles strict so `GRAPH` targeting works
    /// per the W3C spec.
    pub union_default_graph: bool,
    /// Optional join-strategy override (ablations only).
    pub force_join: Option<ForcedJoin>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            union_default_graph: true,
            force_join: None,
        }
    }
}

/// Compiles a parsed query against a dataset (planning uses the dataset's
/// statistics, so compilation is per-dataset, like a database prepare).
/// Uses union-default-graph semantics; see [`compile_with`].
pub fn compile(view: &DatasetView, query: &Query) -> Result<CompiledQuery, SparqlError> {
    compile_with(view, query, CompileOptions::default())
}

/// [`compile`] with explicit options: lower the query to a [`Node`] tree,
/// run the rewrite rules over it, then plan it in place.
pub fn compile_with(
    view: &DatasetView,
    query: &Query,
    options: CompileOptions,
) -> Result<CompiledQuery, SparqlError> {
    compile_inner(view, query, options, None)
}

/// The input the physical planner got for one basic graph pattern.
#[derive(Debug, Clone)]
pub(crate) struct PlannedBgp {
    /// The rewritten triples, in lowering order.
    pub triples: Vec<CTriple>,
    /// The slots bound before them.
    pub bound: HashSet<usize>,
}

/// What compiling a query read from the store, for a plan cache to check
/// and replay.
#[derive(Debug, Default)]
pub(crate) struct CompileRecord {
    /// Every constant looked up in the dictionary, with the ID it got
    /// (`None` = absent), in lookup order, repeats included.
    pub resolutions: Vec<(Term, Option<TermId>)>,
    /// The planner input of every [`Node::Steps`], in [`visit_constants`]
    /// order; `None` for the synthetic step of a subtree proven empty.
    pub bgps: Vec<Option<PlannedBgp>>,
}

/// [`compile_with`] that also returns its [`CompileRecord`]: dictionary
/// presence is the only store state a plan depends on besides the
/// statistics its BGPs were planned under (see [`crate::cache`]).
pub(crate) fn compile_recording(
    view: &DatasetView,
    query: &Query,
    options: CompileOptions,
) -> Result<(CompiledQuery, CompileRecord), SparqlError> {
    let mut record = CompileRecord::default();
    let plan = compile_inner(view, query, options, Some(&mut record))?;
    Ok((plan, record))
}

/// Plans one basic graph pattern exactly as compilation does: the same
/// triples and bound slots give the same steps.
pub(crate) fn plan_bgp(view: &DatasetView, options: CompileOptions, bgp: PlannedBgp) -> Vec<Step> {
    let PlannedBgp { triples, mut bound } = bgp;
    let est = Estimator::new(view);
    BgpPlanner {
        view,
        est: &est,
        force_join: options.force_join,
    }
    .plan(triples, &mut bound)
}

fn compile_inner(
    view: &DatasetView,
    query: &Query,
    options: CompileOptions,
    record: Option<&mut CompileRecord>,
) -> Result<CompiledQuery, SparqlError> {
    let resolved = record.is_some().then(Vec::new);
    let mut c = Compiler {
        view,
        vars: VarTable::default(),
        exists: Vec::new(),
        exists_bound: Vec::new(),
        resolved,
    };
    let root = if options.union_default_graph {
        CGraph::Any
    } else {
        CGraph::Default
    };
    let form = match query {
        Query::Select(sel) => CForm::Select(c.lower_select(sel, &root, &mut HashSet::new())?),
        Query::Ask(pattern) => {
            let root = c.lower_pattern(pattern, &root, &mut HashSet::new())?;
            CForm::Ask(CSelect {
                root,
                limit: Some(1),
                ..CSelect::default()
            })
        }
        Query::Construct(templates, inner) => CForm::Construct(
            templates.clone(),
            c.lower_select(inner, &root, &mut HashSet::new())?,
        ),
    };
    let mut plan = CompiledQuery {
        vars: c.vars,
        exists: c.exists,
        form,
        logical: String::new(),
    };
    let trace = crate::rewrite::rewrite_query(&mut plan);
    plan.logical = crate::logical::render(&plan, trace.applied());

    let est = Estimator::new(view);
    let mut planning = Planning {
        planner: BgpPlanner {
            view,
            est: &est,
            force_join: options.force_join,
        },
        bgps: record.is_some().then(Vec::new),
    };
    let (CForm::Select(sel) | CForm::Construct(_, sel) | CForm::Ask(sel)) = &mut plan.form;
    planning.node(&mut sel.root, &mut HashSet::new());
    for (node, mut bound) in plan.exists.iter_mut().zip(c.exists_bound) {
        planning.node(node, &mut bound);
    }
    if let Some(record) = record {
        record.resolutions = c.resolved.unwrap_or_default();
        record.bgps = planning.bgps.unwrap_or_default();
    }
    Ok(plan)
}

struct Compiler<'a> {
    view: &'a DatasetView,
    vars: VarTable,
    /// Lowered EXISTS patterns, shared across the whole query.
    exists: Vec<Node>,
    /// The slots certainly bound at each EXISTS pattern's filter site,
    /// which planning seeds its BGPs with.
    exists_bound: Vec<HashSet<usize>>,
    /// Every dictionary lookup, when the caller asked for them.
    resolved: Option<Vec<(Term, Option<TermId>)>>,
}

impl Compiler<'_> {
    /// The one place compilation reads the dictionary.
    fn term_id(&mut self, term: &Term) -> Option<TermId> {
        let id = self.view.term_id(term);
        if let Some(resolved) = &mut self.resolved {
            resolved.push((term.clone(), id));
        }
        id
    }

    fn cpos(&mut self, vt: &VarOrTerm) -> CPos {
        match vt {
            VarOrTerm::Var(v) => CPos::Var(self.vars.slot(v)),
            VarOrTerm::Term(t) => CPos::Const(t.clone(), self.term_id(t)),
        }
    }

    /// Lowers a SELECT. SELECT-star projection is
    /// resolved here, before any rewrite runs, so later tree surgery can
    /// never change the projected columns.
    fn lower_select(
        &mut self,
        sel: &SelectQuery,
        graph: &CGraph,
        bound: &mut HashSet<usize>,
    ) -> Result<CSelect, SparqlError> {
        let root = self.lower_pattern(&sel.pattern, graph, bound)?;

        let group_slots: Vec<usize> = sel.group_by.iter().map(|v| self.vars.slot(v)).collect();

        let mut aggregates = Vec::new();
        let mut projection = Vec::new();
        if sel.projection.is_empty() {
            // SELECT *: project every user-visible variable in the pattern.
            let mut slots: Vec<usize> = node_vars(&root)
                .into_iter()
                .filter(|&s| !self.vars.name(s).starts_with(' '))
                .collect();
            slots.sort_unstable();
            for slot in slots {
                projection.push(CProj { slot, expr: None });
            }
        } else {
            for proj in &sel.projection {
                match proj {
                    Projection::Var(v) => {
                        projection.push(CProj {
                            slot: self.vars.slot(v),
                            expr: None,
                        });
                    }
                    Projection::Expr(expr, v) => {
                        let cexpr = self.compile_expr(expr, &mut aggregates)?;
                        projection.push(CProj {
                            slot: self.vars.slot(v),
                            expr: Some(cexpr),
                        });
                    }
                }
            }
        }

        // ORDER BY may reference aggregate outputs by variable name; those
        // are projection slots, so plain compilation works. A key holding
        // an aggregate itself is computed per group into a hidden column.
        let mut hidden = Vec::new();
        let mut order_by = Vec::new();
        for key in &sel.order_by {
            let aggs_before = aggregates.len();
            let mut expr = self.compile_expr(&key.expr, &mut aggregates)?;
            if aggregates.len() > aggs_before {
                let slot = self.vars.slot(&format!(" _order{}", self.vars.len()));
                hidden.push(CProj {
                    slot,
                    expr: Some(expr),
                });
                expr = CExpr::Var(slot);
            }
            order_by.push((expr, key.descending));
        }

        let having = sel
            .having
            .iter()
            .map(|h| self.compile_expr(h, &mut aggregates))
            .collect::<Result<Vec<_>, _>>()?;

        // A group has one value per GROUP BY key and expression, none per
        // other variable.
        if !group_slots.is_empty() || !aggregates.is_empty() {
            let loose = projection
                .iter()
                .find(|p| p.expr.is_none() && !group_slots.contains(&p.slot));
            if let Some(p) = loose {
                return Err(SparqlError::Unsupported(format!(
                    "variable ?{} projected out of a grouped query but not in GROUP BY",
                    self.vars.name(p.slot)
                )));
            }
        }

        for proj in &projection {
            bound.insert(proj.slot);
        }

        Ok(CSelect {
            distinct: sel.distinct,
            projection,
            aggregates,
            group_slots,
            having,
            root,
            order_by,
            hidden,
            limit: sel.limit,
            offset: sel.offset,
        })
    }

    fn lower_pattern(
        &mut self,
        pattern: &GraphPattern,
        graph: &CGraph,
        bound: &mut HashSet<usize>,
    ) -> Result<Node, SparqlError> {
        match pattern {
            GraphPattern::Bgp(tps) => self.lower_bgp(tps, graph, bound),
            GraphPattern::Graph(g, inner) => {
                let cg = match g {
                    VarOrTerm::Var(v) => CGraph::Var(self.vars.slot(v)),
                    VarOrTerm::Term(t) => CGraph::Const(t.clone(), self.term_id(t)),
                };
                let node = self.lower_pattern(inner, &cg, bound)?;
                if let CGraph::Var(slot) = cg {
                    bound.insert(slot);
                }
                Ok(node)
            }
            GraphPattern::Group(members, filters) => {
                // Constant-equality pins: a conjunctive filter
                // `?v = <const>` pins ?v for the whole group. Lowering only
                // *records* the pins (resolved to slots and dictionary
                // IDs); the pin-pushdown rewrite substitutes them into the
                // scans — this is what turns EQ3/EQ7's
                // `FILTER (?t = "#webseries")` from a full cross join into
                // indexed probes. Pins are restricted to IRIs and plain
                // strings, whose term identity coincides with SPARQL value
                // equality under our canonical dictionary.
                let pins: Vec<Pin> = extract_pins(filters)
                    .into_iter()
                    .map(|(v, t)| {
                        let slot = self.vars.slot(&v);
                        let id = self.term_id(&t);
                        Pin { slot, term: t, id }
                    })
                    .collect();
                for pin in &pins {
                    bound.insert(pin.slot);
                }
                let mut children = Vec::with_capacity(members.len());
                for member in members {
                    children.push(self.lower_pattern(member, graph, bound)?);
                }
                let joined = if children.len() == 1 {
                    children.pop().expect("one child")
                } else {
                    Node::Join(children)
                };
                if filters.is_empty() {
                    Ok(joined)
                } else {
                    let mut aggs = Vec::new();
                    let cfilters = filters
                        .iter()
                        .map(|f| self.compile_expr_in(f, &mut aggs, graph, bound))
                        .collect::<Result<Vec<_>, _>>()?;
                    if !aggs.is_empty() {
                        return Err(SparqlError::Unsupported(
                            "aggregates are not allowed in FILTER".into(),
                        ));
                    }
                    Ok(Node::Filter(cfilters, pins, Box::new(joined)))
                }
            }
            GraphPattern::Union(a, b) => {
                let mut bound_a = bound.clone();
                let mut bound_b = bound.clone();
                let na = self.lower_pattern(a, graph, &mut bound_a)?;
                let nb = self.lower_pattern(b, graph, &mut bound_b)?;
                // After a union only vars bound on both branches are
                // certainly bound.
                for s in bound_a.intersection(&bound_b) {
                    bound.insert(*s);
                }
                Ok(Node::Union(Box::new(na), Box::new(nb)))
            }
            GraphPattern::Optional(a, b) => {
                let na = self.lower_pattern(a, graph, bound)?;
                let mut bound_b = bound.clone();
                let nb = self.lower_pattern(b, graph, &mut bound_b)?;
                Ok(Node::Optional(Box::new(na), Box::new(nb)))
            }
            GraphPattern::SubSelect(sel) => {
                // SPARQL sub-selects evaluate bottom-up: independent of the
                // outer bindings.
                let mut inner_bound = HashSet::new();
                let csel = self.lower_select(sel, graph, &mut inner_bound)?;
                for proj in &csel.projection {
                    bound.insert(proj.slot);
                }
                Ok(Node::SubSelect(Box::new(csel)))
            }
            GraphPattern::Values(vars, rows) => {
                let slots: Vec<usize> = vars.iter().map(|v| self.vars.slot(v)).collect();
                for &s in &slots {
                    bound.insert(s);
                }
                Ok(Node::Values {
                    slots,
                    rows: rows.clone(),
                })
            }
            GraphPattern::Bind(expr, var) => {
                let mut aggs = Vec::new();
                let cexpr = self.compile_expr_in(expr, &mut aggs, graph, bound)?;
                if !aggs.is_empty() {
                    return Err(SparqlError::Unsupported(
                        "aggregates are not allowed in BIND".into(),
                    ));
                }
                let slot = self.vars.slot(var);
                bound.insert(slot);
                Ok(Node::Extend(slot, cexpr))
            }
            GraphPattern::Minus(inner) => {
                // MINUS evaluates its pattern independently (bottom-up); it
                // binds nothing outward.
                let mut inner_bound = HashSet::new();
                let node = self.lower_pattern(inner, graph, &mut inner_bound)?;
                Ok(Node::Minus(Box::new(node)))
            }
        }
    }

    fn lower_bgp(
        &mut self,
        tps: &[crate::ast::TriplePattern],
        graph: &CGraph,
        bound: &mut HashSet<usize>,
    ) -> Result<Node, SparqlError> {
        let mut plain: Vec<CTriple> = Vec::new();
        let mut extras: Vec<Node> = Vec::new();

        for tp in tps {
            let s = self.cpos(&tp.subject);
            let o = self.cpos(&tp.object);
            match &tp.predicate {
                PredicatePattern::Var(v) => {
                    plain.push(CTriple {
                        s,
                        p: CPos::Var(self.vars.slot(v)),
                        o,
                        g: graph.clone(),
                    });
                }
                PredicatePattern::Path(path) => {
                    self.expand_path(s, path, o, graph, &mut plain, &mut extras)?;
                }
            }
        }

        let node = bgp_node(plain, extras);
        bound.extend(node_vars(&node));
        Ok(node)
    }

    /// The SPARQL algebra path translation: sequences create fresh
    /// intermediate variables, alternatives create unions, inverses swap
    /// endpoints, and closure operators become [`PathStep`]s.
    fn expand_path(
        &mut self,
        s: CPos,
        path: &PropertyPath,
        o: CPos,
        graph: &CGraph,
        plain: &mut Vec<CTriple>,
        extras: &mut Vec<Node>,
    ) -> Result<(), SparqlError> {
        match path {
            PropertyPath::Iri(iri) => {
                let term = Term::Iri(iri.clone());
                let id = self.term_id(&term);
                plain.push(CTriple {
                    s,
                    p: CPos::Const(term, id),
                    o,
                    g: graph.clone(),
                });
                Ok(())
            }
            PropertyPath::Inverse(inner) => self.expand_path(o, inner, s, graph, plain, extras),
            PropertyPath::Sequence(a, b) => {
                let mid = CPos::Var(self.vars.fresh());
                self.expand_path(s, a, mid.clone(), graph, plain, extras)?;
                self.expand_path(mid, b, o, graph, plain, extras)
            }
            PropertyPath::Alternative(a, b) => {
                let mut plain_a = Vec::new();
                let mut extras_a = Vec::new();
                self.expand_path(s.clone(), a, o.clone(), graph, &mut plain_a, &mut extras_a)?;
                let mut plain_b = Vec::new();
                let mut extras_b = Vec::new();
                self.expand_path(s, b, o, graph, &mut plain_b, &mut extras_b)?;
                let na = bgp_node(plain_a, extras_a);
                let nb = bgp_node(plain_b, extras_b);
                extras.push(Node::Union(Box::new(na), Box::new(nb)));
                Ok(())
            }
            PropertyPath::ZeroOrMore(_)
            | PropertyPath::OneOrMore(_)
            | PropertyPath::ZeroOrOne(_) => {
                let graph_constraint = match graph {
                    CGraph::Any => GraphConstraint::Any,
                    CGraph::Default => GraphConstraint::DefaultOnly,
                    CGraph::Const(_, Some(id)) => GraphConstraint::Named(*id),
                    CGraph::Const(_, None) => GraphConstraint::Named(TermId(u64::MAX)),
                    CGraph::Var(_) => {
                        return Err(SparqlError::Unsupported(
                            "closure property paths inside GRAPH ?var are not supported".into(),
                        ))
                    }
                };
                extras.push(Node::Path(PathStep {
                    s,
                    o,
                    path: self.compile_cpath(path),
                    graph: graph_constraint,
                }));
                Ok(())
            }
        }
    }

    fn compile_cpath(&mut self, path: &PropertyPath) -> CPath {
        match path {
            PropertyPath::Iri(iri) => {
                let term = Term::Iri(iri.clone());
                let id = self.term_id(&term);
                CPath::Iri(term, id)
            }
            PropertyPath::Inverse(p) => CPath::Inverse(Box::new(self.compile_cpath(p))),
            PropertyPath::Sequence(a, b) => CPath::Sequence(
                Box::new(self.compile_cpath(a)),
                Box::new(self.compile_cpath(b)),
            ),
            PropertyPath::Alternative(a, b) => CPath::Alternative(
                Box::new(self.compile_cpath(a)),
                Box::new(self.compile_cpath(b)),
            ),
            PropertyPath::ZeroOrMore(p) => CPath::ZeroOrMore(Box::new(self.compile_cpath(p))),
            PropertyPath::OneOrMore(p) => CPath::OneOrMore(Box::new(self.compile_cpath(p))),
            PropertyPath::ZeroOrOne(p) => CPath::ZeroOrOne(Box::new(self.compile_cpath(p))),
        }
    }

    /// Compiles an expression in a pattern context, allowing
    /// `EXISTS { ... }` (which lowers its pattern against the current
    /// graph context and records the bound-slot snapshot for the
    /// planner).
    fn compile_expr_in(
        &mut self,
        expr: &Expression,
        aggregates: &mut Vec<CAggregate>,
        graph: &CGraph,
        bound: &HashSet<usize>,
    ) -> Result<CExpr, SparqlError> {
        match expr {
            Expression::Exists(pattern, negated) => {
                let mut inner_bound = bound.clone();
                let node = self.lower_pattern(pattern, graph, &mut inner_bound)?;
                self.exists.push(node);
                self.exists_bound.push(bound.clone());
                let exists_ref = CExpr::ExistsRef(self.exists.len() - 1);
                Ok(if *negated {
                    CExpr::Not(Box::new(exists_ref))
                } else {
                    exists_ref
                })
            }
            Expression::Or(a, b) => Ok(CExpr::Or(
                Box::new(self.compile_expr_in(a, aggregates, graph, bound)?),
                Box::new(self.compile_expr_in(b, aggregates, graph, bound)?),
            )),
            Expression::And(a, b) => Ok(CExpr::And(
                Box::new(self.compile_expr_in(a, aggregates, graph, bound)?),
                Box::new(self.compile_expr_in(b, aggregates, graph, bound)?),
            )),
            Expression::Not(a) => Ok(CExpr::Not(Box::new(
                self.compile_expr_in(a, aggregates, graph, bound)?,
            ))),
            other => self.compile_expr(other, aggregates),
        }
    }

    fn compile_expr(
        &mut self,
        expr: &Expression,
        aggregates: &mut Vec<CAggregate>,
    ) -> Result<CExpr, SparqlError> {
        Ok(match expr {
            Expression::Var(v) => CExpr::Var(self.vars.slot(v)),
            Expression::Constant(t) => CExpr::Const(Value::from_term(t)),
            Expression::Or(a, b) => CExpr::Or(
                Box::new(self.compile_expr(a, aggregates)?),
                Box::new(self.compile_expr(b, aggregates)?),
            ),
            Expression::And(a, b) => CExpr::And(
                Box::new(self.compile_expr(a, aggregates)?),
                Box::new(self.compile_expr(b, aggregates)?),
            ),
            Expression::Not(a) => CExpr::Not(Box::new(self.compile_expr(a, aggregates)?)),
            Expression::Compare(op, a, b) => {
                let ca = self.compile_expr(a, aggregates)?;
                let cb = self.compile_expr(b, aggregates)?;
                // Fast path: ?v = <constant term>  →  ID comparison.
                if *op == crate::ast::CompareOp::Eq {
                    if let (Expression::Var(v), Expression::Constant(t)) = (&**a, &**b) {
                        let slot = self.vars.slot(v);
                        let id = self.term_id(t).map(|i| i.0);
                        let fallback =
                            CExpr::Compare(*op, Box::new(ca.clone()), Box::new(cb.clone()));
                        return Ok(CExpr::SlotEqConst(slot, id, Box::new(fallback)));
                    }
                }
                CExpr::Compare(*op, Box::new(ca), Box::new(cb))
            }
            Expression::Arith(op, a, b) => CExpr::Arith(
                *op,
                Box::new(self.compile_expr(a, aggregates)?),
                Box::new(self.compile_expr(b, aggregates)?),
            ),
            Expression::Neg(a) => CExpr::Neg(Box::new(self.compile_expr(a, aggregates)?)),
            Expression::Call(func, args) => {
                // Fast path: isLiteral(?v) / isIRI(?v) / isBlank(?v).
                if args.len() == 1 {
                    if let Expression::Var(v) = &args[0] {
                        let kind = match func {
                            crate::ast::Function::IsLiteral => Some(TermKind::Literal),
                            crate::ast::Function::IsIri => Some(TermKind::Iri),
                            crate::ast::Function::IsBlank => Some(TermKind::Blank),
                            _ => None,
                        };
                        if let Some(kind) = kind {
                            return Ok(CExpr::KindCheck(self.vars.slot(v), kind));
                        }
                    }
                }
                let cargs = args
                    .iter()
                    .map(|a| self.compile_expr(a, aggregates))
                    .collect::<Result<Vec<_>, _>>()?;
                CExpr::Call(*func, cargs)
            }
            Expression::Aggregate(agg) => {
                let cagg = match &**agg {
                    Aggregate::CountAll => CAggregate::CountAll,
                    Aggregate::Count { distinct, expr } => CAggregate::Count {
                        distinct: *distinct,
                        expr: self.compile_expr(expr, aggregates)?,
                    },
                    Aggregate::Sum(e) => CAggregate::Sum(self.compile_expr(e, aggregates)?),
                    Aggregate::Avg(e) => CAggregate::Avg(self.compile_expr(e, aggregates)?),
                    Aggregate::Min(e) => CAggregate::Min(self.compile_expr(e, aggregates)?),
                    Aggregate::Max(e) => CAggregate::Max(self.compile_expr(e, aggregates)?),
                };
                aggregates.push(cagg);
                CExpr::Agg(aggregates.len() - 1)
            }
            Expression::Exists(_, _) => {
                return Err(SparqlError::Unsupported(
                    "EXISTS is only allowed inside FILTER".into(),
                ))
            }
        })
    }
}

/// Extracts `?v = <const>` pins from a conjunctive filter list. Only IRIs
/// and plain string literals qualify: for those, term identity under the
/// canonical dictionary coincides with SPARQL value equality, so pattern
/// substitution cannot change the result set.
fn extract_pins(filters: &[Expression]) -> Vec<(String, Term)> {
    fn walk(expr: &Expression, out: &mut Vec<(String, Term)>) {
        match expr {
            Expression::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Expression::Compare(crate::ast::CompareOp::Eq, a, b) => {
                let pair = match (&**a, &**b) {
                    (Expression::Var(v), Expression::Constant(t))
                    | (Expression::Constant(t), Expression::Var(v)) => Some((v, t)),
                    _ => None,
                };
                if let Some((v, t)) = pair {
                    let safe = match t {
                        Term::Iri(_) => true,
                        Term::Literal(lit) => {
                            lit.effective_datatype() == rdf_model::vocab::xsd::STRING
                        }
                        Term::Blank(_) => false,
                    };
                    if safe && !out.iter().any(|(existing, _)| existing == v) {
                        out.push((v.clone(), t.clone()));
                    }
                }
            }
            _ => {}
        }
    }
    let mut pins = Vec::new();
    for f in filters {
        walk(f, &mut pins);
    }
    pins
}

/// A lowered BGP: its indexed triples as one unplanned step chain, then
/// the closure paths and alternation unions expanded from it, which run
/// after the triples so their endpoints are bound where possible.
fn bgp_node(plain: Vec<CTriple>, extras: Vec<Node>) -> Node {
    let mut children = Vec::new();
    if !plain.is_empty() {
        children.push(Node::Steps(
            plain.into_iter().map(Step::unplanned).collect(),
        ));
    }
    children.extend(extras);
    match children.len() {
        0 => Node::Steps(Vec::new()),
        1 => children.pop().expect("one child"),
        _ => Node::Join(children),
    }
}

/// The planning pass over a rewritten tree, in place. It threads the
/// certainly-bound slot set exactly like lowering did, orders every
/// [`Node::Steps`] chain with [`BgpPlanner`], resolves every
/// [`Node::Unsatisfiable`] and drops the filter pins.
struct Planning<'a> {
    planner: BgpPlanner<'a>,
    /// The planner input of every planned [`Node::Steps`], when recording.
    bgps: Option<Vec<Option<PlannedBgp>>>,
}

impl Planning<'_> {
    fn node(&mut self, node: &mut Node, bound: &mut HashSet<usize>) {
        match node {
            Node::Steps(steps) => {
                let triples: Vec<CTriple> = std::mem::take(steps)
                    .into_iter()
                    .map(|s| s.triple)
                    .collect();
                if let Some(bgps) = &mut self.bgps {
                    bgps.push(Some(PlannedBgp {
                        triples: triples.clone(),
                        bound: bound.clone(),
                    }));
                }
                *steps = self.planner.plan(triples, bound);
            }
            Node::Path(p) => bound.extend([&p.s, &p.o].into_iter().filter_map(CPos::slot)),
            Node::Join(children) => {
                for child in children {
                    self.node(child, bound);
                }
            }
            Node::Filter(_, pins, inner) => {
                pins.clear();
                self.node(inner, bound);
            }
            Node::Union(a, b) => {
                let mut bound_a = bound.clone();
                let mut bound_b = bound.clone();
                self.node(a, &mut bound_a);
                self.node(b, &mut bound_b);
                bound.extend(bound_a.intersection(&bound_b));
            }
            Node::Optional(a, b) => {
                self.node(a, bound);
                self.node(b, &mut bound.clone());
            }
            Node::SubSelect(sel) => {
                self.node(&mut sel.root, &mut HashSet::new());
                bound.extend(sel.projection.iter().map(|p| p.slot));
            }
            Node::Values { slots, .. } => bound.extend(slots.iter().copied()),
            Node::Extend(slot, _) => {
                bound.insert(*slot);
            }
            Node::Minus(inner) => self.node(inner, &mut HashSet::new()),
            Node::Unsatisfiable(inner) => {
                // A subtree proven empty by a missing constant keeps its
                // real operators when it contains a zero-row scan that
                // short-circuits execution anyway: the planner drives the
                // zero-estimate pattern first, and EXPLAIN keeps showing
                // the actual scans. Only subtrees with no natural short
                // circuit (constant-false filters over live patterns,
                // empty unions) collapse to one synthetic empty scan.
                if short_circuits(inner) {
                    self.node(inner, bound);
                    *node = std::mem::replace(&mut **inner, Node::Steps(Vec::new()));
                } else {
                    bound.extend(node_vars(inner));
                    if let Some(bgps) = &mut self.bgps {
                        bgps.push(None);
                    }
                    *node = Node::Steps(vec![unsatisfiable_step()]);
                }
            }
        }
    }
}

/// True when executing `node` starts from a scan that produces zero rows
/// on its own — an unsatisfiable triple pattern, or a join whose first
/// (reordered) input is proven empty. Such subtrees are planned normally:
/// the pipeline stops at the zero-row producer.
fn short_circuits(node: &Node) -> bool {
    match node {
        Node::Steps(steps) => steps.iter().any(|s| s.triple.unsatisfiable()),
        Node::Join(children) => children.first().is_some_and(short_circuits),
        Node::Filter(_, _, inner) => short_circuits(inner),
        Node::Unsatisfiable(_) => true,
        _ => false,
    }
}

/// A synthetic always-empty step: every position is a constant absent from
/// the dictionary, which every execution path (row probe, hash build,
/// vectorized scan) already treats as a zero-row scan.
fn unsatisfiable_step() -> Step {
    let marker = Term::iri("urn:pgrdf:unsatisfiable");
    Step::unplanned(CTriple {
        s: CPos::Const(marker.clone(), None),
        p: CPos::Const(marker.clone(), None),
        o: CPos::Const(marker, None),
        g: CGraph::Any,
    })
}

/// One constant of a compiled plan, as [`visit_constants`] hands it out.
#[derive(Debug)]
pub(crate) enum Site<'p> {
    /// The subject or object of a planned BGP step: the only position a
    /// constant the plan cache rebinds may hold.
    StepEnd(&'p Term),
    /// The steps of one planned BGP, before their constants are visited.
    Steps(&'p mut Vec<Step>),
    /// Any other constant with its ID: a step's predicate or graph, a
    /// closure path's endpoint or predicate.
    Term(&'p Term, Option<TermId>),
    /// A bare ID: an `?v = <const>` filter fast path, a closure path's
    /// `GRAPH` constant.
    Id(Option<TermId>),
    /// A constant kept as a term only: a VALUES cell, a CONSTRUCT
    /// template term.
    Bare(&'p Term),
    /// An expression constant.
    Value(&'p Value),
}

/// Visits every constant of a compiled plan — including EXISTS patterns
/// and sub-selects — in a fixed order.
pub(crate) fn visit_constants(plan: &mut CompiledQuery, f: &mut impl FnMut(Site<'_>)) {
    match &mut plan.form {
        CForm::Select(sel) | CForm::Ask(sel) => visit_select(sel, f),
        CForm::Construct(templates, sel) => {
            for t in templates.iter() {
                let graph = t.graph.iter();
                for pos in [&t.subject, &t.predicate, &t.object]
                    .into_iter()
                    .chain(graph)
                {
                    if let VarOrTerm::Term(term) = pos {
                        f(Site::Bare(term));
                    }
                }
            }
            visit_select(sel, f);
        }
    }
    for node in &mut plan.exists {
        visit_node(node, f);
    }
}

fn visit_select(sel: &mut CSelect, f: &mut impl FnMut(Site<'_>)) {
    for proj in sel.projection.iter().chain(&sel.hidden) {
        if let Some(expr) = &proj.expr {
            visit_expr(expr, f);
        }
    }
    for agg in &sel.aggregates {
        match agg {
            CAggregate::CountAll => {}
            CAggregate::Count { expr, .. }
            | CAggregate::Sum(expr)
            | CAggregate::Avg(expr)
            | CAggregate::Min(expr)
            | CAggregate::Max(expr) => visit_expr(expr, f),
        }
    }
    for expr in sel.having.iter().chain(sel.order_by.iter().map(|(e, _)| e)) {
        visit_expr(expr, f);
    }
    visit_node(&mut sel.root, f);
}

fn visit_node(node: &mut Node, f: &mut impl FnMut(Site<'_>)) {
    match node {
        Node::Steps(steps) => {
            f(Site::Steps(steps));
            for step in steps {
                for end in [&step.triple.s, &step.triple.o] {
                    if let CPos::Const(term, _) = end {
                        f(Site::StepEnd(term));
                    }
                }
                if let CPos::Const(term, id) = &step.triple.p {
                    f(Site::Term(term, *id));
                }
                if let CGraph::Const(term, id) = &step.triple.g {
                    f(Site::Term(term, *id));
                }
            }
        }
        Node::Path(p) => {
            for end in [&p.s, &p.o] {
                if let CPos::Const(term, id) = end {
                    f(Site::Term(term, *id));
                }
            }
            visit_cpath(&p.path, f);
            if let GraphConstraint::Named(id) = p.graph {
                f(Site::Id((id.0 != u64::MAX).then_some(id)));
            }
        }
        Node::Join(children) => {
            for child in children {
                visit_node(child, f);
            }
        }
        Node::Filter(exprs, _, inner) => {
            for expr in exprs.iter() {
                visit_expr(expr, f);
            }
            visit_node(inner, f);
        }
        Node::Union(a, b) | Node::Optional(a, b) => {
            visit_node(a, f);
            visit_node(b, f);
        }
        Node::SubSelect(sel) => visit_select(sel, f),
        Node::Values { rows, .. } => {
            for term in rows.iter().flatten().flatten() {
                f(Site::Bare(term));
            }
        }
        Node::Extend(_, expr) => visit_expr(expr, f),
        Node::Minus(inner) | Node::Unsatisfiable(inner) => visit_node(inner, f),
    }
}

fn visit_cpath(path: &CPath, f: &mut impl FnMut(Site<'_>)) {
    match path {
        CPath::Iri(term, id) => f(Site::Term(term, *id)),
        CPath::Sequence(a, b) | CPath::Alternative(a, b) => {
            visit_cpath(a, f);
            visit_cpath(b, f);
        }
        CPath::Inverse(p) | CPath::ZeroOrMore(p) | CPath::OneOrMore(p) | CPath::ZeroOrOne(p) => {
            visit_cpath(p, f)
        }
    }
}

fn visit_expr(expr: &CExpr, f: &mut impl FnMut(Site<'_>)) {
    match expr {
        CExpr::Const(value) => f(Site::Value(value)),
        CExpr::SlotEqConst(_, id, fallback) => {
            f(Site::Id(id.map(TermId)));
            visit_expr(fallback, f);
        }
        CExpr::Or(a, b) | CExpr::And(a, b) | CExpr::Compare(_, a, b) | CExpr::Arith(_, a, b) => {
            visit_expr(a, f);
            visit_expr(b, f);
        }
        CExpr::Not(a) | CExpr::Neg(a) => visit_expr(a, f),
        CExpr::Call(_, args) => {
            for arg in args {
                visit_expr(arg, f);
            }
        }
        CExpr::Var(_) | CExpr::KindCheck(..) | CExpr::Agg(_) | CExpr::ExistsRef(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use quadstore::Store;
    use rdf_model::Quad;

    fn small_store() -> Store {
        let store = Store::new();
        store.create_model("m").unwrap();
        let f = "http://pg/r/follows";
        let tag = "http://pg/k/hasTag";
        let mut quads = Vec::new();
        for i in 0..100u32 {
            quads.push(
                Quad::triple(
                    Term::iri(format!("http://pg/v{i}")),
                    Term::iri(f),
                    Term::iri(format!("http://pg/v{}", (i + 1) % 100)),
                )
                .unwrap(),
            );
        }
        quads.push(
            Quad::triple(
                Term::iri("http://pg/v1"),
                Term::iri(tag),
                Term::string("#x"),
            )
            .unwrap(),
        );
        store.bulk_load("m", &quads).unwrap();
        store
    }

    #[test]
    fn selective_pattern_planned_first() {
        let store = small_store();
        let view = store.dataset("m").unwrap();
        let q = parse_query(
            "PREFIX k: <http://pg/k/> PREFIX r: <http://pg/r/>\
             SELECT ?nf WHERE { ?n k:hasTag \"#x\" . ?nf r:follows ?n }",
        )
        .unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        let Node::Steps(steps) = &sel.root else {
            panic!("expected steps")
        };
        // hasTag (est 1) must be planned before follows (est 100).
        assert!(steps[0].est_scan <= steps[1].est_scan);
        assert_eq!(steps.len(), 2);
        // Second step is joined: small left side → NLJ.
        assert_eq!(steps[1].strategy, Strategy::IndexNlj);
    }

    #[test]
    fn skewed_data_reorders_joined_patterns_by_stat_fanout() {
        // 200 "wide" edges spread over 200 subjects but only 5 objects,
        // 100 "narrow" edges all pointing at one hub object, one "rare"
        // edge to drive. The narrow pattern has the smaller *total*
        // cardinality (100 < 200), so cardinality ordering would probe it
        // first — but its join slot is the object position, where the
        // model has only ~7 distinct values, so each probe fans out to
        // ~14 rows. The wide pattern joined by subject fans out to ~1.
        // Stats-based ordering must run wide before narrow.
        let store = Store::new();
        store.create_model("m").unwrap();
        let mut quads = Vec::new();
        for i in 0..200 {
            quads.push(
                Quad::triple(
                    Term::iri(format!("http://pg/s{i}")),
                    Term::iri("http://pg/p/wide"),
                    Term::iri(format!("http://pg/obj{}", i % 5)),
                )
                .unwrap(),
            );
        }
        for i in 0..100 {
            quads.push(
                Quad::triple(
                    Term::iri(format!("http://pg/t{i}")),
                    Term::iri("http://pg/p/narrow"),
                    Term::iri("http://pg/hub"),
                )
                .unwrap(),
            );
        }
        quads.push(
            Quad::triple(
                Term::iri("http://pg/a"),
                Term::iri("http://pg/p/rare"),
                Term::iri("http://pg/s0"),
            )
            .unwrap(),
        );
        store.bulk_load("m", &quads).unwrap();
        let view = store.dataset("m").unwrap();
        let q = parse_query(
            "PREFIX p: <http://pg/p/>\
             SELECT ?z WHERE { ?x p:rare ?y . ?y p:wide ?z . ?w p:narrow ?y }",
        )
        .unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        let Node::Steps(steps) = &sel.root else {
            panic!("expected steps")
        };
        assert_eq!(steps.len(), 3);
        assert_eq!(steps[0].est_scan, 1, "rare pattern drives");
        assert_eq!(
            steps[1].est_scan, 200,
            "low-fanout wide join must run before the skewed narrow join"
        );
        assert_eq!(steps[2].est_scan, 100);
    }

    #[test]
    fn sequence_paths_expand_to_joins() {
        let store = small_store();
        let view = store.dataset("m").unwrap();
        let q = parse_query(
            "PREFIX r: <http://pg/r/> SELECT ?y WHERE { <http://pg/v1> r:follows/r:follows ?y }",
        )
        .unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        let Node::Steps(steps) = &sel.root else {
            panic!("expected steps")
        };
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn alternation_becomes_union() {
        let store = small_store();
        let view = store.dataset("m").unwrap();
        let q =
            parse_query("PREFIX r: <http://pg/r/> SELECT ?y WHERE { ?x (r:follows|r:follows) ?y }")
                .unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        assert!(matches!(sel.root, Node::Union(_, _)));
    }

    #[test]
    fn closure_becomes_path_step() {
        let store = small_store();
        let view = store.dataset("m").unwrap();
        let q = parse_query(
            "PREFIX r: <http://pg/r/> SELECT ?y WHERE { <http://pg/v1> r:follows+ ?y }",
        )
        .unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        assert!(matches!(sel.root, Node::Path(_)));
    }

    #[test]
    fn missing_constant_marks_unsatisfiable() {
        let store = small_store();
        let view = store.dataset("m").unwrap();
        let q = parse_query("SELECT ?x WHERE { ?x <http://nowhere> ?y }").unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        let Node::Steps(steps) = &sel.root else {
            panic!("expected steps")
        };
        assert!(steps[0].triple.unsatisfiable());
        assert_eq!(steps[0].est_scan, 0);
    }

    #[test]
    fn aggregates_are_collected() {
        let store = small_store();
        let view = store.dataset("m").unwrap();
        let q = parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?x ?p ?y }").unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        assert_eq!(sel.aggregates.len(), 1);
        assert!(sel.is_grouped());
        assert!(matches!(sel.projection[0].expr, Some(CExpr::Agg(0))));
    }

    #[test]
    fn filter_eq_const_gets_fast_path() {
        let store = small_store();
        let view = store.dataset("m").unwrap();
        let q = parse_query("SELECT ?v WHERE { ?x ?k ?v FILTER (?v = \"#x\") }").unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        let Node::Filter(filters, _, _) = &sel.root else {
            panic!("expected filter")
        };
        assert!(matches!(filters[0], CExpr::SlotEqConst(_, Some(_), _)));
    }

    #[test]
    fn fresh_vars_are_hidden_from_select_star() {
        let store = small_store();
        let view = store.dataset("m").unwrap();
        let q =
            parse_query("PREFIX r: <http://pg/r/> SELECT * WHERE { ?x r:follows/r:follows ?y }")
                .unwrap();
        let c = compile(&view, &q).unwrap();
        let CForm::Select(sel) = c.form else {
            panic!("expected select")
        };
        let names: Vec<&str> = sel.projection.iter().map(|p| c.vars.name(p.slot)).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}
