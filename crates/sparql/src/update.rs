//! SPARQL 1.1 Update execution against one semantic model.
//!
//! The paper (§2.1) observes that for DML "the key performance metric ...
//! is time taken to locate existing quads to delete, which is tied to query
//! performance" — accordingly, `DELETE/INSERT ... WHERE` runs the WHERE
//! pattern through the ordinary query pipeline, then applies the templates.

use quadstore::Store;
use rdf_model::{GraphName, Quad, Term};

use crate::ast::{
    GraphPattern, QuadTemplate, Query, SelectQuery, TriplePattern, Update, VarOrTerm,
};
use crate::error::SparqlError;
use crate::exec::{execute_compiled, QueryResults};
use crate::plan::{compile_with, CompileOptions};
use crate::results::Solutions;

/// Counters returned by update execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Quads actually inserted (not previously present).
    pub inserted: usize,
    /// Quads actually deleted (previously present).
    pub deleted: usize,
}

/// Executes an update against the named semantic model of the store.
///
/// Each update statement runs as one [`quadstore::WriteBatch`]: the WHERE
/// pattern (if any) is evaluated against the published generation first,
/// then every delete and insert of the statement is applied to a private
/// draft and published in a single atomic swap. Concurrent readers see
/// either none or all of a statement's quads — never a torn prefix.
pub fn execute_update(
    store: &Store,
    model: &str,
    update: &Update,
) -> Result<UpdateStats, SparqlError> {
    let mut stats = UpdateStats::default();
    // Evaluate WHERE clauses before taking the writer lock: reads need
    // only a pinned snapshot and must not serialize behind other writers.
    let (deletes, inserts) = match update {
        Update::InsertData(templates) => (Vec::new(), ground_quads(templates)?),
        Update::DeleteData(templates) => (ground_quads(templates)?, Vec::new()),
        Update::DeleteWhere(templates) => {
            let pattern = templates_to_pattern(templates);
            let solutions = run_pattern(store, model, &pattern)?;
            (instantiate(templates, &solutions), Vec::new())
        }
        Update::Modify {
            delete,
            insert,
            pattern,
        } => {
            let solutions = run_pattern(store, model, pattern)?;
            (
                instantiate(delete, &solutions),
                instantiate(insert, &solutions),
            )
        }
    };
    let mut batch = store.begin();
    for quad in &deletes {
        if batch.remove(model, quad)? {
            stats.deleted += 1;
        }
    }
    for quad in &inserts {
        if batch.insert(model, quad)? {
            stats.inserted += 1;
        }
    }
    batch.commit();
    Ok(stats)
}

fn run_pattern(
    store: &Store,
    model: &str,
    pattern: &GraphPattern,
) -> Result<Solutions, SparqlError> {
    let query = Query::Select(SelectQuery {
        distinct: false,
        projection: Vec::new(), // SELECT *
        pattern: pattern.clone(),
        group_by: Vec::new(),
        having: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: None,
    });
    let view = store.dataset(model)?;
    // Strict (non-union) graph semantics so GRAPH targeting in templates
    // matches what gets deleted/inserted.
    let compiled = compile_with(
        &view,
        &query,
        CompileOptions {
            union_default_graph: false,
            ..Default::default()
        },
    )?;
    match execute_compiled(&view, &compiled)? {
        QueryResults::Solutions(s) => Ok(s),
        QueryResults::Boolean(_) | QueryResults::Graph(_) => {
            unreachable!("SELECT returns solutions")
        }
    }
}

fn ground_quads(templates: &[QuadTemplate]) -> Result<Vec<Quad>, SparqlError> {
    let empty = Solutions {
        vars: Vec::new(),
        rows: vec![Vec::new()],
    };
    let quads = instantiate(templates, &empty);
    if quads.len() != templates.len() {
        return Err(SparqlError::Unsupported(
            "INSERT DATA / DELETE DATA require ground (variable-free) quads".into(),
        ));
    }
    Ok(quads)
}

/// Instantiates templates once per solution; template quads with unbound
/// variables or invalid term positions are skipped, per the SPARQL Update
/// semantics.
pub(crate) fn instantiate(templates: &[QuadTemplate], solutions: &Solutions) -> Vec<Quad> {
    let mut out = Vec::new();
    for row in &solutions.rows {
        let lookup = |vt: &VarOrTerm| -> Option<Term> {
            match vt {
                VarOrTerm::Term(t) => Some(t.clone()),
                VarOrTerm::Var(v) => {
                    let col = solutions.vars.iter().position(|name| name == v)?;
                    row.get(col)?.clone()
                }
            }
        };
        for template in templates {
            let (Some(s), Some(p), Some(o)) = (
                lookup(&template.subject),
                lookup(&template.predicate),
                lookup(&template.object),
            ) else {
                continue;
            };
            let graph = match &template.graph {
                None => GraphName::Default,
                Some(g) => match lookup(g) {
                    Some(t) => GraphName::Named(t),
                    None => continue,
                },
            };
            if let Ok(quad) = Quad::new(s, p, o, graph) {
                out.push(quad);
            }
        }
    }
    out
}

/// Converts delete-where templates into an equivalent WHERE pattern.
fn templates_to_pattern(templates: &[QuadTemplate]) -> GraphPattern {
    let mut default_triples = Vec::new();
    let mut graph_groups: Vec<(VarOrTerm, Vec<TriplePattern>)> = Vec::new();
    for t in templates {
        let triple = TriplePattern {
            subject: t.subject.clone(),
            predicate: match &t.predicate {
                VarOrTerm::Var(v) => crate::ast::PredicatePattern::Var(v.clone()),
                VarOrTerm::Term(Term::Iri(iri)) => {
                    crate::ast::PredicatePattern::Path(crate::ast::PropertyPath::Iri(iri.clone()))
                }
                VarOrTerm::Term(other) => {
                    // Invalid predicate: produce a pattern that cannot match.
                    crate::ast::PredicatePattern::Path(crate::ast::PropertyPath::Iri(
                        rdf_model::Iri::new(format!("urn:invalid:{other}")),
                    ))
                }
            },
            object: t.object.clone(),
        };
        match &t.graph {
            None => default_triples.push(triple),
            Some(g) => {
                if let Some((_, triples)) = graph_groups.iter_mut().find(|(gg, _)| gg == g) {
                    triples.push(triple);
                } else {
                    graph_groups.push((g.clone(), vec![triple]));
                }
            }
        }
    }
    let mut members = Vec::new();
    if !default_triples.is_empty() {
        members.push(GraphPattern::Bgp(default_triples));
    }
    for (g, triples) in graph_groups {
        members.push(GraphPattern::Graph(g, Box::new(GraphPattern::Bgp(triples))));
    }
    if members.len() == 1 {
        members.pop().expect("one member")
    } else {
        GraphPattern::Group(members, Vec::new())
    }
}
