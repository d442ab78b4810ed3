//! # sparql
//!
//! A SPARQL 1.1 subset engine over the `quadstore` crate: lexer, parser,
//! compiler/planner, streaming executor, property paths, aggregation,
//! sub-selects, `EXPLAIN`, and SPARQL Update. The subset covers every
//! query in the paper (Tables 3, 5, 10 and the §5.2 linked-data examples)
//! without modification.
//!
//! ```
//! use quadstore::Store;
//! use rdf_model::{Quad, Term};
//!
//! let store = Store::new();
//! store.create_model("m").unwrap();
//! store.bulk_load("m", &[
//!     Quad::triple(Term::iri("http://pg/v1"), Term::iri("http://pg/k/name"),
//!                  Term::string("Amy")).unwrap(),
//! ]).unwrap();
//!
//! let results = sparql::query(&store, "m",
//!     "PREFIX key: <http://pg/k/> SELECT ?n WHERE { ?n key:name \"Amy\" }").unwrap();
//! match results {
//!     sparql::QueryResults::Solutions(s) => assert_eq!(s.len(), 1),
//!     _ => unreachable!(),
//! }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod cache;
pub(crate) mod cost;
pub mod error;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod json;
pub mod lexer;
pub mod logical;
pub(crate) mod metrics;
pub mod parser;
pub mod path;
pub mod plan;
pub mod profile;
pub mod results;
pub mod rewrite;
pub mod update;

pub use ast::{Query, Update};
pub use cache::{CachedPlan, PlanCache, PlanCacheEntryInfo, DEFAULT_PLAN_CACHE_CAPACITY};
pub use error::SparqlError;
pub use exec::{
    execute_compiled, execute_compiled_with_options, execute_profiled, execute_reference,
    CancelToken, ExecLimits, ExecObserver, ExecOptions, ExecProfile, QueryResults, StepTally,
    DEFAULT_MORSEL_SIZE,
};
pub use parser::{parse_query, parse_update};
pub use plan::{compile, compile_with, CompileOptions, CompiledQuery, ForcedJoin};
pub use profile::{QueryProfile, StepProfile};
pub use results::Solutions;
pub use update::{execute_update, UpdateStats};

use quadstore::Store;

/// Parses, compiles, and executes a query against a named model or
/// virtual model (e.g. a union of models, §3.2).
pub fn query(store: &Store, dataset: &str, text: &str) -> Result<QueryResults, SparqlError> {
    query_with_options(store, dataset, text, ExecOptions::default())
}

/// [`query`] with explicit execution options (worker threads, morsel
/// size, resource limits). Every setting returns the same rows in the
/// same order.
pub fn query_with_options(
    store: &Store,
    dataset: &str,
    text: &str,
    options: ExecOptions,
) -> Result<QueryResults, SparqlError> {
    let view = store.dataset(dataset)?;
    let parsed = parse_query(text)?;
    let compiled = compile(&view, &parsed)?;
    execute_compiled_with_options(&view, &compiled, options)
}

/// Convenience: run a SELECT and return its solutions (errors on ASK).
pub fn select(store: &Store, dataset: &str, text: &str) -> Result<Solutions, SparqlError> {
    query(store, dataset, text)?.into_solutions()
}

/// Convenience: run a CONSTRUCT and return its quads (errors otherwise).
pub fn construct(
    store: &Store,
    dataset: &str,
    text: &str,
) -> Result<Vec<rdf_model::Quad>, SparqlError> {
    match query(store, dataset, text)? {
        QueryResults::Graph(quads) => Ok(quads),
        _ => Err(SparqlError::Unsupported(
            "expected a CONSTRUCT query".into(),
        )),
    }
}

/// Renders the execution plan of a query (the Table 5 analogue).
pub fn explain_query(store: &Store, dataset: &str, text: &str) -> Result<String, SparqlError> {
    let view = store.dataset(dataset)?;
    let parsed = parse_query(text)?;
    let compiled = compile(&view, &parsed)?;
    Ok(explain::render(&compiled))
}

/// Renders a query's tree after the rewrite rules and before planning —
/// the `EXPLAIN LOGICAL` text, headed by the rules that fired.
pub fn explain_logical_query(
    store: &Store,
    dataset: &str,
    text: &str,
) -> Result<String, SparqlError> {
    let view = store.dataset(dataset)?;
    let parsed = parse_query(text)?;
    Ok(compile(&view, &parsed)?.logical)
}

/// Parses and executes a SPARQL Update against a semantic model. Each
/// statement applies atomically (see [`execute_update`]), so the store
/// can be shared with concurrent readers.
pub fn update(store: &Store, model: &str, text: &str) -> Result<UpdateStats, SparqlError> {
    let parsed = parse_update(text)?;
    execute_update(store, model, &parsed)
}
