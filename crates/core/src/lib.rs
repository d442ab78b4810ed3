//! # pgrdf — Property Graphs as RDF
//!
//! A from-scratch reproduction of *"A Tale of Two Graphs: Property Graphs
//! as RDF in Oracle"* (Das et al., EDBT 2014). The paper's contribution —
//! three schemes for storing property graphs in an RDF quad store and
//! querying them with standard SPARQL — lives in this crate:
//!
//! * [`convert`](mod@convert) — the RF (reification), NG (named graph), and SP
//!   (subproperty) transformations of §2 (Table 1), with the §2.3
//!   optimizations as options.
//! * [`vocab::PgVocab`] — the IRI-generation vocabulary of §2.2
//!   (`http://pg/v1`, `http://pg/r/follows`, `http://pg/k/age`, ...).
//! * [`cardinality`] — the Table 2 prediction formulas and measurement.
//! * [`queries::QuerySet`] — SPARQL builders for the Table 3 patterns and
//!   the Table 10 experiment queries (EQ1–EQ12), per model.
//! * [`partition`] — the §3.2 three-partition layout (topology /
//!   node-KV / edge-KV) with a virtual union model.
//! * [`roundtrip`] — lossless RDF→PG reconstruction.
//! * [`PgRdfStore`] — the facade tying it all together.

#![warn(missing_docs)]

pub mod cardinality;
pub mod convert;
pub mod error;
pub mod governor;
pub mod metrics;
pub mod partition;
pub mod publish;
pub mod queries;
pub mod roundtrip;
pub mod store;
pub mod sysview;
pub mod vocab;

pub use convert::{convert, convert_with, ConvertOptions, PgRdfModel};
pub use error::CoreError;
pub use governor::{AdmissionPermit, Governor, GovernorConfig, GovernorStats};
pub use metrics::SlowQuery;
pub use queries::QuerySet;
pub use store::{LoadOptions, PartitionLayout, PgRdfStore};
pub use sysview::{
    is_sys_query, SYS_GRAPH_METRICS, SYS_GRAPH_PLANS, SYS_GRAPH_QUERIES, SYS_GRAPH_STORE, SYS_NS,
};
pub use vocab::PgVocab;
