//! # quadstore
//!
//! A from-scratch, dictionary-encoded RDF quad store modelled on the
//! Oracle RDF Semantic Graph capabilities the paper relies on (§3.1):
//!
//! * **Semantic models** — named partitions of quads, each with its own
//!   local composite indexes ([`SemanticModel`]).
//! * **Virtual models** — UNION views over semantic models
//!   ([`Store::create_virtual_model`]).
//! * **Composite indexes** — any permutation of S/P/C/G (+ implicit M),
//!   e.g. `PCSGM`, `PSCGM`, `GPSCM` ([`IndexKind`]); scans are index range
//!   scans over sorted ID arrays, or full index scans when no prefix binds.
//! * **Bulk load** from N-Quads ([`bulk::load_nquads`]) and incremental
//!   DML through a delta overlay.
//! * **Statistics** for planner selectivity and the Table 8/9 reports
//!   ([`ModelStats`], [`StorageReport`]).
//! * **Crash-safe durability** — a CRC-checksummed write-ahead log plus
//!   atomic snapshots ([`DurableStore`], [`wal`], [`persist`]), with a
//!   deterministic fault-injection layer ([`faults`]) for crash-matrix
//!   testing.

#![warn(missing_docs)]

pub mod bulk;
pub mod cursor;
pub mod dataset;
pub mod durable;
pub mod error;
pub mod faults;
pub mod ids;
pub mod index;
pub(crate) mod metrics;
pub mod model;
pub mod persist;
pub mod stats;
pub mod store;
pub mod wal;

pub use cursor::SpanCursor;
pub use dataset::{DatasetView, Morsel};
pub use durable::{DurableStore, RetryPolicy, SyncPolicy};
pub use error::StoreError;
pub use faults::{FaultOp, FaultPlan, FaultyVfs, RealFs, ScheduledFault, Vfs};
pub use ids::{EncodedQuad, GraphConstraint, QuadPattern};
pub use index::{gallop, Component, IndexKind, SortedIndex};
pub use model::{AccessPath, SemanticModel, SEALED, TOP};
pub use persist::{recover_from_dir, Recovered};
pub use stats::{
    resource_counts, CboStats, EquiDepthHistogram, ModelStats, PredicateStat, ResourceCounts,
    StatsCell, StorageReport, StorageRow, CBO_DRIFT_THRESHOLD,
};
pub use store::{Snapshot, Store, WriteBatch};
pub use wal::{crc32, scan_wal, WalRecord, WalScan};
