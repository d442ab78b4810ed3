//! Cached handles into the global [`telemetry`] registry.
//!
//! Every accessor resolves its metric once (a brief registry lock) and
//! then hands out a `&'static` handle, so hot paths pay one relaxed
//! atomic add per event. Call sites gate on [`telemetry::enabled`]
//! *before* touching these, so the disabled cost is a single relaxed
//! bool load per operation.

use std::sync::{Arc, Mutex, OnceLock};

use telemetry::{Counter, Histogram};

use crate::index::IndexKind;

macro_rules! counter_fn {
    ($fn:ident, $name:expr, $help:expr) => {
        /// Cached global counter (see the metric catalog in DESIGN.md §11).
        pub(crate) fn $fn() -> &'static Counter {
            static C: OnceLock<Arc<Counter>> = OnceLock::new();
            C.get_or_init(|| telemetry::global().counter($name, $help))
        }
    };
}

macro_rules! histogram_fn {
    ($fn:ident, $name:expr, $help:expr) => {
        /// Cached global histogram (see the metric catalog in DESIGN.md §11).
        pub(crate) fn $fn() -> &'static Histogram {
            static H: OnceLock<Arc<Histogram>> = OnceLock::new();
            H.get_or_init(|| telemetry::global().histogram($name, $help))
        }
    };
}

counter_fn!(
    delta_hits,
    "pgrdf_delta_hits_total",
    "Rows served from a model's uncompacted DML delta overlay"
);
counter_fn!(
    compactions,
    "pgrdf_compactions_total",
    "DML-delta folds into sorted base indexes"
);
counter_fn!(
    publishes,
    "pgrdf_publishes_total",
    "Write batches published as a new MVCC generation"
);
counter_fn!(
    snapshot_pins,
    "pgrdf_snapshot_pins_total",
    "Snapshots pinned by readers"
);
counter_fn!(
    wal_appends,
    "pgrdf_wal_appends_total",
    "WAL frames appended"
);
counter_fn!(
    wal_retries,
    "pgrdf_wal_retries_total",
    "WAL append/fsync attempts retried after transient failures"
);
counter_fn!(
    wal_read_only_flips,
    "pgrdf_wal_read_only_flips_total",
    "Degradations to read-only after persistent WAL failures"
);
counter_fn!(
    wal_recoveries,
    "pgrdf_wal_recoveries_total",
    "Successful write-path recoveries after a read-only flip"
);
histogram_fn!(
    wal_fsync_nanos,
    "pgrdf_wal_fsync_nanos",
    "WAL fsync latency in nanoseconds"
);

/// Per-composite-index scan statistics, one set of series per
/// [`IndexKind`] label.
#[derive(Debug)]
pub(crate) struct IndexMetrics {
    /// Range scans issued through this index.
    pub scans: Arc<Counter>,
    /// Keys inside the scanned ranges (before the residual filter).
    pub rows_scanned: Arc<Counter>,
    /// Rows that survived the residual pattern filter.
    pub rows_matched: Arc<Counter>,
}

/// Per-kind metric handles, cached so a scan resolves its counters with
/// one short lock over a ≤6-entry list (only when telemetry is enabled).
pub(crate) fn index_metrics(kind: IndexKind) -> Arc<IndexMetrics> {
    type Cache = Mutex<Vec<(IndexKind, Arc<IndexMetrics>)>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut cache = cache.lock().expect("index metrics cache poisoned");
    if let Some((_, m)) = cache.iter().find(|(k, _)| *k == kind) {
        return Arc::clone(m);
    }
    let label = kind.to_string();
    let reg = telemetry::global();
    let m = Arc::new(IndexMetrics {
        scans: reg.counter_with(
            "pgrdf_index_range_scans_total",
            "index",
            &label,
            "Range scans per composite index",
        ),
        rows_scanned: reg.counter_with(
            "pgrdf_index_rows_scanned_total",
            "index",
            &label,
            "Keys walked inside scanned ranges per composite index",
        ),
        rows_matched: reg.counter_with(
            "pgrdf_index_rows_matched_total",
            "index",
            &label,
            "Rows surviving the residual filter per composite index",
        ),
    });
    cache.push((kind, Arc::clone(&m)));
    m
}
