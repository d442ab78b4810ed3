//! Cached handles into the global [`telemetry`] registry for the SPARQL
//! engine (plan cache, compiler, morsel executor). Call sites gate on
//! [`telemetry::enabled`] so the disabled cost is one relaxed bool load
//! per event — never per row.

use std::sync::{Arc, OnceLock};

use telemetry::{Counter, Histogram};

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
    plan_cache_hits,
    "pgrdf_plan_cache_hits_total",
    "Plan-cache lookups served from cache"
);
counter_fn!(
    plan_cache_misses,
    "pgrdf_plan_cache_misses_total",
    "Plan-cache lookups that had to compile"
);
counter_fn!(
    plan_cache_evictions,
    "pgrdf_plan_cache_evictions_total",
    "Plans evicted by LRU capacity pressure"
);
counter_fn!(
    plan_cache_invalidations,
    "pgrdf_plan_cache_invalidations_total",
    "Cached plans dropped as stale: an absent constant appeared or statistics were refreshed"
);
counter_fn!(
    morsels_claimed,
    "pgrdf_morsels_claimed_total",
    "Morsels claimed by parallel executor workers"
);
histogram_fn!(
    compile_nanos,
    "pgrdf_compile_nanos",
    "Query parse+compile time in nanoseconds"
);
histogram_fn!(
    worker_busy_nanos,
    "pgrdf_worker_busy_nanos",
    "Per-worker busy time per parallel execution, nanoseconds"
);
histogram_fn!(
    hash_build_rows,
    "pgrdf_hash_build_rows",
    "Rows materialised into hash-join build sides"
);
counter_fn!(
    vec_batches_emitted,
    "pgrdf_vec_batches_emitted_total",
    "Column batches emitted by vectorized operators"
);
counter_fn!(
    vec_rows_emitted,
    "pgrdf_vec_rows_emitted_total",
    "Rows emitted by vectorized operators (post-selection)"
);
