//! Compiled-plan cache: parse + compile once, replay the plan until the
//! store changes.
//!
//! Compiled plans bake in three kinds of store state: interned constant
//! IDs, cost-based join order/strategy decisions, and (implicitly) the
//! index set the access paths were chosen from. The cache therefore keys
//! an entry on *(dataset signature, query text, compile options)* — the
//! dataset signature includes each member model's index set — and stamps
//! it with the store's **mutation epoch** at compile time. Every store
//! mutation (DML, DDL, index changes, even dictionary interning) bumps
//! the epoch, so a lookup whose entry carries a stale epoch is treated as
//! an invalidation: the entry is dropped and the query recompiled.
//!
//! Eviction is LRU over a fixed capacity, tracked with a monotone tick —
//! no clocks, no background threads. All counters are atomics so the
//! cache can sit behind an `&self` store handle shared across threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::SparqlError;
use crate::plan::{CompileOptions, CompiledQuery};

/// Default number of cached plans (per store handle).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Dataset/index signature (see `DatasetView::index_signature`).
    dataset: String,
    /// Full query text, byte-for-byte.
    text: String,
    /// Compile options the plan was built under.
    options: CompileOptions,
}

#[derive(Debug)]
struct Entry {
    plan: Arc<CompiledQuery>,
    /// Store mutation epoch the plan was compiled under.
    epoch: u64,
    /// Optimizer statistics version the plan was costed under.
    stats: u64,
    /// LRU tick of the last hit or insert.
    last_used: u64,
    /// LRU tick at insert (entry age = current tick − inserted).
    inserted: u64,
    /// Lookups served from this entry.
    hits: u64,
    /// Rows produced by the most recent execution of this plan.
    actual_rows: Option<u64>,
}

/// A point-in-time description of one live plan-cache entry — the
/// `pgrdf:sys/plans` system graph materializes these.
#[derive(Debug, Clone)]
pub struct PlanCacheEntryInfo {
    /// Dataset/index signature part of the key.
    pub dataset: String,
    /// Query text part of the key.
    pub text: String,
    /// Store mutation epoch the plan was compiled under.
    pub epoch: u64,
    /// Optimizer statistics version the plan was costed under.
    pub stats: u64,
    /// Lookups served from this entry.
    pub hits: u64,
    /// Entry age in cache ticks (lookups since insertion).
    pub age_ticks: u64,
    /// The optimizer's final-row estimate for the plan.
    pub estimated_rows: u64,
    /// Rows produced by the most recent execution (`None` = never run).
    pub actual_rows: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// A bounded, epoch-validated LRU cache of compiled query plans.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the cached plan for `(dataset, text, options)` if one
    /// exists *and* was compiled under the current `epoch` *and* the
    /// optimizer statistics it was costed against are still current
    /// (`stats_version`); otherwise runs `compile`, caches its result
    /// under `epoch` and the post-compile stats version, and returns it.
    ///
    /// `stats_version` is a closure so the (cheap but non-free) version
    /// computation only happens when an entry actually exists at the
    /// current epoch — the epoch check already subsumes it otherwise,
    /// since every mutation that can move stats also bumps the epoch.
    /// An explicit `ANALYZE`-style stats refresh moves the stats version
    /// *without* touching the epoch, and this check catches exactly that.
    ///
    /// A present-but-stale entry counts as an **invalidation** (and a
    /// miss); the stale plan is dropped before recompiling. `compile`
    /// runs outside the cache lock, so a slow compilation never blocks
    /// concurrent lookups; if two threads race to fill the same key, the
    /// last writer wins (both results are valid for the epoch).
    pub fn get_or_compile(
        &self,
        dataset: &str,
        text: &str,
        options: CompileOptions,
        epoch: u64,
        stats_version: impl Fn() -> u64,
        compile: impl FnOnce() -> Result<CompiledQuery, SparqlError>,
    ) -> Result<Arc<CompiledQuery>, SparqlError> {
        let key = CacheKey {
            dataset: dataset.to_string(),
            text: text.to_string(),
            options,
        };
        {
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key) {
                Some(entry) if entry.epoch == epoch && entry.stats == stats_version() => {
                    entry.last_used = tick;
                    entry.hits += 1;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if telemetry::enabled() {
                        crate::metrics::plan_cache_hits().inc();
                    }
                    return Ok(Arc::clone(&entry.plan));
                }
                Some(_) => {
                    inner.map.remove(&key);
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    if telemetry::enabled() {
                        crate::metrics::plan_cache_invalidations().inc();
                        crate::metrics::plan_cache_misses().inc();
                    }
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    if telemetry::enabled() {
                        crate::metrics::plan_cache_misses().inc();
                    }
                }
            }
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let span = telemetry::enabled().then(|| crate::metrics::compile_nanos().span());
        let plan = Arc::new(compile()?);
        drop(span);
        let stats = stats_version();
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                if telemetry::enabled() {
                    crate::metrics::plan_cache_evictions().inc();
                }
            }
        }
        inner.map.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                epoch,
                stats,
                last_used: tick,
                inserted: tick,
                hits: 0,
                actual_rows: None,
            },
        );
        Ok(plan)
    }

    /// Records the actual row count of an execution against the cached
    /// entry for `(dataset, text, options)`, so `pgrdf:sys/plans` can
    /// report estimated-vs-actual rows per plan. A no-op if the entry has
    /// since been evicted or invalidated.
    pub fn note_result(&self, dataset: &str, text: &str, options: CompileOptions, rows: u64) {
        let key = CacheKey {
            dataset: dataset.to_string(),
            text: text.to_string(),
            options,
        };
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.actual_rows = Some(rows);
        }
    }

    /// Point-in-time descriptions of every live entry, most recently
    /// used first.
    pub fn entries(&self) -> Vec<PlanCacheEntryInfo> {
        let inner = self.inner.lock().expect("plan cache poisoned");
        let tick = inner.tick;
        let mut out: Vec<(u64, PlanCacheEntryInfo)> = inner
            .map
            .iter()
            .map(|(k, e)| {
                (
                    e.last_used,
                    PlanCacheEntryInfo {
                        dataset: k.dataset.clone(),
                        text: k.text.clone(),
                        epoch: e.epoch,
                        stats: e.stats,
                        hits: e.hits,
                        age_ticks: tick.saturating_sub(e.inserted),
                        estimated_rows: e.plan.estimated_rows(),
                        actual_rows: e.actual_rows,
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| b.0.cmp(&a.0));
        out.into_iter().map(|(_, info)| info).collect()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan cache poisoned").map.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        self.inner.lock().expect("plan cache poisoned").map.clear();
    }

    /// Lookups that returned a current-epoch plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to (re)compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Misses caused by a present-but-stale entry (store epoch moved).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Times the compile closure actually ran — the "zero parse/compile
    /// work on a hit" assertion hangs off this counter.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Current-epoch plans dropped by LRU capacity pressure (stale-epoch
    /// drops count as invalidations instead).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CForm, VarTable};

    fn dummy_plan() -> CompiledQuery {
        CompiledQuery {
            vars: VarTable::default(),
            exists: Vec::new(),
            form: CForm::Ask(crate::plan::Node::Steps(Vec::new())),
            logical: String::new(),
        }
    }

    fn opts() -> CompileOptions {
        CompileOptions::default()
    }

    #[test]
    fn hit_skips_compile() {
        let cache = PlanCache::new(4);
        for _ in 0..3 {
            cache
                .get_or_compile("m[PCSGM]", "SELECT * WHERE {}", opts(), 7, || 0, || {
                    Ok(dummy_plan())
                })
                .unwrap();
        }
        assert_eq!(cache.compiles(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.invalidations(), 0);
    }

    #[test]
    fn epoch_change_invalidates() {
        let cache = PlanCache::new(4);
        let run = |epoch| {
            cache
                .get_or_compile("m[PCSGM]", "ASK {}", opts(), epoch, || 0, || Ok(dummy_plan()))
                .unwrap()
        };
        run(1);
        run(1);
        run(2); // store mutated: recompile
        assert_eq!(cache.compiles(), 2);
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = PlanCache::new(4);
        let mut forced = CompileOptions::default();
        forced.force_join = Some(crate::plan::ForcedJoin::Hash);
        cache.get_or_compile("a[PCSGM]", "ASK {}", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        cache.get_or_compile("b[PCSGM]", "ASK {}", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        cache.get_or_compile("a[PCSGM]", "ASK {}", forced, 1, || 0, || Ok(dummy_plan())).unwrap();
        cache.get_or_compile("a[SPCGM]", "ASK {}", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        cache.get_or_compile("m", "q1", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        cache.get_or_compile("m", "q2", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        // Touch q1 so q2 becomes the LRU victim.
        cache.get_or_compile("m", "q1", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        cache.get_or_compile("m", "q3", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        assert_eq!(cache.len(), 2);
        cache.get_or_compile("m", "q1", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        assert_eq!(cache.hits(), 2, "q1 must have survived eviction");
        cache.get_or_compile("m", "q2", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        assert_eq!(cache.compiles(), 4, "q2 must have been evicted and recompiled");
        assert_eq!(cache.evictions(), 2, "q2 then q3 fell to capacity pressure");
        assert_eq!(cache.invalidations(), 0, "no epoch moved in this test");
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new(4);
        let err = cache.get_or_compile("m", "bad", opts(), 1, || 0, || {
            Err(SparqlError::Unsupported("nope".into()))
        });
        assert!(err.is_err());
        assert!(cache.is_empty());
        cache.get_or_compile("m", "bad", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        assert_eq!(cache.compiles(), 2);
    }

    #[test]
    fn stats_drift_invalidates_at_same_epoch() {
        let cache = PlanCache::new(4);
        let run = |stats: u64| {
            cache
                .get_or_compile("m", "ASK {}", opts(), 5, move || stats, || Ok(dummy_plan()))
                .unwrap()
        };
        run(10);
        run(10);
        run(11); // ANALYZE moved the stats version without an epoch bump
        assert_eq!(cache.compiles(), 2);
        assert_eq!(cache.invalidations(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn note_result_surfaces_actual_rows() {
        let cache = PlanCache::new(4);
        cache.get_or_compile("m", "ASK {}", opts(), 1, || 0, || Ok(dummy_plan())).unwrap();
        assert_eq!(cache.entries()[0].actual_rows, None);
        cache.note_result("m", "ASK {}", opts(), 42);
        assert_eq!(cache.entries()[0].actual_rows, Some(42));
        cache.note_result("m", "other", opts(), 9); // no such entry: no-op
        assert_eq!(cache.len(), 1);
    }
}
