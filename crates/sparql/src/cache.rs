//! Compiled-plan cache keyed by query *shape*: parse and compile once per
//! shape, then bind each text's constants into the cached plan.
//!
//! The lexer's `shape` scan lifts a text's `<…>` IRIs and plain strings
//! out of it, so texts that differ only in those constants share one
//! entry, keyed on *(dataset signature, shape, compile options)* — the
//! dataset signature lists each member model's index set, which access
//! paths are baked from. An entry holds a few **variants**, each a
//! compiled template plus what it takes to reuse it:
//!
//! - A lifted constant is **generic** when it is the only constant token
//!   of its term, it is a triple pattern's subject or object, and the
//!   template holds its term as a planned step's subject or object and
//!   nowhere else (predicate, graph, path, filter, VALUES, template).
//!   A hit resolves a generic's new value in the dictionary and requires
//!   the same presence as at compile time (absent constants prune plans).
//!   Its estimates order joins and pick strategies, so every BGP scanning
//!   a generic is planned again from the input the planner got at compile
//!   time, with the new IDs bound in: the same planner on the same
//!   triples gives the steps a fresh compile would, without parsing,
//!   lowering or rewriting. A binding whose values equal the template's
//!   gets the template itself: no copy and no lookups.
//! - Every other lifted constant is **pinned**: its value is part of the
//!   variant's identity.
//!
//! A plan depends on the store through its statistics, its index set
//! (in the key) and dictionary presence, never on the write epoch. The
//! dictionary is append-only with contiguous IDs, so a variant is valid
//! for a snapshot when its statistics version is current, every constant
//! it resolved is no newer than the snapshot's dictionary (an O(1) check
//! that also refuses snapshots older than the plan), and the constants
//! it found absent are still absent — looked up only once the dictionary
//! has grown past the length they were last checked at. A constant that
//! became present invalidates the variant.
//!
//! Eviction is LRU over a fixed number of plans — variants, whatever
//! their shape — tracked with a monotone tick: no clocks, no background
//! threads. Parsing, compiling and binding run outside the cache lock,
//! and all counters are atomics, so the cache sits behind an `&self`
//! store handle shared across threads.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use quadstore::DatasetView;
use rdf_model::{Iri, Literal, Term, TermId};

use crate::error::SparqlError;
use crate::expr::Value;
use crate::lexer::{Param, ParamKind, Shape};
use crate::parser::ConstToken;
use crate::plan::{
    plan_bgp, visit_constants, CPos, CompileOptions, CompiledQuery, PlannedBgp, Site, Step,
};

/// Default number of cached plans (per store handle).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// `actual_rows` of a variant that never ran.
const NEVER_RAN: u64 = u64::MAX;

/// A generic constant: rebound on every hit.
#[derive(Debug)]
struct Generic {
    /// Index of its param in the shape.
    param: usize,
    /// The template's term and its compile-time ID.
    term: Term,
    id: Option<TermId>,
}

/// A BGP of the template that scans a generic constant: a binding plans
/// it again.
#[derive(Debug)]
struct Replan {
    /// Index of its `Node::Steps` among the plan's, in walk order.
    node: usize,
    /// The planner's input at compile time.
    bgp: PlannedBgp,
    /// (triple index, subject?, generic index) of every generic site.
    fill: Vec<(usize, bool, usize)>,
}

impl Replan {
    /// Plans the BGP with `terms` bound in, into `steps` (the template's).
    fn apply(
        &self,
        view: &DatasetView,
        options: CompileOptions,
        terms: &[(Term, Option<TermId>)],
        steps: &mut Vec<Step>,
    ) {
        let mut bgp = self.bgp.clone();
        for &(i, subject, generic) in &self.fill {
            let triple = &mut bgp.triples[i];
            let (term, id) = terms[generic].clone();
            *if subject {
                &mut triple.s
            } else {
                &mut triple.o
            } = CPos::Const(term, id);
        }
        *steps = plan_bgp(view, options, bgp);
    }
}

/// One compiled template of a shape.
#[derive(Debug)]
struct Variant {
    plan: Arc<CompiledQuery>,
    /// The text it was compiled from.
    text: String,
    /// Every param's value at compile time; the pinned ones are the
    /// variant's identity.
    values: Vec<String>,
    generic: Vec<Generic>,
    replans: Vec<Replan>,
    /// Statistics version the plan was costed under.
    stats: u64,
    /// Dictionary length of the snapshot it was compiled against.
    dict_len: usize,
    /// Largest ID among the resolved constants other than the generics:
    /// a snapshot with a shorter dictionary predates the plan.
    max_id: u64,
    /// Resolved constants other than the generics that were absent.
    absent: Vec<Term>,
    /// Longest dictionary under which every `absent` term was last seen
    /// still absent.
    absent_checked: AtomicUsize,
    /// Set for plans cached through [`PlanCache::get_or_compile`], which
    /// has no view to check the dictionary in: the caller's stamp then
    /// stands in for the dictionary checks.
    stamp: Option<u64>,
    hits: AtomicU64,
    last_used: AtomicU64,
    inserted: u64,
    /// Rows of the most recent execution, [`NEVER_RAN`] before the first.
    actual_rows: AtomicU64,
}

/// What binding a text to a variant came to.
enum Bind {
    Plan(Arc<CompiledQuery>),
    /// The variant does not serve this binding or snapshot.
    Mismatch,
    /// A constant the variant found absent is now present.
    Stale,
}

impl Variant {
    fn new(plan: CompiledQuery, text: &str, tick: u64) -> Variant {
        Variant {
            plan: Arc::new(plan),
            text: text.to_string(),
            values: Vec::new(),
            generic: Vec::new(),
            replans: Vec::new(),
            stats: 0,
            dict_len: 0,
            max_id: 0,
            absent: Vec::new(),
            absent_checked: AtomicUsize::new(0),
            stamp: None,
            hits: AtomicU64::new(0),
            last_used: AtomicU64::new(tick),
            inserted: tick,
            actual_rows: AtomicU64::new(NEVER_RAN),
        }
    }

    /// True when the param at `i` of `shape` has this variant's value.
    fn has_value(&self, shape: &Shape<'_>, i: usize) -> bool {
        shape.value(&shape.params()[i]) == self.values[i].as_str()
    }

    /// True when every pinned param of `shape` has this variant's value.
    fn pins_match(&self, shape: &Shape<'_>) -> bool {
        self.stamp.is_none()
            && self.values.len() == shape.params().len()
            && (0..self.values.len())
                .all(|i| self.generic.iter().any(|g| g.param == i) || self.has_value(shape, i))
    }

    /// True when the template serves `shape`'s binding as it is: every
    /// generic has the template's value, with the same presence in a
    /// snapshot whose dictionary holds `dict_len` terms (checked without
    /// a lookup, so a grown dictionary answers `false`).
    fn is_own_binding(&self, shape: &Shape<'_>, dict_len: usize) -> bool {
        self.generic.iter().all(|g| {
            let present = match g.id {
                Some(id) => id.0 <= dict_len as u64,
                None => dict_len > self.dict_len,
            };
            present == g.id.is_some() && self.has_value(shape, g.param)
        })
    }

    /// Binds `shape`'s params into this variant for a snapshot whose
    /// dictionary holds `dict_len` terms. `resolved` caches each param's
    /// term and dictionary lookup across the variants one lookup tries.
    fn bind(
        &self,
        view: &DatasetView,
        options: CompileOptions,
        dict_len: usize,
        shape: &Shape<'_>,
        resolved: &mut Vec<Option<(Term, Option<TermId>)>>,
    ) -> Bind {
        if self.max_id > dict_len as u64 {
            return Bind::Mismatch;
        }
        if dict_len > self.absent_checked.load(Ordering::Relaxed) {
            if self.absent.iter().any(|t| view.term_id(t).is_some()) {
                return Bind::Stale;
            }
            self.absent_checked.fetch_max(dict_len, Ordering::Relaxed);
        }
        if self.is_own_binding(shape, dict_len) {
            return Bind::Plan(Arc::clone(&self.plan));
        }
        let params = shape.params();
        resolved.resize(params.len(), None);
        for g in &self.generic {
            let (_, id) = resolved[g.param].get_or_insert_with(|| {
                let term = param_term(shape, &params[g.param]);
                let id = view.term_id(&term);
                (term, id)
            });
            if id.is_some() != g.id.is_some() {
                return Bind::Mismatch;
            }
        }
        // Presence matched: this variant serves the binding.
        let terms: Vec<(Term, Option<TermId>)> = self
            .generic
            .iter()
            .map(|g| resolved[g.param].take().expect("resolved above"))
            .collect();
        let unchanged = |(g, (_, id)): (&Generic, &(Term, Option<TermId>))| {
            *id == g.id && self.has_value(shape, g.param)
        };
        if self.generic.iter().zip(&terms).all(unchanged) {
            return Bind::Plan(Arc::clone(&self.plan));
        }
        let mut plan = (*self.plan).clone();
        let mut node = 0;
        visit_constants(&mut plan, &mut |site| {
            if let Site::Steps(steps) = site {
                if let Some(replan) = self.replans.iter().find(|r| r.node == node) {
                    replan.apply(view, options, &terms, steps);
                }
                node += 1;
            }
        });
        Bind::Plan(Arc::new(plan))
    }
}

/// The term a lifted constant stands for.
fn param_term(shape: &Shape<'_>, param: &Param) -> Term {
    let value = shape.value(param);
    match param.kind {
        ParamKind::Iri => Term::Iri(Iri::from_text(&*value)),
        ParamKind::Str => Term::Literal(Literal::from_text(&*value, None, None)),
    }
}

/// The params of `shape` a template compiled from it can rebind (see the
/// module docs), given the parser's constant tokens and the compiler's
/// dictionary lookups.
fn generic_params(
    shape: &Shape<'_>,
    consts: &[ConstToken],
    resolved: &[(Term, Option<TermId>)],
    plan: &mut CompiledQuery,
) -> Vec<Generic> {
    let mut generic = Vec::new();
    for (i, param) in shape.params().iter().enumerate() {
        let Some(token) = consts.iter().find(|c| c.token == param.token) else {
            continue;
        };
        let term = &token.term;
        // The parser must read the token as the term a rebinding builds.
        if !token.subject_or_object
            || param_term(shape, param) != *term
            || consts.iter().filter(|c| c.term == *term).count() != 1
        {
            continue;
        }
        let id = resolved
            .iter()
            .find(|(t, _)| t == term)
            .and_then(|(_, id)| *id);
        // Another term with the same ID (one literal written two ways)
        // would not follow a rebinding.
        if id.is_some() && resolved.iter().any(|(t, other)| *other == id && t != term) {
            continue;
        }
        let value = Value::from_term(term);
        let (mut ends, mut elsewhere) = (0, false);
        visit_constants(plan, &mut |site| match site {
            Site::StepEnd(t) => ends += usize::from(t == term),
            Site::Steps(_) => {}
            Site::Term(t, other) => elsewhere |= t == term || (id.is_some() && other == id),
            Site::Id(other) => elsewhere |= id.is_some() && other == id,
            Site::Bare(t) => elsewhere |= t == term,
            Site::Value(v) => elsewhere |= *v == value,
        });
        if ends > 0 && !elsewhere {
            generic.push(Generic {
                param: i,
                term: term.clone(),
                id,
            });
        }
    }
    generic
}

/// One [`Replan`] per recorded BGP that scans a generic constant.
fn replans(bgps: Vec<Option<PlannedBgp>>, generic: &[Generic]) -> Vec<Replan> {
    let mut replans = Vec::new();
    if generic.is_empty() {
        return replans;
    }
    for (node, bgp) in bgps.into_iter().enumerate() {
        let Some(bgp) = bgp else { continue };
        let mut fill = Vec::new();
        for (i, t) in bgp.triples.iter().enumerate() {
            for (subject, end) in [(true, &t.s), (false, &t.o)] {
                if let CPos::Const(term, _) = end {
                    if let Some(j) = generic.iter().position(|g| g.term == *term) {
                        fill.push((i, subject, j));
                    }
                }
            }
        }
        if !fill.is_empty() {
            replans.push(Replan { node, bgp, fill });
        }
    }
    replans
}

/// One cached shape.
#[derive(Debug)]
struct Entry {
    dataset: String,
    shape: String,
    options: CompileOptions,
    variants: Vec<Arc<Variant>>,
}

impl Entry {
    fn is(&self, dataset: &str, shape: &str, options: CompileOptions) -> bool {
        self.options == options && self.dataset == dataset && self.shape == shape
    }
}

/// The map key of an entry: a hash of its identity, which the entry
/// itself confirms (see [`Entry::is`]).
fn entry_key(dataset: &str, shape: &str, options: CompileOptions) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (dataset, shape, options).hash(&mut h);
    h.finish()
}

/// A point-in-time description of one cached plan — the
/// `pgrdf:sys/plans` system graph materializes these.
#[derive(Debug, Clone)]
pub struct PlanCacheEntryInfo {
    /// Dataset/index signature part of the key.
    pub dataset: String,
    /// The query text the plan was compiled from.
    pub text: String,
    /// Dictionary length of the snapshot the plan was compiled against.
    pub dict_len: u64,
    /// Optimizer statistics version the plan was costed under.
    pub stats: u64,
    /// Lifted constants a hit can rebind.
    pub generic_params: usize,
    /// Lookups served from this plan.
    pub hits: u64,
    /// Plan age in cache ticks (lookups since insertion).
    pub age_ticks: u64,
    /// The optimizer's final-row estimate for the plan.
    pub estimated_rows: u64,
    /// Rows produced by the most recent execution (`None` = never run).
    pub actual_rows: Option<u64>,
}

/// A plan served by [`PlanCache::lookup`].
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The plan to execute: the cached template itself, or a copy with
    /// this text's constants bound in.
    pub plan: Arc<CompiledQuery>,
    /// True when the lookup parsed and compiled (a miss).
    pub compiled: bool,
    variant: Arc<Variant>,
}

impl CachedPlan {
    /// Records the rows an execution produced against the variant that
    /// served it, for `pgrdf:sys/plans`.
    pub fn note_result(&self, rows: u64) {
        self.variant.actual_rows.store(rows, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// A bounded LRU cache of compiled query plans, keyed by query shape and
/// validated against the dictionary and statistics.
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

    /// The plan for `text` against `view`: bound from a cached variant of
    /// its shape when one serves this binding and snapshot (see the
    /// module docs), else parsed, compiled and cached as a new variant.
    /// `dataset` is the dataset/index signature part of the key.
    /// Compilation and binding run outside the cache lock; compile errors
    /// are not cached.
    pub fn lookup(
        &self,
        dataset: &str,
        text: &str,
        options: CompileOptions,
        view: &DatasetView,
    ) -> Result<CachedPlan, SparqlError> {
        let shape = crate::lexer::shape(text)?;
        let key = entry_key(dataset, &shape.key, options);
        let stats = view.stats_version();
        let dict_len = view.dictionary().len();
        let (tick, mut candidates) = {
            let mut inner = self.lock();
            let tick = inner.next_tick();
            let candidates = match inner.map.get_mut(&key) {
                Some(entry) if entry.is(dataset, &shape.key, options) => {
                    let before = entry.variants.len();
                    entry
                        .variants
                        .retain(|v| v.stamp.is_some() || v.stats == stats);
                    self.invalidated((before - entry.variants.len()) as u64);
                    entry
                        .variants
                        .iter()
                        .filter(|v| v.pins_match(&shape))
                        .cloned()
                        .collect()
                }
                _ => Vec::new(),
            };
            inner.drop_if_empty(key);
            (tick, candidates)
        };
        // The variant compiled from these very values first: it binds
        // without a copy.
        if candidates.len() > 1 {
            candidates.sort_by_key(|v| !(0..v.values.len()).all(|i| v.has_value(&shape, i)));
        }
        let mut resolved = Vec::new();
        for variant in candidates {
            match variant.bind(view, options, dict_len, &shape, &mut resolved) {
                Bind::Plan(plan) => {
                    variant.last_used.store(tick, Ordering::Relaxed);
                    self.hit(&variant);
                    return Ok(CachedPlan {
                        plan,
                        compiled: false,
                        variant,
                    });
                }
                Bind::Mismatch => {}
                Bind::Stale => {
                    let mut inner = self.lock();
                    if let Some(entry) = inner.map.get_mut(&key) {
                        let before = entry.variants.len();
                        entry.variants.retain(|v| !Arc::ptr_eq(v, &variant));
                        self.invalidated((before - entry.variants.len()) as u64);
                    }
                    inner.drop_if_empty(key);
                }
            }
        }
        self.missed();
        let variant = Arc::new(self.compile_variant(view, text, options, &shape, dict_len)?);
        self.insert(key, dataset, &shape.key, options, Arc::clone(&variant));
        Ok(CachedPlan {
            plan: Arc::clone(&variant.plan),
            compiled: true,
            variant,
        })
    }

    /// Parses and compiles `text` into a variant of `shape`.
    fn compile_variant(
        &self,
        view: &DatasetView,
        text: &str,
        options: CompileOptions,
        shape: &Shape<'_>,
        dict_len: usize,
    ) -> Result<Variant, SparqlError> {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let span = telemetry::enabled().then(|| crate::metrics::compile_nanos().span());
        let (query, consts) = crate::parser::parse_query_constants(text)?;
        let (mut plan, record) = crate::plan::compile_recording(view, &query, options)?;
        drop(span);
        let generic = generic_params(shape, &consts, &record.resolutions, &mut plan);
        let replans = replans(record.bgps, &generic);
        let mut max_id = 0;
        let mut absent: Vec<Term> = Vec::new();
        for (term, id) in &record.resolutions {
            if generic.iter().any(|g| g.term == *term) {
                continue;
            }
            match id {
                Some(id) => max_id = max_id.max(id.0),
                None if !absent.contains(term) => absent.push(term.clone()),
                None => {}
            }
        }
        let mut variant = Variant::new(plan, text, self.lock().tick);
        variant.values = shape
            .params()
            .iter()
            .map(|p| shape.value(p).into_owned())
            .collect();
        variant.generic = generic;
        variant.replans = replans;
        // Compiling may have computed the statistics it read.
        variant.stats = view.stats_version();
        variant.dict_len = dict_len;
        variant.max_id = max_id;
        variant.absent = absent;
        variant.absent_checked = AtomicUsize::new(dict_len);
        Ok(variant)
    }

    /// Adds a variant under `key`, making room by evicting the least
    /// recently used plan of any shape.
    fn insert(
        &self,
        key: u64,
        dataset: &str,
        shape: &str,
        options: CompileOptions,
        variant: Arc<Variant>,
    ) {
        let mut inner = self.lock();
        let tick = inner.next_tick();
        variant.last_used.store(tick, Ordering::Relaxed);
        if !inner
            .map
            .get(&key)
            .is_some_and(|e| e.is(dataset, shape, options))
        {
            let entry = Entry {
                dataset: dataset.to_string(),
                shape: shape.to_string(),
                options,
                variants: Vec::new(),
            };
            inner.map.insert(key, entry);
        }
        let entry = inner.map.get_mut(&key).expect("entry just ensured");
        // Of two threads that compiled one text, the last one wins.
        let same_text = |v: &Arc<Variant>| {
            v.text == variant.text && v.stamp.is_some() == variant.stamp.is_some()
        };
        if let Some(i) = entry.variants.iter().position(same_text) {
            entry.variants[i] = variant;
            return;
        }
        entry.variants.push(variant);
        while inner.map.values().map(|e| e.variants.len()).sum::<usize>() > self.capacity {
            let lru = inner
                .map
                .iter()
                .flat_map(|(k, e)| e.variants.iter().enumerate().map(move |(i, v)| (k, i, v)))
                .min_by_key(|(_, _, v)| v.last_used.load(Ordering::Relaxed))
                .map(|(k, i, _)| (*k, i));
            let Some((lru, i)) = lru else { break };
            inner
                .map
                .get_mut(&lru)
                .expect("found above")
                .variants
                .remove(i);
            inner.drop_if_empty(lru);
            self.evicted();
        }
    }

    /// Returns the cached plan for `(dataset, text, options)` if one
    /// exists, was cached under the same `stamp` *and* the optimizer
    /// statistics it was costed against are still current
    /// (`stats_version`); otherwise runs `compile`, caches its result
    /// under `stamp` and the post-compile stats version, and returns it.
    ///
    /// This entry point has no dataset view to check the dictionary in,
    /// so the text is its own shape, with no params, and the caller's
    /// `stamp` stands in for the dictionary checks: pass the snapshot
    /// epoch and any write recompiles. `stats_version` is a closure so
    /// the version is only computed when an entry exists. A
    /// present-but-stale entry counts as an **invalidation** (and a
    /// miss); the stale plan is dropped before recompiling. `compile`
    /// runs outside the cache lock.
    pub fn get_or_compile(
        &self,
        dataset: &str,
        text: &str,
        options: CompileOptions,
        stamp: u64,
        stats_version: impl Fn() -> u64,
        compile: impl FnOnce() -> Result<CompiledQuery, SparqlError>,
    ) -> Result<Arc<CompiledQuery>, SparqlError> {
        let key = entry_key(dataset, text, options);
        {
            let mut inner = self.lock();
            let tick = inner.next_tick();
            if let Some(entry) = inner
                .map
                .get_mut(&key)
                .filter(|e| e.is(dataset, text, options))
            {
                let before = entry.variants.len();
                let mut current = None;
                entry.variants.retain(|v| match v.stamp {
                    None => true,
                    Some(s) if s == stamp && v.stats == stats_version() => {
                        current = Some(Arc::clone(v));
                        true
                    }
                    Some(_) => false,
                });
                self.invalidated((before - entry.variants.len()) as u64);
                if let Some(variant) = current {
                    variant.last_used.store(tick, Ordering::Relaxed);
                    self.hit(&variant);
                    return Ok(Arc::clone(&variant.plan));
                }
            }
            inner.drop_if_empty(key);
        }
        self.missed();
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let span = telemetry::enabled().then(|| crate::metrics::compile_nanos().span());
        let plan = compile()?;
        drop(span);
        let mut variant = Variant::new(plan, text, self.lock().tick);
        variant.stamp = Some(stamp);
        variant.stats = stats_version();
        let variant = Arc::new(variant);
        self.insert(key, dataset, text, options, Arc::clone(&variant));
        Ok(Arc::clone(&variant.plan))
    }

    /// Records the actual row count of an execution against the plan
    /// cached for `(dataset, text, options)` by
    /// [`Self::get_or_compile`], so `pgrdf:sys/plans` can report
    /// estimated-vs-actual rows per plan. A no-op if it has since been
    /// evicted or invalidated.
    pub fn note_result(&self, dataset: &str, text: &str, options: CompileOptions, rows: u64) {
        let inner = self.lock();
        let entry = inner.map.get(&entry_key(dataset, text, options));
        if let Some(entry) = entry.filter(|e| e.is(dataset, text, options)) {
            if let Some(variant) = entry.variants.iter().find(|v| v.text == text) {
                variant.actual_rows.store(rows, Ordering::Relaxed);
            }
        }
    }

    /// Point-in-time descriptions of every cached plan, most recently
    /// used first.
    pub fn entries(&self) -> Vec<PlanCacheEntryInfo> {
        let inner = self.lock();
        let tick = inner.tick;
        let mut out: Vec<(u64, PlanCacheEntryInfo)> = inner
            .map
            .values()
            .flat_map(|e| e.variants.iter().map(move |v| (e, v)))
            .map(|(e, v)| {
                let actual = v.actual_rows.load(Ordering::Relaxed);
                let info = PlanCacheEntryInfo {
                    dataset: e.dataset.clone(),
                    text: v.text.clone(),
                    dict_len: v.dict_len as u64,
                    stats: v.stats,
                    generic_params: v.generic.len(),
                    hits: v.hits.load(Ordering::Relaxed),
                    age_ticks: tick.saturating_sub(v.inserted),
                    estimated_rows: v.plan.estimated_rows(),
                    actual_rows: (actual != NEVER_RAN).then_some(actual),
                };
                (v.last_used.load(Ordering::Relaxed), info)
            })
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.0));
        out.into_iter().map(|(_, info)| info).collect()
    }

    /// Number of cached plans (variants over all shapes).
    pub fn len(&self) -> usize {
        self.lock().map.values().map(|e| e.variants.len()).sum()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Lookups served from a cached plan.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to (re)compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached plans dropped as stale: a constant they found absent became
    /// present, their statistics were refreshed, or their stamp moved.
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Times a query was actually parsed and compiled — the "zero
    /// parse/compile work on a hit" assertion hangs off this counter.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Valid plans dropped by LRU capacity pressure (stale drops count as
    /// invalidations).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache poisoned")
    }

    fn hit(&self, variant: &Variant) {
        variant.hits.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(1, Ordering::Relaxed);
        if telemetry::enabled() {
            crate::metrics::plan_cache_hits().inc();
        }
    }

    fn missed(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if telemetry::enabled() {
            crate::metrics::plan_cache_misses().inc();
        }
    }

    fn invalidated(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.invalidations.fetch_add(n, Ordering::Relaxed);
        if telemetry::enabled() {
            crate::metrics::plan_cache_invalidations().add(n);
        }
    }

    fn evicted(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if telemetry::enabled() {
            crate::metrics::plan_cache_evictions().inc();
        }
    }
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Removes the entry under `key` once it holds no variant.
    fn drop_if_empty(&mut self, key: u64) {
        if self.map.get(&key).is_some_and(|e| e.variants.is_empty()) {
            self.map.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CForm, VarTable};
    use quadstore::Store;
    use rdf_model::Quad;

    fn dummy_plan() -> CompiledQuery {
        CompiledQuery {
            vars: VarTable::default(),
            exists: Vec::new(),
            form: CForm::Ask(crate::plan::CSelect::default()),
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
                .get_or_compile(
                    "m[PCSGM]",
                    "SELECT * WHERE {}",
                    opts(),
                    7,
                    || 0,
                    || Ok(dummy_plan()),
                )
                .unwrap();
        }
        assert_eq!(cache.compiles(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.invalidations(), 0);
    }

    /// `get_or_compile` has no view: the stamp its caller passes (here a
    /// store epoch) stands in for the dictionary checks.
    #[test]
    fn epoch_change_invalidates() {
        let cache = PlanCache::new(4);
        let run = |epoch| {
            cache
                .get_or_compile(
                    "m[PCSGM]",
                    "ASK {}",
                    opts(),
                    epoch,
                    || 0,
                    || Ok(dummy_plan()),
                )
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
        let forced = CompileOptions {
            force_join: Some(crate::plan::ForcedJoin::Hash),
            ..Default::default()
        };
        cache
            .get_or_compile("a[PCSGM]", "ASK {}", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        cache
            .get_or_compile("b[PCSGM]", "ASK {}", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        cache
            .get_or_compile("a[PCSGM]", "ASK {}", forced, 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        cache
            .get_or_compile("a[SPCGM]", "ASK {}", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        cache
            .get_or_compile("m", "q1", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        cache
            .get_or_compile("m", "q2", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        // Touch q1 so q2 becomes the LRU victim.
        cache
            .get_or_compile("m", "q1", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        cache
            .get_or_compile("m", "q3", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        assert_eq!(cache.len(), 2);
        cache
            .get_or_compile("m", "q1", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        assert_eq!(cache.hits(), 2, "q1 must have survived eviction");
        cache
            .get_or_compile("m", "q2", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        assert_eq!(
            cache.compiles(),
            4,
            "q2 must have been evicted and recompiled"
        );
        assert_eq!(cache.evictions(), 2, "q2 then q3 fell to capacity pressure");
        assert_eq!(cache.invalidations(), 0, "no stamp moved in this test");
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new(4);
        let err = cache.get_or_compile(
            "m",
            "bad",
            opts(),
            1,
            || 0,
            || Err(SparqlError::Unsupported("nope".into())),
        );
        assert!(err.is_err());
        assert!(cache.is_empty());
        cache
            .get_or_compile("m", "bad", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
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
        cache
            .get_or_compile("m", "ASK {}", opts(), 1, || 0, || Ok(dummy_plan()))
            .unwrap();
        assert_eq!(cache.entries()[0].actual_rows, None);
        cache.note_result("m", "ASK {}", opts(), 42);
        assert_eq!(cache.entries()[0].actual_rows, Some(42));
        cache.note_result("m", "other", opts(), 9); // no such entry: no-op
        assert_eq!(cache.len(), 1);
    }

    fn follows(s: usize, o: usize) -> Quad {
        let v = |i: usize| Term::iri(format!("http://v{i}"));
        Quad::triple(v(s), Term::iri("http://follows"), v(o)).unwrap()
    }

    fn chain_store() -> Store {
        let store = Store::new();
        store.create_model("m").unwrap();
        let quads: Vec<Quad> = (0..8).map(|i| follows(i, i + 1)).collect();
        store.bulk_load("m", &quads).unwrap();
        store
    }

    fn run(cache: &PlanCache, store: &Store, text: &str) -> (CachedPlan, usize) {
        let view = store.dataset("m").unwrap();
        let cached = cache.lookup("m", text, opts(), &view).unwrap();
        let rows = crate::exec::execute_compiled(&view, &cached.plan)
            .unwrap()
            .into_solutions()
            .unwrap()
            .len();
        (cached, rows)
    }

    #[test]
    fn lookup_binds_new_constants_without_compiling() {
        let (store, cache) = (chain_store(), PlanCache::new(4));
        let text = |v: usize| format!("SELECT ?o WHERE {{ <http://v{v}> <http://follows> ?o }}");
        let (first, rows) = run(&cache, &store, &text(1));
        assert!(first.compiled);
        assert_eq!(rows, 1);
        let (again, _) = run(&cache, &store, &text(1));
        assert!(
            Arc::ptr_eq(&first.plan, &again.plan),
            "same values serve the template itself"
        );
        for v in 2..8 {
            let (bound, rows) = run(&cache, &store, &text(v));
            assert!(!bound.compiled && !Arc::ptr_eq(&first.plan, &bound.plan));
            assert_eq!(rows, 1, "v{v}");
        }
        assert_eq!((cache.compiles(), cache.hits(), cache.len()), (1, 7, 1));
        assert_eq!(cache.entries()[0].generic_params, 1);
    }

    /// Capacity bounds plans, not shapes: any `capacity` distinct texts
    /// stay cached, however many of them pin variants of one shape.
    #[test]
    fn capacity_counts_plans_across_shapes() {
        let (store, cache) = (chain_store(), PlanCache::new(12));
        // A predicate is pinned: each value is a variant of its own.
        let text = |p: usize| format!("SELECT ?s WHERE {{ ?s <http://p{p}> ?o }}");
        for _ in 0..2 {
            for p in 0..12 {
                run(&cache, &store, &text(p));
            }
        }
        assert_eq!(
            (cache.compiles(), cache.hits(), cache.evictions()),
            (12, 12, 0)
        );
        run(&cache, &store, "SELECT ?s WHERE { ?s ?p ?o }");
        assert_eq!(
            (cache.len(), cache.evictions()),
            (12, 1),
            "a new shape evicts a variant"
        );
        assert!(!run(&cache, &store, &text(11)).0.compiled);
        assert!(
            run(&cache, &store, &text(0)).0.compiled,
            "p0 was the least recently used"
        );
    }

    #[test]
    fn absent_constants_survive_unrelated_writes_and_invalidate_when_they_appear() {
        let (store, cache) = (chain_store(), PlanCache::new(4));
        let text = "ASK { ?s <http://likes> ?o }";
        let view = store.dataset("m").unwrap();
        assert!(cache.lookup("m", text, opts(), &view).unwrap().compiled);
        store.insert("m", &follows(20, 21)).unwrap();
        let view = store.dataset("m").unwrap();
        assert!(
            !cache.lookup("m", text, opts(), &view).unwrap().compiled,
            "a write is no reason"
        );
        let likes = |s| {
            Quad::triple(
                Term::iri(s),
                Term::iri("http://likes"),
                Term::iri("http://v2"),
            )
        };
        store.insert("m", &likes("http://v1").unwrap()).unwrap();
        let view = store.dataset("m").unwrap();
        assert!(cache.lookup("m", text, opts(), &view).unwrap().compiled);
        assert_eq!(
            (cache.compiles(), cache.invalidations(), cache.len()),
            (2, 1, 1)
        );
    }
}
