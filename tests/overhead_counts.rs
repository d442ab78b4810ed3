//! Governance, the flight recorder and telemetry cost a query a fixed
//! number of allocations, however many rows it returns.
//!
//! Each feature's overhead is counted as allocations on the calling
//! thread (every query runs at `threads(1)`), feature on minus feature
//! off, for a one-tag query (EQ1) and for an OPTIONAL two-hop join of at
//! least 10,000 rows that probes an index once per row. Equal deltas mean
//! the cost is per query, not per row: an exact invariant in place of
//! wall-clock ratio guards that spread 4-14 % run to run. The facade's
//! own cost is counted the same way, in pgbench's configuration (recorder
//! on, telemetry off, no slow-query log): a query through
//! `PgRdfStore::select_in_with` minus the executor alone on the same plan.
//! Planning is counted the same way: one write must not change what a
//! compile allocates. Plan-cache reuse is counted too: texts that differ
//! only in lifted constants compile once per cached variant, not once per
//! text. A hash join's build side is counted too: its allocations must not
//! grow with the distinct keys it holds, and a merge join builds none. So
//! is a plain-count histogram: its allocations must not grow with its
//! inner groups.
//! Its own binary with a single test, because it flips the
//! process-wide telemetry and recorder flags.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use pgrdf::{GovernorConfig, PgRdfModel, PgVocab};
use pgrdf_bench::{Eq, Fixture};
use rdf_model::{Quad, Term};
use sparql::{CancelToken, CompileOptions, ExecLimits, ExecOptions, ForcedJoin};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System` with a per-thread count of allocations. Growing a buffer
/// counts too: the trait's default `realloc` allocates anew and copies.
struct Counting;

// SAFETY: `alloc`, `alloc_zeroed` and `dealloc` forward their arguments
// unchanged to `System`, which upholds the `GlobalAlloc` contract, and
// the default `realloc` is built on them. The counter is a `const`
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `run` once to warm up, then returns the second run's allocation
/// count and row count.
fn counted(run: impl Fn() -> usize) -> (u64, usize) {
    run();
    allocations(run)
}

/// Allocation count and result of one run of `run`, without a warm-up.
fn allocations<T>(run: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = run();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn per_query_overheads_do_not_grow_with_rows() {
    let fixture = Fixture::at_scale(0.002);
    let (store, ng) = (&fixture.ng, PgRdfModel::NG);
    let two_hop = format!(
        "{}SELECT ?x ?y ?z WHERE {{ ?x r:follows ?y OPTIONAL {{ ?y r:follows ?z }} }}",
        PgVocab::twitter().prefixes()
    );
    let queries = [
        (
            fixture.dataset_for(Eq::Eq1, ng),
            fixture.query_text(Eq::Eq1, ng),
        ),
        (fixture.dataset_for(Eq::Eq12, ng), two_hop),
    ];
    let bare = ExecOptions::threads(1);
    let governed = ExecOptions::threads(1)
        .with_limits(ExecLimits::timeout(Duration::from_secs(3600)).with_max_memory(4 << 30))
        .with_cancel(CancelToken::new());
    let recorder = telemetry::flight_recorder();
    telemetry::set_enabled(false);
    recorder.set_enabled(false);

    // The fourth delta is the facade's own cost in pgbench's
    // configuration: recorder on, telemetry off, no slow-query log.
    let mut deltas = Vec::new();
    for (dataset, text) in &queries {
        let facade = |options: &ExecOptions| {
            counted(|| {
                store
                    .select_in_with(dataset, text, options.clone())
                    .expect("query")
                    .len()
            })
        };
        let (base, rows) = facade(&bare);
        store.set_governor(GovernorConfig::concurrency(64));
        let (governor, _) = facade(&governed);
        store.clear_governor();
        recorder.set_enabled(true);
        let (flight, _) = facade(&bare);
        recorder.set_enabled(false);
        telemetry::set_enabled(true);
        let (metrics, _) = facade(&bare);
        telemetry::set_enabled(false);
        let view = store.store().dataset(dataset).expect("dataset");
        let (executor, _) = executor_alone(&view, text, &bare);
        let delta = |on: u64, off: u64| on as i64 - off as i64;
        let own = delta(flight, executor);
        println!(
            "{rows} rows: {base} allocations bare, {governor} governed, \
             {flight} recorder on, {metrics} telemetry on, {executor} executor alone \
             (facade: {own} per query)"
        );
        let added = [
            delta(governor, base),
            delta(flight, base),
            delta(metrics, base),
            own,
        ];
        deltas.push((rows, added));
    }
    let [(small, small_deltas), (large, large_deltas)] = deltas[..] else {
        unreachable!()
    };
    assert!(
        small < 100 && large >= 10_000,
        "row counts {small} and {large}"
    );
    assert_eq!(
        small_deltas, large_deltas,
        "allocations added by [governor, recorder, telemetry, facade] must not grow with rows"
    );

    // ORDER BY ... LIMIT keeps its ten rows in a heap whose keys borrow
    // from the dictionary: no allocation per row or per comparison, so it
    // allocates less than the same BGP's unordered rows, each of which is
    // materialised and decoded.
    let view = store.store().dataset(&queries[1].0).expect("dataset");
    let follows = format!(
        "{}SELECT ?s ?o WHERE {{ ?s r:follows ?o }}",
        PgVocab::twitter().prefixes()
    );
    let (top, ten) = executor_alone(&view, &format!("{follows} ORDER BY ?o ?s LIMIT 10"), &bare);
    let (all, relation) = executor_alone(&view, &follows, &bare);
    println!("ORDER BY ?o ?s LIMIT 10: {top} allocations; all {relation} rows unordered: {all}");
    assert!(
        ten == 10 && relation > 500,
        "row counts {ten} and {relation}"
    );
    assert!(
        top < all,
        "the top ten allocated {top} times, all {relation} rows {all} times"
    );

    // Planning reads the pinned statistics snapshot, which a write below
    // the drift threshold leaves alone: the first compile of EQ5 (a
    // `GRAPH ?e` join, so coarse fanouts) after one insert allocates
    // exactly what a warm compile before it did, with no pass over the
    // model.
    let eq5_dataset = fixture.dataset_for(Eq::Eq5, ng);
    let eq5 = sparql::parse_query(&fixture.query_text(Eq::Eq5, ng)).expect("parse");
    let compile = || {
        let view = store.store().dataset(&eq5_dataset).expect("dataset");
        allocations(|| sparql::compile(&view, &eq5).expect("compile")).0
    };
    compile();
    let warm = compile();
    let edge_kv = store
        .partition_names()
        .expect("partitioned fixture")
        .edge_kv;
    let quad =
        Quad::triple(Term::iri("urn:v1"), Term::iri("urn:p"), Term::iri("urn:v2")).expect("quad");
    assert!(store.store().insert(&edge_kv, &quad).expect("insert"));
    let after_write = compile();
    println!("EQ5 compile: {warm} allocations warm, {after_write} first after a write");
    assert_eq!(
        warm, after_write,
        "a write must not make planning rescan the model"
    );

    // 200 distinct texts of pgbench's five point-lookup shapes, over tags
    // and vertices both present and absent: each compile makes one cached
    // variant, and the rest bind into one.
    let names = store.partition_names().expect("partitioned fixture");
    let qs = store.queries();
    let p = PgVocab::twitter().prefixes();
    let vertex = |i: u64| format!("<{}>", PgVocab::twitter().vertex_iri(i).as_str());
    let cache = store.plan_cache();
    cache.clear();
    let compiles = cache.compiles();
    for i in 0..40u64 {
        let tag = format!("#tag{i}");
        let (s, o) = (vertex(i), vertex(i + 1));
        store.select_in(&names.node_kv, &qs.eq1(&tag)).expect("EQ1");
        store
            .select_in(&names.topology_edgekv, &qs.eq5(&tag))
            .expect("EQ5");
        let p1 = format!("{p}SELECT ?k ?v WHERE {{ {s} ?k ?v }}");
        store.select_in(&names.node_kv, &p1).expect("P1");
        let p2 = format!("{p}SELECT ?o WHERE {{ {s} r:follows ?o }}");
        store.select_in(&names.topology, &p2).expect("P2");
        store
            .query(&format!("{p}ASK {{ {s} r:follows {o} }}"))
            .expect("P3");
    }
    let compiled = cache.compiles() - compiles;
    println!(
        "200 lookups: {compiled} compiles, {} cached variants",
        cache.len()
    );
    assert_eq!(
        compiled as usize,
        cache.len(),
        "every compile is a variant still cached"
    );
    assert!(
        compiled <= 20,
        "200 texts of 5 shapes compiled {compiled} times"
    );

    // A hash-join build side is one flat table: its allocations do not
    // grow with its distinct keys. The same ten probes run against
    // builds of 1,000 and 20,000 distinct keys.
    let keyed = quadstore::Store::new();
    keyed.create_model("m").expect("model");
    let n = |i: u64| Term::iri(format!("urn:n{i}"));
    let mut quads = Vec::new();
    for (p, keys) in [("urn:small", 1_000u64), ("urn:large", 20_000)] {
        quads.extend((0..keys).map(|i| Quad::triple(n(i), Term::iri(p), n(i + 1)).expect("quad")));
    }
    quads.extend((0..10).map(|i| Quad::triple(n(0), Term::iri("urn:q"), n(i * 97)).expect("quad")));
    keyed.bulk_load("m", &quads).expect("load");
    let view = keyed.dataset("m").expect("dataset");
    let hash_join = |build: &str| {
        let text = format!("SELECT * WHERE {{ ?a <urn:q> ?k . ?k <{build}> ?v }}");
        let query = sparql::parse_query(&text).expect("parse");
        let options = CompileOptions {
            force_join: Some(ForcedJoin::Hash),
            ..Default::default()
        };
        let plan = sparql::compile_with(&view, &query, options).expect("compile");
        counted(|| {
            let results = sparql::execute_compiled_with_options(&view, &plan, bare.clone());
            results
                .expect("execute")
                .into_solutions()
                .expect("solutions")
                .len()
        })
    };
    let (small, small_rows) = hash_join("urn:small");
    let (large, large_rows) = hash_join("urn:large");
    println!("hash join: {small} allocations over 1,000 build keys, {large} over 20,000");
    assert!(
        small_rows == 10 && large_rows == 10,
        "row counts {small_rows} and {large_rows}"
    );
    assert!(
        small.abs_diff(large) < 64,
        "a build side allocated {small} times for 1,000 keys and {large} for 20,000"
    );

    // A merge join builds no table: `topk`'s T7 in SP walks both of its
    // joins on `?e` through index spans (`pgrdf_hash_build_rows` records
    // nothing), while NG still builds its `hasTag` rows, once. At 0.01
    // scale SP drives T7 from the anchor, as at pgbench's 0.05.
    let t7 = Fixture::with_seed(0.01, 7);
    let mut built = Vec::new();
    for model in [ng, PgRdfModel::SP] {
        let shape = match model {
            PgRdfModel::NG => "GRAPH ?e { ?x r:follows ?y . ?e k:hasTag ?t }",
            _ => "?x ?e ?y . ?e rdfs:subPropertyOf r:follows . ?e k:hasTag ?t",
        };
        let p = PgVocab::twitter().prefixes();
        let text = format!("{p}SELECT ?x ?y ?t WHERE {{ {shape} }} ORDER BY ?t ?x ?y LIMIT 10");
        let dataset = t7.dataset_for(Eq::Eq7, model);
        telemetry::set_enabled(true);
        let before = hash_build_rows();
        let rows = t7
            .store(model)
            .select_in_with(&dataset, &text, bare.clone())
            .expect("T7");
        let after = hash_build_rows();
        telemetry::set_enabled(false);
        assert_eq!(rows.len(), 10, "T7 {model}");
        built.push((after.0 - before.0, after.1 - before.1));
    }
    println!(
        "T7 hash builds (count, rows): NG {:?}, SP {:?}",
        built[0], built[1]
    );
    assert!(
        built[0].0 == 1 && built[0].1 > 0,
        "T7-NG builds its hasTag rows once"
    );
    assert_eq!(built[1], (0, 0), "T7-SP builds no hash table");

    // A plain-count histogram (EQ9's shape) costs per group, not per
    // row, and allocates nothing per inner group: flat count tables, one
    // reused row for the group rows, memoised count literals, and inner
    // rows that pass straight into the outer count. In-degrees cycle
    // through 1-4, so both sizes have the same four outer groups. Each
    // scan is one morsel, so morsel buffers do not count for rows.
    let degrees = quadstore::Store::new();
    degrees.create_model("m").expect("model");
    let mut quads = Vec::new();
    for (p, groups) in [("urn:small", 1_000u64), ("urn:large", 8_000)] {
        for i in 0..groups {
            let v = Term::iri(format!("urn:v{i}"));
            quads.extend((0..=i % 4).map(|j| {
                Quad::triple(Term::iri(format!("urn:s{j}")), Term::iri(p), v.clone()).expect("quad")
            }));
        }
    }
    degrees.bulk_load("m", &quads).expect("load");
    let view = degrees.dataset("m").expect("dataset");
    let histogram = |p: &str| {
        executor_alone(
            &view,
            &format!(
                "SELECT ?d (COUNT(*) AS ?c) WHERE {{ \
                 SELECT ?o (COUNT(*) AS ?d) WHERE {{ ?s <{p}> ?o }} GROUP BY ?o \
                 }} GROUP BY ?d ORDER BY DESC(?d)"
            ),
            &bare.clone().with_morsel_size(1 << 16),
        )
    };
    let (small, small_rows) = histogram("urn:small");
    let (large, large_rows) = histogram("urn:large");
    println!("histogram: {small} allocations over 1,000 inner groups, {large} over 8,000");
    assert!(
        small_rows == 4 && large_rows == 4,
        "row counts {small_rows} and {large_rows}"
    );
    assert!(
        large <= small + 64,
        "a histogram allocated {small} times over 1,000 groups and {large} over 8,000"
    );
}

/// `(count, sum)` of the `pgrdf_hash_build_rows` histogram.
fn hash_build_rows() -> (u64, u64) {
    telemetry::global()
        .samples()
        .into_iter()
        .find(|s| s.name == "pgrdf_hash_build_rows")
        .map_or((0, 0), |s| match s.value {
            telemetry::MetricValue::Histogram { count, sum, .. } => (count, sum),
            other => panic!("expected a histogram, got {other:?}"),
        })
}

/// Allocations and rows of the executor alone running `text` once warm.
fn executor_alone(
    view: &quadstore::DatasetView,
    text: &str,
    options: &ExecOptions,
) -> (u64, usize) {
    let plan = sparql::compile(view, &sparql::parse_query(text).expect("parse")).expect("compile");
    counted(|| {
        let results = sparql::execute_compiled_with_options(view, &plan, options.clone());
        results
            .expect("execute")
            .into_solutions()
            .expect("solutions")
            .len()
    })
}
