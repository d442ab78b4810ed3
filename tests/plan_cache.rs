//! Compiled-plan cache behaviour end to end: hits execute with zero
//! parse/compile work, a plan that pruned a constant as absent is evicted
//! once a write makes it present, and every store mutator — plain DML,
//! SPARQL Update, or writes through the durable WAL wrapper — still bumps
//! the store epoch that snapshots and recovery rely on.

use pgrdf::{PgRdfModel, PgRdfStore};
use propertygraph::PropertyGraph;
use quadstore::{DurableStore, Store};
use rdf_model::{Quad, Term};

fn store(model: PgRdfModel) -> PgRdfStore {
    PgRdfStore::load(&PropertyGraph::sample_figure1(), model).unwrap()
}

#[test]
fn repeated_query_hits_cache_with_zero_compiles() {
    for model in PgRdfModel::ALL {
        let s = store(model);
        let q = "PREFIX key: <http://pg/k/> SELECT ?n WHERE { ?v key:name ?n }";
        let first = s.select(q).unwrap();
        assert_eq!(s.plan_cache().compiles(), 1, "{model}");
        for _ in 0..3 {
            let again = s.select(q).unwrap();
            assert_eq!(first, again, "{model}");
        }
        // The three replays parsed and compiled nothing.
        assert_eq!(s.plan_cache().compiles(), 1, "{model}");
        assert_eq!(s.plan_cache().hits(), 3, "{model}");
        assert_eq!(s.plan_cache().misses(), 1, "{model}");
    }
}

#[test]
fn different_query_text_is_a_separate_entry() {
    let s = store(PgRdfModel::NG);
    s.select("SELECT ?s WHERE { ?s ?p ?o }").unwrap();
    s.select("SELECT ?p WHERE { ?s ?p ?o }").unwrap();
    assert_eq!(s.plan_cache().compiles(), 2);
    assert_eq!(s.plan_cache().hits(), 0);
}

/// The regression dictionary validation exists for: a plan compiled
/// while a constant term was absent from the dictionary resolves it to an
/// unsatisfiable pattern. Without invalidation, replaying that stale plan
/// after an INSERT would keep returning zero rows forever.
#[test]
fn update_dml_evicts_stale_plans() {
    for model in PgRdfModel::ALL {
        let s = store(model);
        let q = "PREFIX key: <http://pg/k/>\n\
                 SELECT ?v WHERE { ?v key:city \"Cambridge\" }";
        let before = s.select(q).unwrap();
        assert_eq!(before.len(), 0, "{model}");
        let epoch_before = s.store().epoch();

        s.update(
            "PREFIX key: <http://pg/k/>\n\
             INSERT DATA { <http://pg/v2> key:city \"Cambridge\" }",
        )
        .unwrap();
        assert!(
            s.store().epoch() > epoch_before,
            "{model}: SPARQL Update must bump the mutation epoch"
        );

        let after = s.select(q).unwrap();
        assert_eq!(after.len(), 1, "{model}: stale plan must not be replayed");
        assert!(
            s.plan_cache().invalidations() >= 1,
            "{model}: the stale entry must be counted as invalidated"
        );
        assert_eq!(s.plan_cache().compiles(), 2, "{model}");
    }
}

#[test]
fn every_store_mutator_bumps_the_epoch() {
    let store = Store::new();
    let mut last = store.epoch();
    let bumped = |store: &Store, what: &str, last: &mut u64| {
        assert!(store.epoch() > *last, "{what} must bump the epoch");
        *last = store.epoch();
    };
    store.create_model("m").unwrap();
    bumped(&store, "create_model", &mut last);
    let quad = Quad::triple(
        Term::iri("http://s"),
        Term::iri("http://p"),
        Term::iri("http://o"),
    )
    .unwrap();
    store.insert("m", &quad).unwrap();
    bumped(&store, "insert", &mut last);
    store
        .create_index("m", quadstore::IndexKind::SPCGM)
        .unwrap();
    bumped(&store, "create_index", &mut last);
    store.drop_index("m", quadstore::IndexKind::SPCGM).unwrap();
    bumped(&store, "drop_index", &mut last);
    store.remove("m", &quad).unwrap();
    bumped(&store, "remove", &mut last);
    store.drop_model("m").unwrap();
    bumped(&store, "drop_model", &mut last);
}

#[test]
fn durable_store_dml_bumps_epoch() {
    let dir = std::env::temp_dir().join(format!("plan_cache_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ds = DurableStore::open(&dir).unwrap();
    ds.create_model("m").unwrap();
    // Note: `DurableStore::epoch()` is the *snapshot* generation; plan
    // caches validate against the wrapped store's *mutation* epoch.
    let epoch_after_ddl = ds.store().epoch();
    let quad = Quad::triple(
        Term::iri("http://s"),
        Term::iri("http://p"),
        Term::iri("http://o"),
    )
    .unwrap();
    ds.insert("m", &quad).unwrap();
    assert!(
        ds.store().epoch() > epoch_after_ddl,
        "durable insert must bump the mutation epoch so cached plans are evicted"
    );
    let epoch_after_insert = ds.store().epoch();
    ds.remove("m", &quad).unwrap();
    assert!(ds.store().epoch() > epoch_after_insert);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The MVCC variant of the stale-plan race: cache entries must be
/// validated against the dictionary of the *snapshot* a query is pinned
/// to, never the live store's. Otherwise a query racing with DML could
/// replay a plan whose constant IDs were resolved against a different
/// dictionary generation than the data it scans. Pinned snapshots make
/// the racy interleaving deterministic.
#[test]
fn cached_plans_validate_against_the_snapshot_epoch() {
    for model in PgRdfModel::ALL {
        let s = store(model);
        let q = "PREFIX key: <http://pg/k/>\n\
                 SELECT ?v WHERE { ?v key:city \"Cambridge\" }";

        // Compile under the pre-DML generation: "Cambridge" is not in the
        // dictionary, so the plan bakes in an unsatisfiable constant.
        let snap_before = s.snapshot();
        assert_eq!(s.select_at(&snap_before, q).unwrap().len(), 0, "{model}");
        assert_eq!(s.plan_cache().compiles(), 1, "{model}");

        s.update(
            "PREFIX key: <http://pg/k/>\n\
             INSERT DATA { <http://pg/v2> key:city \"Cambridge\" }",
        )
        .unwrap();

        // A query pinned to the post-DML generation must not replay the
        // stale plan: a constant it pruned as absent is in this snapshot's
        // dictionary.
        let snap_after = s.snapshot();
        assert!(snap_after.epoch() > snap_before.epoch(), "{model}");
        assert_eq!(
            s.select_at(&snap_after, q).unwrap().len(),
            1,
            "{model}: stale plan replayed against a newer snapshot"
        );
        assert!(s.plan_cache().invalidations() >= 1, "{model}");

        // And the pre-DML snapshot revalidates against *its own*
        // dictionary: the plan now cached was compiled under the newer
        // one, so it must be recompiled rather than replayed, and the old
        // generation still shows the old (empty) result.
        assert_eq!(
            s.select_at(&snap_before, q).unwrap().len(),
            0,
            "{model}: old snapshot must keep its pre-DML result"
        );
        assert_eq!(s.plan_cache().compiles(), 3, "{model}");
    }
}

/// Execution options select no plan: whatever the thread count or morsel
/// size, and profiled or not, one text against one dataset is one cache
/// entry.
#[test]
fn execution_options_are_not_part_of_the_cache_key() {
    use sparql::ExecOptions;
    let s = store(PgRdfModel::NG);
    let dataset = s.dataset_name();
    let q = "PREFIX key: <http://pg/k/> SELECT ?n WHERE { ?v key:name ?n }";

    let first = s
        .select_in_with(&dataset, q, ExecOptions::default())
        .unwrap();
    for options in [
        ExecOptions::threads(1),
        ExecOptions::threads(4).with_morsel_size(1),
        ExecOptions::default().with_morsel_size(1),
    ] {
        assert_eq!(first, s.select_in_with(&dataset, q, options).unwrap());
    }
    let (profiled, prof) = s
        .select_profiled_in(&dataset, q, ExecOptions::default())
        .unwrap();
    assert_eq!(first, profiled);
    assert!(prof.cache_hit, "the profiled run must reuse the entry");
    assert_eq!(s.plan_cache().compiles(), 1);
    assert_eq!(s.plan_cache().len(), 1);
    assert_eq!(s.plan_cache().hits(), 4);
}

/// `ANALYZE` without DML: an explicit statistics refresh moves the stats
/// version but not the mutation epoch, and cached plans — whose join
/// orders were costed under the old statistics — must be evicted through
/// the stats stamp alone.
#[test]
fn stats_refresh_evicts_cached_plans_without_an_epoch_bump() {
    let s = store(PgRdfModel::NG);
    let q = "PREFIX key: <http://pg/k/> SELECT ?n WHERE { ?v key:name ?n }";

    s.select(q).unwrap();
    s.select(q).unwrap();
    assert_eq!(s.plan_cache().compiles(), 1);
    assert_eq!(s.plan_cache().hits(), 1);

    let epoch_before = s.store().epoch();
    let invalidations_before = s.plan_cache().invalidations();
    s.refresh_stats().unwrap();
    assert_eq!(
        s.store().epoch(),
        epoch_before,
        "a statistics refresh is not a data mutation and must not bump the epoch"
    );

    // The replay must notice the stats stamp no longer matches, evict,
    // and recompile under the fresh statistics.
    s.select(q).unwrap();
    assert_eq!(
        s.plan_cache().compiles(),
        2,
        "plan costed under stale statistics must be recompiled after ANALYZE"
    );
    assert!(s.plan_cache().invalidations() > invalidations_before);

    // The recompiled entry is stamped with the new stats version and
    // replays normally until the next refresh.
    s.select(q).unwrap();
    assert_eq!(s.plan_cache().compiles(), 2);
    assert_eq!(s.plan_cache().hits(), 2);
}

/// Dropping an index changes the physical design, so the same query text
/// against the same data must recompile (the signature key changes) and
/// may choose different access paths.
#[test]
fn index_set_is_part_of_the_cache_key() {
    let s = store(PgRdfModel::NG);
    let q = "SELECT ?s WHERE { ?s ?p ?o }";
    s.select(q).unwrap();
    s.select(q).unwrap();
    assert_eq!(s.plan_cache().compiles(), 1);
    assert_eq!(s.plan_cache().hits(), 1);
}
