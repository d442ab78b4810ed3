//! Crash-matrix durability suite.
//!
//! A scripted workload runs against a `DurableStore` wrapped in the
//! deterministic fault-injection VFS. First a counting pass measures how
//! many write points (file writes, appends, renames, fsyncs, …) the
//! workload performs; then the workload is re-run once per write point,
//! killing the "process" at exactly that point, and recovered with
//! `DurableStore::open`. The contract under `SyncPolicy::Always`:
//!
//! * every operation acknowledged (`Ok`) before the crash is present
//!   after recovery — no lost writes;
//! * at most the single in-flight (unacknowledged) operation may
//!   additionally be present — no phantoms beyond it;
//! * a torn or corrupt WAL tail is detected by CRC and truncated, never
//!   a panic or an error that blocks opening the store.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use quadstore::{
    scan_wal, DurableStore, FaultPlan, FaultyVfs, IndexKind, QuadPattern, Store, SyncPolicy,
    WalRecord,
};
use rdf_model::{GraphName, Quad, Term};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash_matrix_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn q(s: u32, o: u32) -> Quad {
    Quad::new(
        Term::iri(format!("http://pg/v{s}")),
        Term::iri("http://pg/r/follows"),
        Term::iri(format!("http://pg/v{o}")),
        GraphName::iri(format!("http://pg/e{s}_{o}")),
    )
    .expect("valid quad")
}

/// One step of the scripted workload.
#[derive(Debug, Clone)]
enum Op {
    CreateModel(&'static str),
    Insert(&'static str, Quad),
    Remove(&'static str, Quad),
    BulkLoad(&'static str, Vec<Quad>),
    CreateVirtual(&'static str, Vec<&'static str>),
    CreateIndex(&'static str, IndexKind),
    DropModel(&'static str),
    Checkpoint,
}

impl Op {
    fn apply_durable(&self, ds: &mut DurableStore) -> Result<(), quadstore::StoreError> {
        match self {
            Op::CreateModel(name) => ds.create_model(name),
            Op::Insert(model, quad) => ds.insert(model, quad).map(|_| ()),
            Op::Remove(model, quad) => ds.remove(model, quad).map(|_| ()),
            Op::BulkLoad(model, quads) => ds.bulk_load(model, quads).map(|_| ()),
            Op::CreateVirtual(name, members) => ds.create_virtual_model(name, members),
            Op::CreateIndex(model, kind) => ds.create_index(model, *kind),
            Op::DropModel(name) => ds.drop_model(name),
            Op::Checkpoint => ds.checkpoint().map(|_| ()),
        }
    }

    fn apply_reference(&self, store: &mut Store) {
        match self {
            Op::CreateModel(name) => store.create_model(name).expect("reference create"),
            Op::Insert(model, quad) => {
                store.insert(model, quad).expect("reference insert");
            }
            Op::Remove(model, quad) => {
                store.remove(model, quad).expect("reference remove");
            }
            Op::BulkLoad(model, quads) => {
                store.bulk_load(model, quads).expect("reference bulk load");
            }
            Op::CreateVirtual(name, members) => {
                store
                    .create_virtual_model(name, members)
                    .expect("reference virtual");
            }
            Op::CreateIndex(model, kind) => {
                store.create_index(model, *kind).expect("reference index");
            }
            Op::DropModel(name) => store.drop_model(name).expect("reference drop"),
            Op::Checkpoint => {}
        }
    }
}

/// The workload: DDL, DML, a checkpoint in the middle (so some crashes
/// land inside snapshot writing), and post-checkpoint WAL traffic.
fn workload() -> Vec<Op> {
    vec![
        Op::CreateModel("topology"),
        Op::Insert("topology", q(1, 2)),
        Op::Insert("topology", q(2, 3)),
        Op::CreateModel("scratch"),
        Op::BulkLoad("topology", vec![q(3, 4), q(4, 5), q(5, 1)]),
        Op::Remove("topology", q(2, 3)),
        Op::CreateVirtual("all", vec!["topology", "scratch"]),
        Op::CreateIndex("topology", IndexKind::GPSCM),
        Op::Checkpoint,
        Op::Insert("topology", q(6, 7)),
        Op::DropModel("scratch"),
        Op::Insert("topology", q(7, 8)),
    ]
}

/// Observable logical state: every model's quad set, every virtual
/// model's members, every model's index kinds.
type State = (
    BTreeMap<String, BTreeSet<Quad>>,
    BTreeMap<String, Vec<String>>,
    BTreeMap<String, Vec<IndexKind>>,
);

fn logical_state(store: &Store) -> State {
    let mut models = BTreeMap::new();
    let mut indexes = BTreeMap::new();
    for name in store.model_names() {
        let view = store.dataset(name).expect("listed model");
        models.insert(
            name.to_string(),
            view.scan_decoded(QuadPattern::any())
                .collect::<BTreeSet<Quad>>(),
        );
        indexes.insert(
            name.to_string(),
            store
                .model(name)
                .expect("listed model")
                .index_kinds()
                .to_vec(),
        );
    }
    let mut virtuals = BTreeMap::new();
    for name in store.virtual_model_names() {
        virtuals.insert(
            name.clone(),
            store.virtual_model(&name).expect("listed virtual").to_vec(),
        );
    }
    (models, virtuals, indexes)
}

/// Reference state after the first `n` ops of the workload.
fn state_after(n: usize) -> State {
    let mut store = Store::new();
    for op in workload().iter().take(n) {
        op.apply_reference(&mut store);
    }
    logical_state(&store)
}

/// Runs the workload at `dir` through `vfs`, returning how many ops were
/// acknowledged before the first failure (all of them if none failed).
fn run_workload(dir: &PathBuf, vfs: Arc<FaultyVfs>) -> usize {
    let ds = DurableStore::open_with(dir, vfs, SyncPolicy::Always);
    let Ok(mut ds) = ds else {
        return 0; // crashed while writing the initial empty snapshot
    };
    for (i, op) in workload().iter().enumerate() {
        if op.apply_durable(&mut ds).is_err() {
            return i;
        }
    }
    workload().len()
}

#[test]
fn crash_matrix_never_loses_acknowledged_ops() {
    // Pass 1: count the workload's write points.
    let dir = tmp("count");
    let counter = Arc::new(FaultyVfs::counting());
    let acked = run_workload(&dir, Arc::clone(&counter));
    assert_eq!(acked, workload().len(), "counting pass must not fail");
    let total_points = counter.ops();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        total_points > 40,
        "workload too small to be interesting: {total_points}"
    );

    // Pass 2: kill at every write point, recover, compare.
    for kill in 0..total_points {
        let dir = tmp(&format!("kill{kill}"));
        let vfs = Arc::new(FaultyVfs::new(FaultPlan {
            kill_at: Some(kill),
            ..Default::default()
        }));
        let acked = run_workload(&dir, vfs);

        // The "machine restarts": recovery runs on the real filesystem.
        let recovered = DurableStore::open(&dir)
            .unwrap_or_else(|e| panic!("kill point {kill}: recovery failed: {e}"));
        let got = logical_state(recovered.store());
        let committed = state_after(acked);
        let with_in_flight = state_after((acked + 1).min(workload().len()));
        assert!(
            got == committed || got == with_in_flight,
            "kill point {kill}: recovered state matches neither the {acked} \
             acknowledged ops nor those plus the in-flight op\n got: {got:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn transient_io_errors_are_retried_through() {
    // Interrupt a scattering of write points; every op must still be
    // acknowledged and the final state must be complete.
    let dir = tmp("transient");
    let vfs = Arc::new(FaultyVfs::new(FaultPlan {
        transient_at: (0..60).step_by(7).collect(),
        ..Default::default()
    }));
    let acked = run_workload(&dir, vfs);
    assert_eq!(acked, workload().len());
    let recovered = DurableStore::open(&dir).expect("recovery");
    assert_eq!(
        logical_state(recovered.store()),
        state_after(workload().len())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_replay_is_idempotent() {
    // Replaying the same WAL onto the same snapshot twice (a recovery
    // that itself crashed and re-ran) must converge to the same state.
    let dir = tmp("idempotent");
    {
        let mut ds = DurableStore::open(&dir).expect("open");
        for op in workload() {
            if matches!(op, Op::Checkpoint) {
                continue; // keep everything in one epoch's WAL
            }
            op.apply_durable(&mut ds).expect("workload op");
        }
    }
    let wal_file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal."))
        })
        .expect("a WAL file");
    let bytes = std::fs::read(&wal_file).unwrap();
    let scan = scan_wal(&bytes);
    assert!(scan.truncated.is_none());
    assert!(!scan.records.is_empty());

    let once = Store::new();
    for record in scan_wal(&bytes).records {
        quadstore::persist::replay(&once, record).expect("first replay");
    }
    let twice = once;
    for record in scan_wal(&bytes).records {
        quadstore::persist::replay(&twice, record).expect("second replay");
    }
    let fresh = Store::new();
    for record in scan_wal(&bytes).records {
        quadstore::persist::replay(&fresh, record).expect("fresh replay");
    }
    assert_eq!(logical_state(&twice), logical_state(&fresh));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_wal_tail_is_truncated_on_open() {
    let dir = tmp("corrupt_tail");
    {
        let mut ds = DurableStore::open(&dir).expect("open");
        ds.create_model("m").expect("model");
        ds.insert("m", &q(1, 2)).expect("insert");
    }
    // Append garbage — a torn frame — to the live WAL.
    let wal_file = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal."))
        })
        .expect("a WAL file");
    let clean_len = std::fs::metadata(&wal_file).unwrap().len();
    let garbage = WalRecord::DropModel { model: "m".into() }.to_frame();
    let mut bytes = std::fs::read(&wal_file).unwrap();
    bytes.extend_from_slice(&garbage[..garbage.len() - 3]);
    std::fs::write(&wal_file, &bytes).unwrap();

    {
        let ds = DurableStore::open(&dir).expect("open truncates, not errors");
        assert!(ds.store().model("m").is_some());
        assert_eq!(ds.store().model("m").unwrap().len(), 1);
    }
    // open() physically truncated the torn frame away.
    assert_eq!(std::fs::metadata(&wal_file).unwrap().len(), clean_len);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_store_roundtrips_through_checkpoint_and_reopen() {
    let dir = tmp("roundtrip");
    {
        let mut ds = DurableStore::open(&dir).expect("open");
        for op in workload() {
            op.apply_durable(&mut ds).expect("workload op");
        }
        ds.checkpoint().expect("final checkpoint");
    }
    let recovered = DurableStore::open(&dir).expect("reopen");
    assert_eq!(
        logical_state(recovered.store()),
        state_after(workload().len())
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
