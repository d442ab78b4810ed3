//! Crash-safe durability: the WAL + snapshot machinery end to end.
//!
//! The paper's §1 pitches the RDF store as "backend storage for large
//! property graph datasets"; backend storage must survive crashes, not
//! just restarts. This example:
//!
//! 1. opens a `DurableStore`, runs DDL + DML, and checkpoints;
//! 2. simulates a crash with the deterministic fault-injection VFS
//!    (the write dies half-way through its bytes);
//! 3. recovers, showing that every acknowledged operation survived and
//!    the torn WAL tail was truncated by its CRC check.
//!
//! ```sh
//! cargo run --example crash_recovery
//! ```

use std::sync::Arc;

use quadstore::{DurableStore, FaultPlan, FaultyVfs, SyncPolicy};
use rdf_model::{GraphName, Quad, Term};

fn follows(s: &str, o: &str, edge: &str) -> Quad {
    Quad::new(
        Term::iri(format!("http://pg/{s}")),
        Term::iri("http://pg/r/follows"),
        Term::iri(format!("http://pg/{o}")),
        GraphName::iri(format!("http://pg/{edge}")),
    )
    .expect("valid quad")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("pgrdf_crash_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- 1. Normal operation: log, checkpoint, log some more. ---
    {
        let mut ds = DurableStore::open(&dir)?;
        ds.create_model("topology")?;
        ds.insert("topology", &follows("v1", "v2", "e1"))?;
        ds.insert("topology", &follows("v2", "v3", "e2"))?;
        let epoch = ds.checkpoint()?;
        ds.insert("topology", &follows("v3", "v1", "e3"))?;
        println!("wrote 3 quads; snapshot epoch {epoch}, 1 record in the live WAL");
    }

    // --- 2. Crash mid-write. The fault-injection VFS kills the process
    //        at a chosen write point: the WAL append persists only half
    //        its bytes, then every subsequent I/O fails. ---
    {
        let vfs = Arc::new(FaultyVfs::new(FaultPlan {
            kill_at: Some(0), // the very next write: the insert's WAL append
            ..Default::default()
        }));
        let faulty: Arc<FaultyVfs> = Arc::clone(&vfs);
        let mut ds = DurableStore::open_with(&dir, faulty, SyncPolicy::Always)?;
        let doomed = ds.insert("topology", &follows("v4", "v4", "e4"));
        println!(
            "injected crash during the 4th insert: {}",
            doomed.expect_err("the injected crash fails the insert")
        );
        assert!(vfs.crashed());
    }

    // --- 3. Recovery: the torn frame fails its CRC and is truncated;
    //        all three acknowledged quads are intact. ---
    let recovered = quadstore::recover_from_dir(&dir)?;
    println!(
        "recovered epoch {} + {} WAL record(s); torn tail: {}",
        recovered.epoch,
        recovered.wal_records,
        recovered.wal_truncated.as_deref().unwrap_or("none"),
    );
    let ds = DurableStore::open(&dir)?; // also truncates the torn tail
    assert_eq!(ds.store().model("topology").expect("model").len(), 3);
    println!(
        "store holds {} quads — every acknowledged write survived",
        ds.store().model("topology").expect("model").len()
    );

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
