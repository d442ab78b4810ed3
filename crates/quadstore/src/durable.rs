//! [`DurableStore`]: a [`Store`] whose mutations survive crashes.
//!
//! Every mutating call is written to the current epoch's write-ahead log
//! *before* it is applied in memory; an operation only returns `Ok` once
//! its WAL frame is on disk (and, under [`SyncPolicy::Always`], fsynced).
//! [`DurableStore::checkpoint`] folds the log into a fresh atomic
//! snapshot (see [`crate::persist`]) and starts an empty WAL.
//! [`DurableStore::open_with`] recovers from whatever a crash left
//! behind: newest valid snapshot, plus the WAL tail up to the first
//! corrupt frame — which it also physically truncates away, so later
//! appends extend a clean log.
//!
//! ## Storage degradation
//!
//! Transient WAL failures (a flaky append, an fsync storm) are retried
//! under a capped exponential backoff ([`RetryPolicy`]). When a failure
//! persists past the retry budget, the store *degrades* instead of
//! panicking or lying: it truncates the WAL back to its acknowledged
//! length (so an un-acked partial frame can never be replayed), flips to
//! read-only, and every later write fails fast with
//! [`StoreError::ReadOnly`] while reads keep serving the in-memory
//! store. [`DurableStore::try_recover`] probes the write path and
//! re-arms it once storage heals — with zero acknowledged writes lost.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rdf_model::{nquads, Quad};

use crate::error::StoreError;
use crate::faults::{retry_interrupted, RealFs, Vfs};
use crate::index::IndexKind;
use crate::persist::{recover_with, save_snapshot, wal_path, MANIFEST};
use crate::store::Store;
use crate::wal::WalRecord;

/// When WAL appends are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every logged operation: an `Ok` return means the
    /// operation survives any crash. The default.
    Always,
    /// fsync after every `n` logged operations (group commit): up to
    /// `n - 1` acknowledged operations may be lost to a crash.
    EveryN(usize),
    /// fsync only on [`DurableStore::sync`] and
    /// [`DurableStore::checkpoint`].
    Manual,
}

/// Retry/backoff schedule for transient WAL I/O failures: a failed
/// append or fsync is retried up to `max_retries` times with exponential
/// backoff (doubling from `base_backoff`, capped at `max_backoff`)
/// before the store degrades to read-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = degrade immediately).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles on each subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// `n` retries with no backoff sleeps (tests, latency-critical callers).
    pub fn immediate(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// No retries at all: the first failure degrades the store.
    pub fn none() -> RetryPolicy {
        RetryPolicy::immediate(0)
    }
}

/// A crash-safe store: in-memory [`Store`] + on-disk WAL + snapshots.
#[derive(Debug)]
pub struct DurableStore {
    store: Store,
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    epoch: u64,
    policy: SyncPolicy,
    retry: RetryPolicy,
    /// Logged operations not yet covered by an fsync.
    unsynced: usize,
    /// Acknowledged WAL length: every byte below this backs an operation
    /// that returned `Ok`. Degradation and recovery truncate here.
    wal_len: u64,
    /// `Some(cause)` once a persistent storage failure has flipped the
    /// store to read-only; cleared by a successful [`Self::try_recover`].
    read_only: Option<String>,
}

impl DurableStore {
    /// Opens (or creates) a durable store at `dir` with the production
    /// filesystem and [`SyncPolicy::Always`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<DurableStore, StoreError> {
        DurableStore::open_with(dir, Arc::new(RealFs), SyncPolicy::Always)
    }

    /// Opens (or creates) a durable store over an explicit [`Vfs`] and
    /// sync policy. Runs full crash recovery: loads the newest valid
    /// snapshot, replays the WAL tail, and truncates any torn suffix.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        policy: SyncPolicy,
    ) -> Result<DurableStore, StoreError> {
        let dir = dir.into();
        if !vfs.exists(&dir.join(MANIFEST)) {
            // Fresh store: commit an empty epoch-1 snapshot so there is
            // always a recovery point.
            let epoch = save_snapshot(&Store::new(), &dir, vfs.as_ref())?;
            return Ok(DurableStore {
                store: Store::new(),
                vfs,
                dir,
                epoch,
                policy,
                retry: RetryPolicy::default(),
                unsynced: 0,
                wal_len: 0,
                read_only: None,
            });
        }
        let recovered = recover_with(vfs.as_ref(), &dir)?;
        if recovered.wal_truncated.is_some() {
            let wal = wal_path(&dir, recovered.epoch);
            retry_interrupted(|| vfs.truncate(&wal, recovered.wal_valid_len)).map_err(io_err)?;
            retry_interrupted(|| vfs.sync_file(&wal)).map_err(io_err)?;
        }
        Ok(DurableStore {
            store: recovered.store,
            vfs,
            dir,
            epoch: recovered.epoch,
            policy,
            retry: RetryPolicy::default(),
            unsynced: 0,
            wal_len: recovered.wal_valid_len,
            read_only: None,
        })
    }

    /// [`Self::open_with`] plus an explicit [`RetryPolicy`] for
    /// transient WAL failures.
    pub fn open_with_retry(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        policy: SyncPolicy,
        retry: RetryPolicy,
    ) -> Result<DurableStore, StoreError> {
        let mut ds = DurableStore::open_with(dir, vfs, policy)?;
        ds.retry = retry;
        Ok(ds)
    }

    /// The underlying in-memory store (read-only: all mutation must go
    /// through the logged methods).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a persistent storage failure has degraded the store to
    /// read-only ([`Self::try_recover`] can re-arm it).
    pub fn is_read_only(&self) -> bool {
        self.read_only.is_some()
    }

    /// Why the store is read-only, if it is.
    pub fn read_only_reason(&self) -> Option<&str> {
        self.read_only.as_deref()
    }

    /// Acknowledged WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal_len
    }

    fn check_writable(&self) -> Result<(), StoreError> {
        match &self.read_only {
            Some(cause) => Err(StoreError::ReadOnly(cause.clone())),
            None => Ok(()),
        }
    }

    /// Runs one WAL I/O operation under the retry policy. `EINTR`s are
    /// absorbed inline as before; other failures retry with capped
    /// exponential backoff. When `acked_len` is given, each retry first
    /// truncates the file back to it, clearing any partial bytes a
    /// failed append left behind.
    fn wal_op_with_retry(
        &self,
        wal: &Path,
        acked_len: Option<u64>,
        op: impl Fn(&dyn Vfs) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut backoff = self.retry.base_backoff;
        let mut attempt = 0u32;
        loop {
            match retry_interrupted(|| op(self.vfs.as_ref())) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    if telemetry::enabled() {
                        crate::metrics::wal_retries().inc();
                    }
                    if let Some(len) = acked_len {
                        let _ = self.vfs.truncate(wal, len);
                    }
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    backoff = (backoff * 2).min(self.retry.max_backoff);
                }
            }
        }
    }

    /// Flips the store to read-only after a persistent WAL failure:
    /// best-effort truncates the WAL back to its acknowledged length (so
    /// an un-acked partial frame can never be replayed), records the
    /// cause, and returns the error every later write will see.
    fn degrade(&mut self, cause: String) -> StoreError {
        let wal = wal_path(&self.dir, self.epoch);
        let _ = retry_interrupted(|| self.vfs.truncate(&wal, self.wal_len));
        if telemetry::enabled() {
            crate::metrics::wal_read_only_flips().inc();
        }
        self.read_only = Some(cause.clone());
        StoreError::ReadOnly(cause)
    }

    fn sync_inner(&self, wal: &Path) -> std::io::Result<()> {
        let span = telemetry::enabled().then(|| crate::metrics::wal_fsync_nanos().span());
        let result = self.wal_op_with_retry(wal, None, |vfs| vfs.sync_file(wal));
        drop(span);
        result
    }

    fn log(&mut self, record: &WalRecord) -> Result<(), StoreError> {
        self.check_writable()?;
        let wal = wal_path(&self.dir, self.epoch);
        let frame = record.to_frame();
        if let Err(e) =
            self.wal_op_with_retry(&wal, Some(self.wal_len), |vfs| vfs.append(&wal, &frame))
        {
            return Err(self.degrade(format!(
                "WAL append failed after {} retries: {e}",
                self.retry.max_retries
            )));
        }
        self.wal_len += frame.len() as u64;
        if telemetry::enabled() {
            crate::metrics::wal_appends().inc();
        }
        self.unsynced += 1;
        let flush = match self.policy {
            SyncPolicy::Always => true,
            SyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            SyncPolicy::Manual => false,
        };
        if flush {
            if let Err(e) = self.sync_inner(&wal) {
                // The frame reached the file but never stable storage,
                // and the caller sees an error: un-ack it, so degradation
                // truncates it away rather than letting a later recovery
                // replay an operation that was never acknowledged.
                self.wal_len -= frame.len() as u64;
                self.unsynced -= 1;
                return Err(self.degrade(format!(
                    "WAL fsync failed after {} retries: {e}",
                    self.retry.max_retries
                )));
            }
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Flushes all logged-but-unsynced operations to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.check_writable()?;
        if self.unsynced > 0 {
            let wal = wal_path(&self.dir, self.epoch);
            if let Err(e) = self.sync_inner(&wal) {
                // Group-commit frames below `wal_len` were acknowledged;
                // they stay in the file and `try_recover`'s fsync makes
                // them stable. Nothing acked is lost.
                return Err(self.degrade(format!(
                    "WAL fsync failed after {} retries: {e}",
                    self.retry.max_retries
                )));
            }
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Probes the write path after a read-only flip: touches the WAL,
    /// truncates it back to the acknowledged length (dropping anything
    /// unacknowledged), and fsyncs — so every acknowledged byte is
    /// stable again. On success the write path re-arms. Returns whether
    /// the store is writable afterwards.
    pub fn try_recover(&mut self) -> bool {
        if self.read_only.is_none() {
            return true;
        }
        let wal = wal_path(&self.dir, self.epoch);
        let probe = retry_interrupted(|| self.vfs.append(&wal, &[]))
            .and_then(|()| retry_interrupted(|| self.vfs.truncate(&wal, self.wal_len)))
            .and_then(|()| retry_interrupted(|| self.vfs.sync_file(&wal)));
        if probe.is_err() {
            return false;
        }
        if telemetry::enabled() {
            crate::metrics::wal_recoveries().inc();
        }
        self.read_only = None;
        self.unsynced = 0;
        true
    }

    /// Writes a fresh atomic snapshot and rotates to an empty WAL. After
    /// this returns, recovery no longer needs the old epoch's log.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        self.check_writable()?;
        self.sync()?;
        self.epoch = save_snapshot(&self.store, &self.dir, self.vfs.as_ref())?;
        self.unsynced = 0;
        self.wal_len = 0;
        Ok(self.epoch)
    }

    // --- logged DML ----------------------------------------------------

    /// Logged [`Store::insert`].
    pub fn insert(&mut self, model: &str, quad: &Quad) -> Result<bool, StoreError> {
        if self.store.model(model).is_none() {
            return Err(StoreError::UnknownModel(model.to_string()));
        }
        self.log(&WalRecord::Insert {
            model: model.to_string(),
            quad: quad.clone(),
        })?;
        self.store.insert(model, quad)
    }

    /// Logged [`Store::remove`].
    pub fn remove(&mut self, model: &str, quad: &Quad) -> Result<bool, StoreError> {
        if self.store.model(model).is_none() {
            return Err(StoreError::UnknownModel(model.to_string()));
        }
        self.log(&WalRecord::Remove {
            model: model.to_string(),
            quad: quad.clone(),
        })?;
        self.store.remove(model, quad)
    }

    /// Logged [`Store::bulk_load`]: the whole batch travels as one WAL
    /// record, so a crash either keeps all of it or none of it.
    pub fn bulk_load(&mut self, model: &str, quads: &[Quad]) -> Result<usize, StoreError> {
        if self.store.model(model).is_none() {
            return Err(StoreError::UnknownModel(model.to_string()));
        }
        self.log(&WalRecord::BulkLoad {
            model: model.to_string(),
            nquads: nquads::serialize(quads),
        })?;
        self.store.bulk_load(model, quads)
    }

    // --- logged DDL ----------------------------------------------------
    //
    // DDL validates and applies in memory first (catching duplicate
    // names, unknown members, …), then logs. A crash between the two
    // loses only the in-memory effect of an operation that was never
    // acknowledged — exactly the contract.

    /// Logged [`Store::create_model`].
    pub fn create_model(&mut self, name: &str) -> Result<(), StoreError> {
        self.check_writable()?;
        self.store.create_model(name)?;
        let indexes = self
            .store
            .model(name)
            .expect("just created")
            .index_kinds()
            .to_vec();
        self.log(&WalRecord::CreateModel {
            model: name.to_string(),
            indexes,
        })
    }

    /// Logged [`Store::create_model_with_indexes`].
    pub fn create_model_with_indexes(
        &mut self,
        name: &str,
        kinds: &[IndexKind],
    ) -> Result<(), StoreError> {
        self.check_writable()?;
        self.store.create_model_with_indexes(name, kinds)?;
        self.log(&WalRecord::CreateModel {
            model: name.to_string(),
            indexes: kinds.to_vec(),
        })
    }

    /// Logged [`Store::drop_model`].
    pub fn drop_model(&mut self, name: &str) -> Result<(), StoreError> {
        self.check_writable()?;
        self.store.drop_model(name)?;
        self.log(&WalRecord::DropModel {
            model: name.to_string(),
        })
    }

    /// Logged [`Store::create_virtual_model`].
    pub fn create_virtual_model(&mut self, name: &str, members: &[&str]) -> Result<(), StoreError> {
        self.check_writable()?;
        self.store.create_virtual_model(name, members)?;
        self.log(&WalRecord::CreateVirtualModel {
            model: name.to_string(),
            members: members.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Logged [`Store::create_index`].
    pub fn create_index(&mut self, model: &str, kind: IndexKind) -> Result<(), StoreError> {
        self.check_writable()?;
        self.store.create_index(model, kind)?;
        self.log(&WalRecord::CreateIndex {
            model: model.to_string(),
            kind,
        })
    }

    /// Logged [`Store::drop_index`].
    pub fn drop_index(&mut self, model: &str, kind: IndexKind) -> Result<(), StoreError> {
        self.check_writable()?;
        self.store.drop_index(model, kind)?;
        self.log(&WalRecord::DropIndex {
            model: model.to_string(),
            kind,
        })
    }
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::QuadPattern;

    use rdf_model::Term;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qs_durable_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn q(s: u32, o: u32) -> Quad {
        Quad::triple(
            Term::iri(format!("http://s{s}")),
            Term::iri("http://p"),
            Term::iri(format!("http://o{o}")),
        )
        .unwrap()
    }

    #[test]
    fn reopen_replays_the_wal() {
        let dir = tmp("reopen");
        {
            let mut ds = DurableStore::open(&dir).unwrap();
            ds.create_model("m").unwrap();
            ds.insert("m", &q(1, 1)).unwrap();
            ds.insert("m", &q(2, 2)).unwrap();
            ds.remove("m", &q(1, 1)).unwrap();
            // Dropped on the floor without a checkpoint or clean close —
            // the WAL alone must carry it.
        }
        let ds = DurableStore::open(&dir).unwrap();
        assert_eq!(ds.store().model("m").unwrap().len(), 1);
        let quads: Vec<Quad> = ds
            .store()
            .dataset("m")
            .unwrap()
            .scan_decoded(QuadPattern::any())
            .collect();
        assert_eq!(quads, vec![q(2, 2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotates_the_wal() {
        let dir = tmp("checkpoint");
        let mut ds = DurableStore::open(&dir).unwrap();
        ds.create_model("m").unwrap();
        ds.bulk_load("m", &[q(1, 1), q(2, 2)]).unwrap();
        let before = ds.epoch();
        let after = ds.checkpoint().unwrap();
        assert_eq!(after, before + 1);
        assert_eq!(std::fs::read(wal_path(&dir, after)).unwrap(), b"");
        ds.insert("m", &q(3, 3)).unwrap();
        drop(ds);
        let ds = DurableStore::open(&dir).unwrap();
        assert_eq!(ds.store().model("m").unwrap().len(), 3);
        assert_eq!(ds.epoch(), after);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ddl_survives_reopen() {
        let dir = tmp("ddl");
        {
            let mut ds = DurableStore::open(&dir).unwrap();
            ds.create_model_with_indexes("a", &[IndexKind::PCSGM])
                .unwrap();
            ds.create_model("b").unwrap();
            ds.create_virtual_model("v", &["a", "b"]).unwrap();
            ds.create_index("a", IndexKind::GPSCM).unwrap();
            ds.drop_model("b").unwrap(); // also drops v
        }
        let ds = DurableStore::open(&dir).unwrap();
        assert!(ds.store().model("b").is_none());
        assert!(ds.store().virtual_model("v").is_none());
        assert_eq!(
            ds.store().model("a").unwrap().index_kinds(),
            &[IndexKind::PCSGM, IndexKind::GPSCM]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_append_faults_are_retried_through() {
        let dir = tmp("transient_retry");
        let vfs = Arc::new(crate::faults::FaultyVfs::counting());
        let mut ds = DurableStore::open_with_retry(
            &dir,
            vfs.clone(),
            SyncPolicy::Always,
            RetryPolicy::immediate(3),
        )
        .unwrap();
        ds.create_model("m").unwrap();
        vfs.fail_next(crate::faults::FaultOp::Append, 2);
        // Two injected failures, three retries allowed: the write lands.
        ds.insert("m", &q(1, 1)).unwrap();
        assert!(!ds.is_read_only());
        drop(ds);
        let ds = DurableStore::open(&dir).unwrap();
        assert_eq!(ds.store().model("m").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_append_failure_degrades_to_read_only() {
        let dir = tmp("append_degrade");
        let vfs = Arc::new(crate::faults::FaultyVfs::counting());
        let mut ds = DurableStore::open_with_retry(
            &dir,
            vfs.clone(),
            SyncPolicy::Always,
            RetryPolicy::immediate(2),
        )
        .unwrap();
        ds.create_model("m").unwrap();
        ds.insert("m", &q(1, 1)).unwrap();
        vfs.fail_next(crate::faults::FaultOp::Append, 10);
        assert!(matches!(
            ds.insert("m", &q(2, 2)),
            Err(StoreError::ReadOnly(_))
        ));
        assert!(ds.is_read_only());
        assert!(ds.read_only_reason().unwrap().contains("append"));
        // Reads keep serving; the failed write never applied in memory.
        assert_eq!(ds.store().model("m").unwrap().len(), 1);
        // Further writes (DML and DDL) fail fast, typed.
        assert!(matches!(
            ds.insert("m", &q(3, 3)),
            Err(StoreError::ReadOnly(_))
        ));
        assert!(matches!(ds.create_model("n"), Err(StoreError::ReadOnly(_))));
        assert!(ds.store().model("n").is_none());
        // The fault is still live: recovery probes fail, store stays down.
        assert!(!ds.try_recover());
        assert!(ds.is_read_only());
        // Storage heals: the probe re-arms the write path.
        vfs.clear_scheduled();
        assert!(ds.try_recover());
        assert!(!ds.is_read_only());
        ds.insert("m", &q(2, 2)).unwrap();
        drop(ds);
        let ds = DurableStore::open(&dir).unwrap();
        assert_eq!(ds.store().model("m").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_storm_loses_no_acknowledged_write() {
        let dir = tmp("fsync_storm");
        let vfs = Arc::new(crate::faults::FaultyVfs::counting());
        let mut ds = DurableStore::open_with_retry(
            &dir,
            vfs.clone(),
            SyncPolicy::Always,
            RetryPolicy::immediate(1),
        )
        .unwrap();
        ds.create_model("m").unwrap();
        ds.insert("m", &q(1, 1)).unwrap();
        let acked = ds.wal_len();
        vfs.fail_next(crate::faults::FaultOp::Sync, 100);
        // The frame appends but never reaches stable storage: the op
        // must fail, and the un-acked frame must not outlive it.
        assert!(matches!(
            ds.insert("m", &q(2, 2)),
            Err(StoreError::ReadOnly(_))
        ));
        assert!(ds.is_read_only());
        assert_eq!(ds.wal_len(), acked);
        vfs.clear_scheduled();
        assert!(ds.try_recover());
        drop(ds);
        // Recovery replays exactly the acknowledged operations.
        let ds = DurableStore::open(&dir).unwrap();
        assert_eq!(ds.store().model("m").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_defers_fsync() {
        let dir = tmp("group");
        let mut ds =
            DurableStore::open_with(&dir, Arc::new(RealFs), SyncPolicy::EveryN(8)).unwrap();
        ds.create_model("m").unwrap();
        for i in 0..20 {
            ds.insert("m", &q(i, i)).unwrap();
        }
        ds.sync().unwrap();
        drop(ds);
        let ds = DurableStore::open(&dir).unwrap();
        assert_eq!(ds.store().model("m").unwrap().len(), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
