//! A thin virtual-filesystem seam with deterministic fault injection.
//!
//! All durable-path file I/O (WAL appends, snapshot writes, renames,
//! fsyncs) goes through the [`Vfs`] trait. Production code uses
//! [`RealFs`]; tests wrap it in [`FaultyVfs`], which can kill a write
//! partway through its bytes, silently drop fsyncs, or return transient
//! `EINTR`-style errors at chosen points — so the crash-matrix suite can
//! prove recovery from a simulated crash at *every* write point.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// File-system operations used by the durability subsystem. Object-safe,
/// so stores can hold `Arc<dyn Vfs>`.
pub trait Vfs: std::fmt::Debug + Send + Sync {
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates/truncates a file and writes all bytes.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Appends bytes to a file, creating it if missing.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Truncates a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Atomically renames a file (the commit point of snapshot writes).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Flushes a file's data to stable storage (fsync).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Flushes directory metadata (entry renames) to stable storage.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// File names (not paths) inside a directory.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
}

/// Retries a file operation over transient `EINTR`-style interruptions.
pub fn retry_interrupted<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    for _ in 0..16 {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
    op()
}

/// The production [`Vfs`]: plain `std::fs` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl Vfs for RealFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        // Append mode re-seeks on every write, so no cursor fixup needed.
        f.set_len(len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // Directory fsync is how rename durability is guaranteed on Linux.
        // Platforms where opening a directory fails simply skip it.
        match std::fs::File::open(path) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// The kind of mutating [`Vfs`] operation, for matching scheduled
/// faults against specific parts of the durable path (e.g. "fail the
/// next three WAL appends" or "every fsync storms out").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `Vfs::write` (whole-file create/overwrite).
    Write,
    /// `Vfs::append` (WAL frames).
    Append,
    /// `Vfs::truncate`.
    Truncate,
    /// `Vfs::rename` (snapshot commit points).
    Rename,
    /// `Vfs::remove_file`.
    Remove,
    /// `Vfs::sync_file` / `Vfs::sync_dir` (fsyncs).
    Sync,
    /// Any mutating operation.
    Any,
}

impl FaultOp {
    fn matches(self, actual: FaultOp) -> bool {
        self == FaultOp::Any || self == actual
    }
}

/// A scheduled transient fault: the next `remaining` operations matching
/// `op` (and, optionally, a path substring) fail with a *non-retryable*
/// I/O error — distinct from [`FaultPlan::transient_at`]'s `EINTR`s,
/// which [`retry_interrupted`] absorbs inline. Scheduled faults exercise
/// the caller's own retry/backoff and degradation logic instead.
#[derive(Debug, Clone)]
pub struct ScheduledFault {
    /// Which operation kind to fail.
    pub op: FaultOp,
    /// Only fail ops whose path contains this substring (any path if
    /// `None`).
    pub path_contains: Option<String>,
    /// How many more matching ops fail before the schedule is spent.
    pub remaining: u64,
}

/// What [`FaultyVfs`] should do, set up per test scenario.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// Simulate a crash at the k-th mutating operation (0-based): writes
    /// and appends persist only the first half of their bytes, metadata
    /// ops (rename/remove/truncate/sync) do nothing — then every
    /// subsequent operation fails as if the process had died.
    pub kill_at: Option<u64>,
    /// Mutating-op indexes that fail once with an `Interrupted` error
    /// (the op does not happen) and then succeed on retry.
    pub transient_at: BTreeSet<u64>,
    /// Scheduled transient faults (fail the next N matching ops, then
    /// succeed). Checked in order; the first live match fires.
    pub fail_next: Vec<ScheduledFault>,
    /// Silently skip fsyncs (they still count as mutation points).
    pub drop_syncs: bool,
}

/// A deterministic fault-injection [`Vfs`] wrapping [`RealFs`].
///
/// Every mutating call — `write`, `append`, `truncate`, `rename`,
/// `remove_file`, `sync_file`, `sync_dir` — consumes one *write point*.
/// A [`FaultPlan`] decides what happens at each point; the op counter is
/// observable so a test can first count a scenario's write points and
/// then re-run it crashing at each one.
#[derive(Debug)]
pub struct FaultyVfs {
    inner: RealFs,
    plan: Mutex<FaultPlan>,
    ops: AtomicU64,
    crashed: Mutex<bool>,
}

impl FaultyVfs {
    /// A faulty VFS with the given plan.
    pub fn new(plan: FaultPlan) -> FaultyVfs {
        FaultyVfs {
            inner: RealFs,
            plan: Mutex::new(plan),
            ops: AtomicU64::new(0),
            crashed: Mutex::new(false),
        }
    }

    /// A pass-through VFS that only counts write points.
    pub fn counting() -> FaultyVfs {
        FaultyVfs::new(FaultPlan::default())
    }

    /// Mutating operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the simulated crash has happened.
    pub fn crashed(&self) -> bool {
        *self.crashed.lock().expect("crash flag")
    }

    /// Schedules a transient fault at runtime: the next `n` operations
    /// matching `op` fail with a non-retryable I/O error, then succeed.
    pub fn fail_next(&self, op: FaultOp, n: u64) {
        self.schedule(ScheduledFault {
            op,
            path_contains: None,
            remaining: n,
        });
    }

    /// Schedules an arbitrary transient fault at runtime.
    pub fn schedule(&self, fault: ScheduledFault) {
        self.plan.lock().expect("fault plan").fail_next.push(fault);
    }

    /// Drops all scheduled transient faults (spent or not).
    pub fn clear_scheduled(&self) {
        self.plan.lock().expect("fault plan").fail_next.clear();
    }

    /// Scheduled transient failures still pending across all schedules.
    pub fn scheduled_remaining(&self) -> u64 {
        let plan = self.plan.lock().expect("fault plan");
        plan.fail_next.iter().map(|f| f.remaining).sum()
    }

    fn crash_error() -> io::Error {
        io::Error::other("simulated crash (fault injection)")
    }

    /// Charges one write point. `Ok(true)` means "this op is the kill
    /// point": persist a partial effect, then die.
    fn charge(&self, kind: FaultOp, path: &Path) -> io::Result<bool> {
        if *self.crashed.lock().expect("crash flag") {
            return Err(Self::crash_error());
        }
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let mut plan = self.plan.lock().expect("fault plan");
        if plan.transient_at.remove(&op) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
        }
        if plan.kill_at == Some(op) {
            *self.crashed.lock().expect("crash flag") = true;
            return Ok(true);
        }
        let lossy = path.to_string_lossy();
        for fault in plan.fail_next.iter_mut() {
            if fault.remaining == 0 || !fault.op.matches(kind) {
                continue;
            }
            if let Some(sub) = &fault.path_contains {
                if !lossy.contains(sub.as_str()) {
                    continue;
                }
            }
            fault.remaining -= 1;
            // Deliberately NOT `Interrupted`: this error must reach the
            // caller's backoff/degradation path, not `retry_interrupted`.
            return Err(io::Error::other(format!(
                "injected transient {kind:?} failure"
            )));
        }
        Ok(false)
    }
}

impl Vfs for FaultyVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        // Directory creation is not an interesting crash point (recovery
        // of an empty/missing directory is trivial); pass through.
        self.inner.create_dir_all(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if *self.crashed.lock().expect("crash flag") {
            return Err(Self::crash_error());
        }
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if self.charge(FaultOp::Write, path)? {
            let _ = self.inner.write(path, &data[..data.len() / 2]);
            return Err(Self::crash_error());
        }
        self.inner.write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if self.charge(FaultOp::Append, path)? {
            let _ = self.inner.append(path, &data[..data.len() / 2]);
            return Err(Self::crash_error());
        }
        self.inner.append(path, data)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        if self.charge(FaultOp::Truncate, path)? {
            return Err(Self::crash_error());
        }
        self.inner.truncate(path, len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.charge(FaultOp::Rename, from)? {
            return Err(Self::crash_error());
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.charge(FaultOp::Remove, path)? {
            return Err(Self::crash_error());
        }
        self.inner.remove_file(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if self.charge(FaultOp::Sync, path)? {
            return Err(Self::crash_error());
        }
        if self.plan.lock().expect("fault plan").drop_syncs {
            return Ok(());
        }
        self.inner.sync_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if self.charge(FaultOp::Sync, path)? {
            return Err(Self::crash_error());
        }
        if self.plan.lock().expect("fault plan").drop_syncs {
            return Ok(());
        }
        self.inner.sync_dir(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        if *self.crashed.lock().expect("crash flag") {
            return Err(Self::crash_error());
        }
        self.inner.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qs_faults_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn kill_point_leaves_half_the_bytes() {
        let dir = tmp("kill");
        let vfs = FaultyVfs::new(FaultPlan {
            kill_at: Some(0),
            ..Default::default()
        });
        let path = dir.join("f");
        assert!(vfs.write(&path, b"12345678").is_err());
        assert!(vfs.crashed());
        assert_eq!(std::fs::read(&path).unwrap(), b"1234");
        // Everything after the crash fails.
        assert!(vfs.write(&path, b"x").is_err());
        assert!(vfs.read(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_errors_succeed_on_retry() {
        let dir = tmp("transient");
        let vfs = FaultyVfs::new(FaultPlan {
            transient_at: [0u64].into_iter().collect(),
            ..Default::default()
        });
        let path = dir.join("f");
        let result = retry_interrupted(|| vfs.write(&path, b"ok"));
        assert!(result.is_ok());
        assert_eq!(std::fs::read(&path).unwrap(), b"ok");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scheduled_faults_fail_n_matching_ops_then_succeed() {
        let dir = tmp("sched");
        let vfs = FaultyVfs::counting();
        vfs.fail_next(FaultOp::Append, 2);
        let path = dir.join("wal");
        // Non-matching kinds sail through while appends are scheduled.
        vfs.write(&path, b"head").unwrap();
        let e = vfs.append(&path, b"x").unwrap_err();
        // Must NOT be Interrupted: retry_interrupted would absorb it.
        assert_ne!(e.kind(), io::ErrorKind::Interrupted);
        assert!(vfs.append(&path, b"x").is_err());
        assert_eq!(vfs.scheduled_remaining(), 0);
        vfs.append(&path, b"x").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"headx");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scheduled_faults_can_target_a_path_substring() {
        let dir = tmp("sched_path");
        let vfs = FaultyVfs::counting();
        vfs.schedule(ScheduledFault {
            op: FaultOp::Any,
            path_contains: Some("victim".into()),
            remaining: 1,
        });
        vfs.write(&dir.join("other"), b"ok").unwrap();
        assert!(vfs.write(&dir.join("victim"), b"no").is_err());
        vfs.write(&dir.join("victim"), b"yes").unwrap();
        vfs.clear_scheduled();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counting_mode_observes_write_points() {
        let dir = tmp("count");
        let vfs = FaultyVfs::counting();
        vfs.write(&dir.join("a"), b"x").unwrap();
        vfs.append(&dir.join("a"), b"y").unwrap();
        vfs.sync_file(&dir.join("a")).unwrap();
        vfs.rename(&dir.join("a"), &dir.join("b")).unwrap();
        assert_eq!(vfs.ops(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
