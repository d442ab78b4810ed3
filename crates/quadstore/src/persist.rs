//! Durable storage: crash-safe snapshots of a whole store.
//!
//! The paper's pitch includes "RDF stores can serve as backend storage
//! for large property graph datasets" (§1) — backend storage must
//! survive not just a restart but a crash mid-write. The on-disk layout
//! is a sequence of *epochs*:
//!
//! ```text
//! store.manifest        pointer to the current epoch (atomic rename target)
//! manifest.e<E>         immutable manifest copy for epoch E (fallback)
//! m<i>.e<E>.nq          one N-Quads file per semantic model, epoch E
//! wal.e<E>.log          write-ahead log of mutations since snapshot E
//! ```
//!
//! A snapshot is committed by a single `rename` of `store.manifest.tmp`
//! onto `store.manifest` after every data file has been written and
//! fsynced — a crash at any earlier point leaves the previous epoch
//! fully intact. Manifests carry a per-file CRC-32 for every model file
//! plus a trailing whole-manifest CRC line, so recovery can tell a valid
//! snapshot from a torn one and fall back to the newest epoch that
//! checks out. [`recover_from_dir`] then replays the epoch's WAL tail,
//! truncating at the first corrupt frame.
//!
//! The legacy (pre-epoch) format — un-suffixed `m<i>.nq` files and a
//! manifest without `epoch`/`crc` lines — still loads.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rdf_model::nquads;

use crate::error::StoreError;
use crate::faults::{retry_interrupted, RealFs, Vfs};
use crate::index::IndexKind;
use crate::store::{Snapshot, Store};
use crate::wal::{crc32, scan_wal, WalRecord};

/// Manifest file name inside a store directory.
pub const MANIFEST: &str = "store.manifest";

/// WAL file path for a snapshot epoch.
pub fn wal_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("wal.e{epoch}.log"))
}

fn epoch_manifest_name(epoch: u64) -> String {
    format!("manifest.e{epoch}")
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

// --- manifest text -----------------------------------------------------

#[derive(Debug, Default)]
struct Manifest {
    epoch: u64,
    /// (model name, file name, index kinds, optional file CRC).
    models: Vec<(String, String, Vec<IndexKind>, Option<u32>)>,
    /// (virtual name, member names).
    virtuals: Vec<(String, Vec<String>)>,
}

/// Parses manifest text, verifying the trailing whole-manifest CRC line
/// when present (v2 manifests always have one; legacy manifests do not).
fn parse_manifest(text: &str) -> Result<Manifest, StoreError> {
    let mut manifest = Manifest::default();
    let mut consumed = 0usize;
    let mut saw_epoch = false;
    for (lineno, line) in text.lines().enumerate() {
        let raw = line;
        let line = line.trim();
        let bad =
            |what: &str| StoreError::Manifest(format!("line {}: {what} {line:?}", lineno + 1));
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.first().copied() {
            _ if line.is_empty() || line.starts_with('#') => {}
            Some("epoch") if fields.len() == 2 => {
                manifest.epoch = fields[1].parse().map_err(|_| bad("unparseable epoch"))?;
                saw_epoch = true;
            }
            Some("model") if fields.len() == 4 || fields.len() == 5 => {
                let kinds: Vec<IndexKind> = fields[3]
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        IndexKind::parse(s)
                            .ok_or_else(|| StoreError::Manifest(format!("bad index name {s:?}")))
                    })
                    .collect::<Result<_, _>>()?;
                let crc = match fields.get(4) {
                    Some(hex) => Some(
                        u32::from_str_radix(hex, 16).map_err(|_| bad("unparseable file crc"))?,
                    ),
                    None => None,
                };
                manifest
                    .models
                    .push((fields[1].to_string(), fields[2].to_string(), kinds, crc));
            }
            Some("virtual") if fields.len() == 3 => {
                manifest.virtuals.push((
                    fields[1].to_string(),
                    fields[2].split(',').map(|s| s.to_string()).collect(),
                ));
            }
            Some("crc") if fields.len() == 2 => {
                // Must be the final line, and must checksum everything
                // before it.
                let want = u32::from_str_radix(fields[1], 16)
                    .map_err(|_| bad("unparseable manifest crc"))?;
                let got = crc32(&text.as_bytes()[..consumed]);
                if got != want {
                    return Err(StoreError::Corrupt(format!(
                        "manifest checksum mismatch: computed {got:08x}, recorded {want:08x}"
                    )));
                }
                let rest = &text[consumed + raw.len()..];
                if !rest.trim().is_empty() {
                    return Err(StoreError::Corrupt(
                        "manifest has content after its crc line".into(),
                    ));
                }
                return Ok(manifest);
            }
            _ => return Err(bad("unrecognised entry")),
        }
        consumed += raw.len() + 1; // lines() strips exactly one '\n'
    }
    // No crc line: accepted for legacy (pre-epoch) manifests only — an
    // epoch manifest without one was torn mid-write.
    if saw_epoch {
        return Err(StoreError::Corrupt("manifest missing its crc line".into()));
    }
    Ok(manifest)
}

fn render_manifest(snap: &Snapshot, epoch: u64, file_crcs: &[u32]) -> String {
    let mut text = String::new();
    let _ = writeln!(text, "epoch\t{epoch}");
    for (i, name) in snap.model_names().iter().enumerate() {
        let model = snap.model(name).expect("listed model exists");
        let indexes: Vec<String> = model.index_kinds().iter().map(|k| k.to_string()).collect();
        let _ = writeln!(
            text,
            "model\t{name}\tm{i}.e{epoch}.nq\t{}\t{:08x}",
            indexes.join(","),
            file_crcs[i]
        );
    }
    for name in snap.virtual_model_names() {
        let members = snap.virtual_model(&name).expect("listed virtual exists");
        let _ = writeln!(text, "virtual\t{name}\t{}", members.join(","));
    }
    let crc = crc32(text.as_bytes());
    let _ = writeln!(text, "crc\t{crc:08x}");
    text
}

// --- snapshot write ----------------------------------------------------

/// Epochs for which any `manifest.e<E>` file exists in `dir`.
fn existing_epochs(vfs: &dyn Vfs, dir: &Path) -> Vec<u64> {
    let mut epochs: Vec<u64> = vfs
        .list(dir)
        .unwrap_or_default()
        .iter()
        .filter_map(|name| name.strip_prefix("manifest.e")?.parse().ok())
        .collect();
    epochs.sort_unstable();
    epochs
}

/// Writes a complete snapshot of `store` as a fresh epoch, committing it
/// with an atomic rename. Returns the new epoch. Older epochs' files are
/// removed afterwards, best-effort — a crash during cleanup leaves stale
/// files but never an inconsistent store.
pub fn save_snapshot(store: &Store, dir: &Path, vfs: &dyn Vfs) -> Result<u64, StoreError> {
    retry_interrupted(|| vfs.create_dir_all(dir)).map_err(io_err)?;
    let old_epochs = existing_epochs(vfs, dir);
    let epoch = old_epochs.last().copied().unwrap_or(0) + 1;

    // Pin one MVCC generation for the whole save: every model file and
    // the manifest describe the same consistent view even while writers
    // keep publishing.
    let snap = store.snapshot();

    // 1. Model data files, each fsynced before the manifest references it.
    let mut file_crcs = Vec::new();
    for (i, name) in snap.model_names().iter().enumerate() {
        let view = snap.dataset(name)?;
        let quads: Vec<rdf_model::Quad> =
            view.scan_decoded(crate::ids::QuadPattern::any()).collect();
        let bytes = nquads::serialize(&quads).into_bytes();
        file_crcs.push(crc32(&bytes));
        let path = dir.join(format!("m{i}.e{epoch}.nq"));
        retry_interrupted(|| vfs.write(&path, &bytes)).map_err(io_err)?;
        retry_interrupted(|| vfs.sync_file(&path)).map_err(io_err)?;
    }

    // 2. Immutable epoch manifest copy (recovery fallback), then an empty
    //    WAL for the new epoch, both durable before the commit point.
    let text = render_manifest(&snap, epoch, &file_crcs);
    let epoch_manifest = dir.join(epoch_manifest_name(epoch));
    retry_interrupted(|| vfs.write(&epoch_manifest, text.as_bytes())).map_err(io_err)?;
    retry_interrupted(|| vfs.sync_file(&epoch_manifest)).map_err(io_err)?;
    let wal = wal_path(dir, epoch);
    retry_interrupted(|| vfs.write(&wal, b"")).map_err(io_err)?;
    retry_interrupted(|| vfs.sync_file(&wal)).map_err(io_err)?;

    // 3. Commit: write the pointer to a temp file and rename it into
    //    place. Readers either see the old epoch or the new one, never a
    //    half-written manifest.
    let tmp = dir.join(format!("{MANIFEST}.tmp"));
    retry_interrupted(|| vfs.write(&tmp, text.as_bytes())).map_err(io_err)?;
    retry_interrupted(|| vfs.sync_file(&tmp)).map_err(io_err)?;
    retry_interrupted(|| vfs.rename(&tmp, &dir.join(MANIFEST))).map_err(io_err)?;
    retry_interrupted(|| vfs.sync_dir(dir)).map_err(io_err)?;

    // 4. Best-effort cleanup of superseded epochs.
    for old in old_epochs {
        for name in vfs.list(dir).unwrap_or_default() {
            let stale = name.ends_with(&format!(".e{old}.nq"))
                || name == epoch_manifest_name(old)
                || name == format!("wal.e{old}.log");
            if stale {
                let _ = vfs.remove_file(&dir.join(name));
            }
        }
    }
    Ok(epoch)
}

/// Serializes the whole store into `dir` (created if needed) as a fresh
/// atomic snapshot. Existing store files are superseded; unrelated files
/// are left alone.
pub fn save_to_dir(store: &Store, dir: &Path) -> Result<(), StoreError> {
    save_snapshot(store, dir, &RealFs).map(|_| ())
}

// --- snapshot read -----------------------------------------------------

/// Loads the snapshot a manifest describes (without WAL replay).
fn load_snapshot(vfs: &dyn Vfs, dir: &Path, manifest: &Manifest) -> Result<Store, StoreError> {
    let store = Store::new();
    for (name, file, kinds, crc) in &manifest.models {
        store.create_model_with_indexes(name, kinds)?;
        let bytes = retry_interrupted(|| vfs.read(&dir.join(file))).map_err(io_err)?;
        if let Some(want) = crc {
            let got = crc32(&bytes);
            if got != *want {
                return Err(StoreError::Corrupt(format!(
                    "{file}: checksum mismatch: computed {got:08x}, recorded {want:08x}"
                )));
            }
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| StoreError::Corrupt(format!("{file}: not UTF-8")))?;
        crate::bulk::load_nquads(&store, name, &text)?;
    }
    for (name, members) in &manifest.virtuals {
        let refs: Vec<&str> = members.iter().map(|s| s.as_str()).collect();
        store.create_virtual_model(name, &refs)?;
    }
    Ok(store)
}

/// Loads a store previously written by [`save_to_dir`]. Reads the
/// current snapshot only — use [`recover_from_dir`] to also replay the
/// write-ahead log after a crash.
pub fn load_from_dir(dir: &Path) -> Result<Store, StoreError> {
    let vfs = RealFs;
    let bytes = retry_interrupted(|| vfs.read(&dir.join(MANIFEST))).map_err(io_err)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| StoreError::Corrupt("manifest is not UTF-8".into()))?;
    let manifest = parse_manifest(&text)?;
    load_snapshot(&vfs, dir, &manifest)
}

// --- crash recovery ----------------------------------------------------

/// The outcome of [`recover_from_dir`]: the reconstructed store plus
/// what recovery had to do to get there.
#[derive(Debug)]
pub struct Recovered {
    /// The store: newest valid snapshot + replayed WAL tail.
    pub store: Store,
    /// Epoch of the snapshot recovery loaded.
    pub epoch: u64,
    /// Number of WAL records replayed on top of the snapshot.
    pub wal_records: usize,
    /// Byte length of the WAL's valid frame prefix; the file should be
    /// truncated here before appending (DurableStore does this).
    pub wal_valid_len: u64,
    /// Why the WAL was cut short, if it was (torn frame, CRC mismatch).
    pub wal_truncated: Option<String>,
}

/// Recovers a store from `dir` after a crash: loads the newest snapshot
/// whose manifest and data files pass their checksums, then replays its
/// WAL, dropping everything from the first corrupt frame on.
pub fn recover_from_dir(dir: &Path) -> Result<Recovered, StoreError> {
    recover_with(&RealFs, dir)
}

/// [`recover_from_dir`] over an explicit [`Vfs`] (fault-injection tests
/// recover through the same wrapper they crashed).
pub fn recover_with(vfs: &dyn Vfs, dir: &Path) -> Result<Recovered, StoreError> {
    // Candidate manifests, best first: the committed pointer, then epoch
    // copies newest-first (covers a pointer torn by a dying rename, or a
    // snapshot whose data files were lost).
    let mut candidates: Vec<PathBuf> = vec![dir.join(MANIFEST)];
    for epoch in existing_epochs(vfs, dir).into_iter().rev() {
        candidates.push(dir.join(epoch_manifest_name(epoch)));
    }

    let mut last_err = StoreError::Io(format!("no store found in {}", dir.display()));
    for path in candidates {
        if !vfs.exists(&path) {
            continue;
        }
        let attempt = (|| {
            let bytes = retry_interrupted(|| vfs.read(&path)).map_err(io_err)?;
            let text = String::from_utf8(bytes)
                .map_err(|_| StoreError::Corrupt("manifest is not UTF-8".into()))?;
            let manifest = parse_manifest(&text)?;
            let store = load_snapshot(vfs, dir, &manifest)?;
            Ok::<_, StoreError>((store, manifest.epoch))
        })();
        match attempt {
            Ok((store, epoch)) => {
                let (records, valid_len, truncated) = read_wal(vfs, dir, epoch)?;
                let count = records.len();
                for record in records {
                    replay(&store, record)?;
                }
                return Ok(Recovered {
                    store,
                    epoch,
                    wal_records: count,
                    wal_valid_len: valid_len,
                    wal_truncated: truncated,
                });
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

fn read_wal(
    vfs: &dyn Vfs,
    dir: &Path,
    epoch: u64,
) -> Result<(Vec<WalRecord>, u64, Option<String>), StoreError> {
    let path = wal_path(dir, epoch);
    if !vfs.exists(&path) {
        return Ok((Vec::new(), 0, None));
    }
    let bytes = retry_interrupted(|| vfs.read(&path)).map_err(io_err)?;
    let scan = scan_wal(&bytes);
    Ok((scan.records, scan.valid_len, scan.truncated))
}

/// Applies one WAL record to a store. Replay is idempotent: set-semantic
/// DML is naturally so, and DDL that is already in effect (a model that
/// exists, an index already present) is skipped rather than an error, so
/// replaying a WAL twice converges to the same state.
pub fn replay(store: &Store, record: WalRecord) -> Result<(), StoreError> {
    match record {
        WalRecord::Insert { model, quad } => {
            store.insert(&model, &quad)?;
        }
        WalRecord::Remove { model, quad } => {
            store.remove(&model, &quad)?;
        }
        WalRecord::BulkLoad { model, nquads } => {
            crate::bulk::load_nquads(store, &model, &nquads)?;
        }
        WalRecord::CreateModel { model, indexes } => {
            if store.model(&model).is_none() {
                store.create_model_with_indexes(&model, &indexes)?;
            }
        }
        WalRecord::DropModel { model } => match store.drop_model(&model) {
            Ok(()) | Err(StoreError::UnknownModel(_)) => {}
            Err(e) => return Err(e),
        },
        WalRecord::CreateVirtualModel { model, members } => {
            if store.virtual_model(&model).is_none() {
                let refs: Vec<&str> = members.iter().map(|s| s.as_str()).collect();
                store.create_virtual_model(&model, &refs)?;
            }
        }
        WalRecord::CreateIndex { model, kind } => {
            let present = store
                .model(&model)
                .is_some_and(|m| m.index_kinds().contains(&kind));
            if !present {
                store.create_index(&model, kind)?;
            }
        }
        WalRecord::DropIndex { model, kind } => {
            let present = store
                .model(&model)
                .is_some_and(|m| m.index_kinds().contains(&kind));
            if present {
                store.drop_index(&model, kind)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::QuadPattern;
    use rdf_model::{GraphName, Quad, Term};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("quadstore_{name}_{}", std::process::id()))
    }

    fn sample_store() -> Store {
        let store = Store::with_default_indexes(&IndexKind::PAPER_FOUR);
        store.create_model("topology").unwrap();
        store
            .create_model_with_indexes("kv", &[IndexKind::PCSGM])
            .unwrap();
        store
            .insert(
                "topology",
                &Quad::new(
                    Term::iri("http://pg/v1"),
                    Term::iri("http://pg/r/follows"),
                    Term::iri("http://pg/v2"),
                    GraphName::iri("http://pg/e3"),
                )
                .unwrap(),
            )
            .unwrap();
        store
            .insert(
                "kv",
                &Quad::triple(
                    Term::iri("http://pg/v1"),
                    Term::iri("http://pg/k/name"),
                    Term::string("Amy"),
                )
                .unwrap(),
            )
            .unwrap();
        store
            .create_virtual_model("all", &["topology", "kv"])
            .unwrap();
        store
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = sample_store();
        save_to_dir(&store, &dir).unwrap();
        let loaded = load_from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(loaded.model("topology").unwrap().len(), 1);
        assert_eq!(loaded.model("kv").unwrap().len(), 1);
        // Index configurations survive.
        assert_eq!(
            loaded.model("topology").unwrap().index_kinds(),
            IndexKind::PAPER_FOUR
        );
        assert_eq!(
            loaded.model("kv").unwrap().index_kinds(),
            &[IndexKind::PCSGM]
        );
        // Virtual models survive and quads decode identically.
        let view = loaded.dataset("all").unwrap();
        let mut quads: Vec<Quad> = view.scan_decoded(QuadPattern::any()).collect();
        quads.sort();
        let orig_view = store.dataset("all").unwrap();
        let mut orig: Vec<Quad> = orig_view.scan_decoded(QuadPattern::any()).collect();
        orig.sort();
        assert_eq!(quads, orig);
    }

    #[test]
    fn missing_manifest_errors() {
        let dir = tmp("missing");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(load_from_dir(&dir), Err(StoreError::Io(_))));
    }

    #[test]
    fn corrupt_manifest_errors() {
        let dir = tmp("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST), "nonsense entry\n").unwrap();
        let result = load_from_dir(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(result, Err(StoreError::Manifest(_))));
    }

    #[test]
    fn legacy_v1_layout_still_loads() {
        let dir = tmp("legacy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("m0.nq"),
            "<http://pg/v1> <http://pg/k/name> \"Amy\" .\n",
        )
        .unwrap();
        std::fs::write(
            dir.join(MANIFEST),
            "model\tkv\tm0.nq\tPCSGM\nvirtual\tall\tkv\n",
        )
        .unwrap();
        let loaded = load_from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(loaded.model("kv").unwrap().len(), 1);
        assert_eq!(loaded.virtual_model("all").unwrap(), ["kv".to_string()]);
    }

    #[test]
    fn save_supersedes_previous_epoch() {
        let dir = tmp("epochs");
        let _ = std::fs::remove_dir_all(&dir);
        let store = sample_store();
        save_to_dir(&store, &dir).unwrap();
        store
            .insert(
                "kv",
                &Quad::triple(
                    Term::iri("http://pg/v2"),
                    Term::iri("http://pg/k/name"),
                    Term::string("Ben"),
                )
                .unwrap(),
            )
            .unwrap();
        save_to_dir(&store, &dir).unwrap();
        let recovered = recover_from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(recovered.epoch, 2);
        assert_eq!(recovered.store.model("kv").unwrap().len(), 2);
        assert_eq!(recovered.wal_records, 0);
    }

    #[test]
    fn flipped_bit_in_model_file_is_detected() {
        let dir = tmp("bitflip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = sample_store();
        save_to_dir(&store, &dir).unwrap();
        // Corrupt one byte of a model file without touching its length.
        let target = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.to_string_lossy().ends_with(".nq"))
            .expect("a model file");
        let mut bytes = std::fs::read(&target).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&target, bytes).unwrap();
        let result = load_from_dir(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(result, Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn recovery_replays_wal_tail() {
        let dir = tmp("replay");
        let _ = std::fs::remove_dir_all(&dir);
        let store = sample_store();
        let vfs = RealFs;
        let epoch = save_snapshot(&store, &dir, &vfs).unwrap();
        let extra = Quad::triple(
            Term::iri("http://pg/v9"),
            Term::iri("http://pg/k/name"),
            Term::string("Zoe"),
        )
        .unwrap();
        let frame = WalRecord::Insert {
            model: "kv".into(),
            quad: extra.clone(),
        }
        .to_frame();
        vfs.append(&wal_path(&dir, epoch), &frame).unwrap();
        // A torn second frame must be dropped, not fatal.
        let torn = WalRecord::DropModel {
            model: "topology".into(),
        }
        .to_frame();
        vfs.append(&wal_path(&dir, epoch), &torn[..torn.len() - 2])
            .unwrap();

        let recovered = recover_from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(recovered.wal_records, 1);
        assert!(recovered.wal_truncated.is_some());
        assert_eq!(recovered.wal_valid_len, frame.len() as u64);
        assert_eq!(recovered.store.model("kv").unwrap().len(), 2);
        assert!(recovered.store.model("topology").is_some());
    }

    #[test]
    fn recovery_falls_back_to_epoch_manifest_when_pointer_torn() {
        let dir = tmp("fallback");
        let _ = std::fs::remove_dir_all(&dir);
        let store = sample_store();
        save_to_dir(&store, &dir).unwrap();
        // Simulate a crash that tore the pointer mid-write.
        let pointer = dir.join(MANIFEST);
        let bytes = std::fs::read(&pointer).unwrap();
        std::fs::write(&pointer, &bytes[..bytes.len() / 2]).unwrap();
        let recovered = recover_from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(recovered.epoch, 1);
        assert_eq!(recovered.store.model("kv").unwrap().len(), 1);
    }
}
