//! Write-ahead log: append-only, length-prefixed, CRC32-checksummed
//! records for every mutating store operation.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +----------+----------+-----------------+
//! | len: u32 | crc: u32 | payload (len B) |
//! +----------+----------+-----------------+
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload. The reader is tolerant of a
//! torn tail: decoding stops at the first frame whose header is short,
//! whose payload is truncated, or whose CRC mismatches — everything
//! before it is replayed, everything from it on is discarded (the record
//! was never acknowledged, so dropping it is correct).
//!
//! Payloads are a one-byte tag followed by length-prefixed UTF-8 fields;
//! quads travel as single N-Quads statements, reusing the store's
//! interchange syntax rather than inventing a binary term encoding.

use rdf_model::{nquads, Quad};

use crate::error::StoreError;
use crate::index::IndexKind;

/// Maximum accepted payload size (64 MiB): a corrupt length prefix must
/// not trigger a huge allocation.
const MAX_PAYLOAD: u32 = 64 << 20;

// --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320), hand-rolled ------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of a byte slice (the checksum used by zip/png/ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

// --- records -----------------------------------------------------------

/// One logged store mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `Store::insert` of one quad into a model.
    Insert {
        /// Target model name.
        model: String,
        /// The inserted quad.
        quad: Quad,
    },
    /// `Store::remove` of one quad from a model.
    Remove {
        /// Target model name.
        model: String,
        /// The removed quad.
        quad: Quad,
    },
    /// `Store::bulk_load` of a batch, carried as one N-Quads document.
    BulkLoad {
        /// Target model name.
        model: String,
        /// The batch in N-Quads syntax.
        nquads: String,
    },
    /// `Store::create_model_with_indexes`.
    CreateModel {
        /// New model name.
        model: String,
        /// Its index configuration.
        indexes: Vec<IndexKind>,
    },
    /// `Store::drop_model` (of a semantic or virtual model).
    DropModel {
        /// Dropped model name.
        model: String,
    },
    /// `Store::create_virtual_model`.
    CreateVirtualModel {
        /// New virtual model name.
        model: String,
        /// Member model names.
        members: Vec<String>,
    },
    /// `Store::create_index`.
    CreateIndex {
        /// Target model name.
        model: String,
        /// The added index.
        kind: IndexKind,
    },
    /// `Store::drop_index`.
    DropIndex {
        /// Target model name.
        model: String,
        /// The dropped index.
        kind: IndexKind,
    },
}

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_BULK_LOAD: u8 = 3;
const TAG_CREATE_MODEL: u8 = 4;
const TAG_DROP_MODEL: u8 = 5;
const TAG_CREATE_VIRTUAL: u8 = 6;
const TAG_CREATE_INDEX: u8 = 7;
const TAG_DROP_INDEX: u8 = 8;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, StoreError> {
    let corrupt = || StoreError::Corrupt("truncated WAL payload field".into());
    let len_bytes: [u8; 4] = buf
        .get(*pos..*pos + 4)
        .ok_or_else(corrupt)?
        .try_into()
        .expect("4 bytes");
    let len = u32::from_le_bytes(len_bytes) as usize;
    *pos += 4;
    let bytes = buf.get(*pos..*pos + len).ok_or_else(corrupt)?;
    *pos += len;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| StoreError::Corrupt("non-UTF-8 WAL payload field".into()))
}

fn quad_to_line(quad: &Quad) -> String {
    format!("{quad}")
}

fn quad_from_line(line: &str) -> Result<Quad, StoreError> {
    let mut quads =
        nquads::parse(line).map_err(|e| StoreError::Corrupt(format!("WAL quad payload: {e}")))?;
    if quads.len() != 1 {
        return Err(StoreError::Corrupt(format!(
            "WAL quad payload held {} statements, expected 1",
            quads.len()
        )));
    }
    Ok(quads.pop().expect("length checked"))
}

impl WalRecord {
    /// Serializes the record payload (without the frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Insert { model, quad } => {
                out.push(TAG_INSERT);
                put_str(&mut out, model);
                put_str(&mut out, &quad_to_line(quad));
            }
            WalRecord::Remove { model, quad } => {
                out.push(TAG_REMOVE);
                put_str(&mut out, model);
                put_str(&mut out, &quad_to_line(quad));
            }
            WalRecord::BulkLoad { model, nquads } => {
                out.push(TAG_BULK_LOAD);
                put_str(&mut out, model);
                put_str(&mut out, nquads);
            }
            WalRecord::CreateModel { model, indexes } => {
                out.push(TAG_CREATE_MODEL);
                put_str(&mut out, model);
                let kinds: Vec<String> = indexes.iter().map(|k| k.to_string()).collect();
                put_str(&mut out, &kinds.join(","));
            }
            WalRecord::DropModel { model } => {
                out.push(TAG_DROP_MODEL);
                put_str(&mut out, model);
            }
            WalRecord::CreateVirtualModel { model, members } => {
                out.push(TAG_CREATE_VIRTUAL);
                put_str(&mut out, model);
                put_str(&mut out, &members.join(","));
            }
            WalRecord::CreateIndex { model, kind } => {
                out.push(TAG_CREATE_INDEX);
                put_str(&mut out, model);
                put_str(&mut out, &kind.to_string());
            }
            WalRecord::DropIndex { model, kind } => {
                out.push(TAG_DROP_INDEX);
                put_str(&mut out, model);
                put_str(&mut out, &kind.to_string());
            }
        }
        out
    }

    /// Decodes one record payload.
    pub fn decode(buf: &[u8]) -> Result<WalRecord, StoreError> {
        let tag = *buf
            .first()
            .ok_or_else(|| StoreError::Corrupt("empty WAL payload".into()))?;
        let mut pos = 1;
        let parse_kind = |s: &str| {
            IndexKind::parse(s)
                .ok_or_else(|| StoreError::Corrupt(format!("bad index name {s:?} in WAL")))
        };
        let record = match tag {
            TAG_INSERT => {
                let model = get_str(buf, &mut pos)?;
                let quad = quad_from_line(&get_str(buf, &mut pos)?)?;
                WalRecord::Insert { model, quad }
            }
            TAG_REMOVE => {
                let model = get_str(buf, &mut pos)?;
                let quad = quad_from_line(&get_str(buf, &mut pos)?)?;
                WalRecord::Remove { model, quad }
            }
            TAG_BULK_LOAD => {
                let model = get_str(buf, &mut pos)?;
                let nquads = get_str(buf, &mut pos)?;
                WalRecord::BulkLoad { model, nquads }
            }
            TAG_CREATE_MODEL => {
                let model = get_str(buf, &mut pos)?;
                let kinds = get_str(buf, &mut pos)?;
                let indexes = kinds
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(parse_kind)
                    .collect::<Result<_, _>>()?;
                WalRecord::CreateModel { model, indexes }
            }
            TAG_DROP_MODEL => WalRecord::DropModel {
                model: get_str(buf, &mut pos)?,
            },
            TAG_CREATE_VIRTUAL => {
                let model = get_str(buf, &mut pos)?;
                let members = get_str(buf, &mut pos)?;
                WalRecord::CreateVirtualModel {
                    model,
                    members: members.split(',').map(|s| s.to_string()).collect(),
                }
            }
            TAG_CREATE_INDEX => {
                let model = get_str(buf, &mut pos)?;
                let kind = parse_kind(&get_str(buf, &mut pos)?)?;
                WalRecord::CreateIndex { model, kind }
            }
            TAG_DROP_INDEX => {
                let model = get_str(buf, &mut pos)?;
                let kind = parse_kind(&get_str(buf, &mut pos)?)?;
                WalRecord::DropIndex { model, kind }
            }
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unknown WAL record tag {other}"
                )));
            }
        };
        if pos != buf.len() {
            return Err(StoreError::Corrupt(format!(
                "{} trailing bytes after WAL record",
                buf.len() - pos
            )));
        }
        Ok(record)
    }

    /// Serializes the record as a complete WAL frame (header + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }
}

/// The result of scanning a WAL byte stream.
#[derive(Debug)]
pub struct WalScan {
    /// Records decoded from intact frames, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of the valid frame prefix; the file should be truncated
    /// here before further appends.
    pub valid_len: u64,
    /// Why scanning stopped early, if it did (torn frame, CRC mismatch).
    pub truncated: Option<String>,
}

/// Decodes a WAL byte stream, tolerating a torn or corrupt tail: frames
/// after the first invalid one are dropped (they were never
/// acknowledged as durable).
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut truncated = None;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + 8) else {
            truncated = Some(format!("torn frame header at byte {pos}"));
            break;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            truncated = Some(format!("implausible frame length {len} at byte {pos}"));
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            truncated = Some(format!("torn frame payload at byte {pos}"));
            break;
        };
        if crc32(payload) != crc {
            truncated = Some(format!("CRC mismatch at byte {pos}"));
            break;
        }
        match WalRecord::decode(payload) {
            Ok(record) => records.push(record),
            Err(e) => {
                // The CRC matched but the payload is not decodable — this
                // is not a torn write, it is corruption or a version skew;
                // still truncate here rather than replaying garbage.
                truncated = Some(format!("undecodable frame at byte {pos}: {e}"));
                break;
            }
        }
        pos += 8 + len as usize;
    }
    WalScan {
        records,
        valid_len: pos as u64,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::{GraphName, Term};

    fn sample_quad() -> Quad {
        Quad::new(
            Term::iri("http://pg/v1"),
            Term::iri("http://pg/r/follows"),
            Term::string("a \"quoted\"\nvalue"),
            GraphName::iri("http://pg/e1"),
        )
        .unwrap()
    }

    fn all_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateModel {
                model: "m".into(),
                indexes: vec![IndexKind::PCSGM, IndexKind::PSCGM],
            },
            WalRecord::Insert {
                model: "m".into(),
                quad: sample_quad(),
            },
            WalRecord::Remove {
                model: "m".into(),
                quad: sample_quad(),
            },
            WalRecord::BulkLoad {
                model: "m".into(),
                nquads: "<http://s> <http://p> <http://o> .\n".into(),
            },
            WalRecord::CreateVirtualModel {
                model: "v".into(),
                members: vec!["m".into(), "m2".into()],
            },
            WalRecord::CreateIndex {
                model: "m".into(),
                kind: IndexKind::GPSCM,
            },
            WalRecord::DropIndex {
                model: "m".into(),
                kind: IndexKind::GPSCM,
            },
            WalRecord::DropModel { model: "v".into() },
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip_via_frames() {
        let mut stream = Vec::new();
        for record in all_records() {
            stream.extend_from_slice(&record.to_frame());
        }
        let scan = scan_wal(&stream);
        assert!(scan.truncated.is_none());
        assert_eq!(scan.valid_len, stream.len() as u64);
        assert_eq!(scan.records, all_records());
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let good = WalRecord::DropModel { model: "m".into() }.to_frame();
        let torn = WalRecord::Insert {
            model: "m".into(),
            quad: sample_quad(),
        }
        .to_frame();
        for cut in 1..torn.len() {
            let mut stream = good.clone();
            stream.extend_from_slice(&torn[..cut]);
            let scan = scan_wal(&stream);
            assert_eq!(scan.records.len(), 1, "cut {cut}");
            assert_eq!(scan.valid_len, good.len() as u64, "cut {cut}");
            assert!(scan.truncated.is_some(), "cut {cut}");
        }
    }

    #[test]
    fn bit_flip_in_payload_is_detected() {
        let mut stream = WalRecord::DropModel {
            model: "model".into(),
        }
        .to_frame();
        let last = stream.len() - 1;
        stream[last] ^= 0x01;
        let scan = scan_wal(&stream);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.truncated.expect("truncated").contains("CRC"));
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        let scan = scan_wal(&stream);
        assert!(scan.records.is_empty());
        assert!(scan.truncated.expect("truncated").contains("implausible"));
    }
}
