//! WAL record format: the wire codec's framing discipline applied to
//! disk.
//!
//! Each record is one self-delimiting unit:
//!
//! ```text
//! +----------+-----------+-----------+------------------------+
//! | "WQRW"   | len: u32  | crc: u32  | payload (len bytes)    |
//! | 4 bytes  | LE        | LE        | lsn u64, tag u8, body  |
//! +----------+-----------+-----------+------------------------+
//! ```
//!
//! The payload reuses [`wqrtq_codec`]'s primitives — little-endian
//! integers, `f64`s by IEEE-754 bit pattern — so a replayed mutation is
//! **bit-identical** to the one that was logged, exactly like a wire
//! round trip. The CRC covers the payload; the magic and length let a
//! scanner resynchronise its trust: any violation (bad magic, impossible
//! length, short payload, CRC mismatch) marks the spot where the last
//! crash tore the log, and everything before it is the longest valid
//! prefix.

use wqrtq_codec::{crc32, ByteReader, ByteWriter, DecodeError};
use wqrtq_geom::Weight;

/// Per-record magic preamble (`WQRW` — WQRTQ WAL record).
pub const RECORD_MAGIC: [u8; 4] = *b"WQRW";

/// Bytes of header before the payload: magic + length + CRC.
pub const RECORD_HEADER_LEN: usize = 12;

/// Upper bound on one record's payload (1 GiB). A length field beyond
/// this is treated as torn-tail corruption rather than trusted, and
/// [`super::Durability::log`] refuses to write a larger record in the
/// first place.
pub const MAX_WAL_RECORD_LEN: usize = 1 << 30;

/// One durable mutation, as read back from the log (owned — the replay
/// path feeds these through the normal catalog mutation methods).
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Dataset registration (or replacement): a fresh base.
    Register {
        /// Dataset name.
        name: String,
        /// Dimensionality.
        dim: u64,
        /// Flat row-major base coordinates.
        coords: Vec<f64>,
    },
    /// Rows appended to the delta memtable.
    Append {
        /// Dataset name.
        name: String,
        /// Flat row-major appended coordinates.
        points: Vec<f64>,
    },
    /// Points deleted by id. Ids are stable within a base generation; a
    /// compaction renumbers them in canonical order, and replay sees the
    /// `Compact` record that did.
    Delete {
        /// Dataset name.
        name: String,
        /// The deleted ids, in request order.
        ids: Vec<u32>,
    },
    /// An immutable weight population registration.
    RegisterWeights {
        /// Population name.
        name: String,
        /// One weighting vector per customer.
        weights: Vec<Vec<f64>>,
    },
    /// An installed compaction: base + delta − tombstones merged into a
    /// fresh base in canonical order. The merge is deterministic, so the
    /// record carries no data — replay recomputes it.
    Compact {
        /// Dataset name.
        name: String,
    },
}

/// A borrowed view of a mutation about to be logged — encoding borrows
/// the catalog's own buffers, so logging a million-row append copies the
/// rows into the record bytes exactly once (no intermediate owned
/// `WalRecord`).
#[derive(Clone, Copy, Debug)]
pub enum WalRecordRef<'a> {
    /// See [`WalRecord::Register`].
    Register {
        /// Dataset name.
        name: &'a str,
        /// Dimensionality.
        dim: u64,
        /// Flat row-major base coordinates.
        coords: &'a [f64],
    },
    /// See [`WalRecord::Append`].
    Append {
        /// Dataset name.
        name: &'a str,
        /// Flat row-major appended coordinates.
        points: &'a [f64],
    },
    /// See [`WalRecord::Delete`].
    Delete {
        /// Dataset name.
        name: &'a str,
        /// The deleted ids, in request order.
        ids: &'a [u32],
    },
    /// See [`WalRecord::RegisterWeights`].
    RegisterWeights {
        /// Population name.
        name: &'a str,
        /// One weighting vector per customer.
        weights: &'a [Weight],
    },
    /// See [`WalRecord::Compact`].
    Compact {
        /// Dataset name.
        name: &'a str,
    },
}

const TAG_REGISTER: u8 = 1;
const TAG_APPEND: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_REGISTER_WEIGHTS: u8 = 4;
const TAG_COMPACT: u8 = 5;

impl WalRecordRef<'_> {
    /// Encodes the record under `lsn` into a complete framed unit
    /// (header + payload), ready to append to the log.
    pub fn encode(&self, lsn: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(lsn);
        match *self {
            WalRecordRef::Register { name, dim, coords } => {
                w.put_u8(TAG_REGISTER);
                w.put_str(name);
                w.put_u64(dim);
                w.put_f64s(coords);
            }
            WalRecordRef::Append { name, points } => {
                w.put_u8(TAG_APPEND);
                w.put_str(name);
                w.put_f64s(points);
            }
            WalRecordRef::Delete { name, ids } => {
                w.put_u8(TAG_DELETE);
                w.put_str(name);
                w.put_usize(ids.len());
                for &id in ids {
                    w.put_u64(u64::from(id));
                }
            }
            WalRecordRef::RegisterWeights { name, weights } => {
                w.put_u8(TAG_REGISTER_WEIGHTS);
                w.put_str(name);
                w.put_usize(weights.len());
                for weight in weights {
                    w.put_f64s(weight.as_slice());
                }
            }
            WalRecordRef::Compact { name } => {
                w.put_u8(TAG_COMPACT);
                w.put_str(name);
            }
        }
        let payload = w.into_vec();
        let mut framed = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        framed.extend_from_slice(&RECORD_MAGIC);
        // lint: allow(narrowing-cast) — any record that reaches the WAL
        // passed the `MAX_WAL_RECORD_LEN` (1 GiB) check in
        // `Durability::log`, so the length fits in u32; an oversized
        // encode is rejected there before these bytes are written.
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32::checksum(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        framed
    }
}

/// Decodes one CRC-verified payload into `(lsn, record)`.
///
/// # Errors
/// [`DecodeError`] on a structurally malformed payload — the bytes
/// passed their CRC, so this is not a torn write but genuine corruption
/// (or a version the reader does not speak).
pub fn decode_payload(payload: &[u8]) -> Result<(u64, WalRecord), DecodeError> {
    let mut r = ByteReader::new(payload);
    let lsn = r.take_u64("wal lsn")?;
    let tag = r.take_u8("wal record tag")?;
    let record = match tag {
        TAG_REGISTER => WalRecord::Register {
            name: r.take_str("wal register name")?,
            dim: r.take_u64("wal register dim")?,
            coords: r.take_f64s("wal register coords")?,
        },
        TAG_APPEND => WalRecord::Append {
            name: r.take_str("wal append name")?,
            points: r.take_f64s("wal append points")?,
        },
        TAG_DELETE => {
            let name = r.take_str("wal delete name")?;
            let n = r.take_count(8, "wal delete id count")?;
            let ids = (0..n)
                .map(|_| {
                    let id = r.take_u64("wal delete id")?;
                    u32::try_from(id).map_err(|_| DecodeError::new("wal delete id exceeds u32"))
                })
                .collect::<Result<Vec<u32>, DecodeError>>()?;
            WalRecord::Delete { name, ids }
        }
        TAG_REGISTER_WEIGHTS => {
            let name = r.take_str("wal weights name")?;
            let n = r.take_count(8, "wal weight count")?;
            let weights = (0..n)
                .map(|_| r.take_f64s("wal weight vector"))
                .collect::<Result<Vec<Vec<f64>>, DecodeError>>()?;
            WalRecord::RegisterWeights { name, weights }
        }
        TAG_COMPACT => WalRecord::Compact {
            name: r.take_str("wal compact name")?,
        },
        _ => return Err(DecodeError::new("unknown wal record tag")),
    };
    r.finish()?;
    Ok((lsn, record))
}

/// The result of scanning a WAL image from its first byte.
#[derive(Debug)]
pub struct WalReadout {
    /// Every structurally valid record, in log order, with its LSN.
    pub records: Vec<(u64, WalRecord)>,
    /// Bytes of the longest valid prefix — where appending may resume
    /// after truncating a torn tail.
    pub valid_len: u64,
    /// Whether the scan stopped before the end of the image (a torn
    /// tail: short header, bad magic, impossible length, short payload,
    /// or CRC mismatch). The tail bytes are unrecoverable by design —
    /// the crash interrupted their write before any acknowledgement.
    pub torn: bool,
}

/// Scans a WAL image, collecting the longest valid prefix of records.
///
/// Torn-write damage (anything the framing or CRC rejects) ends the scan
/// with `torn = true` — never an error, because an append interrupted by
/// a crash is the expected failure mode. A payload that *passes* its CRC
/// but does not decode is different: the record was written that way, so
/// the log is corrupt and the scan fails with [`DecodeError`].
///
/// # Errors
/// [`DecodeError`] on a CRC-valid but undecodable payload.
pub fn scan_wal(image: &[u8]) -> Result<WalReadout, DecodeError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut torn = false;
    while pos < image.len() {
        // lint: allow(no-panic) — loop guard: `pos < image.len()`, and
        // `pos` only advances by fully-validated record lengths.
        let rest = &image[pos..];
        // lint: allow(no-panic) — short-circuit: `rest[..4]` is reached
        // only after `rest.len() >= RECORD_HEADER_LEN` (= 12) holds.
        if rest.len() < RECORD_HEADER_LEN || rest[..4] != RECORD_MAGIC {
            torn = true;
            break;
        }
        // lint: allow(no-panic) — header bytes 4..12 are in bounds: the
        // check above guarantees `rest.len() >= RECORD_HEADER_LEN` (12).
        let len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]) as usize;
        // lint: allow(no-panic) — same bound as the line above.
        let crc = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
        if len > MAX_WAL_RECORD_LEN || rest.len() < RECORD_HEADER_LEN + len {
            torn = true;
            break;
        }
        // lint: allow(no-panic) — the torn-write check above guarantees
        // `rest.len() >= RECORD_HEADER_LEN + len`.
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if crc32::checksum(payload) != crc {
            torn = true;
            break;
        }
        records.push(decode_payload(payload)?);
        pos += RECORD_HEADER_LEN + len;
    }
    Ok(WalReadout {
        records,
        valid_len: pos as u64,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<(u64, WalRecord)> {
        vec![
            (
                1,
                WalRecord::Register {
                    name: "p".into(),
                    dim: 2,
                    coords: vec![0.25, -0.0, 1.5, 2.0f64.powi(-1074)],
                },
            ),
            (
                2,
                WalRecord::Append {
                    name: "p".into(),
                    points: vec![0.5, 0.5],
                },
            ),
            (
                3,
                WalRecord::Delete {
                    name: "p".into(),
                    ids: vec![1, 4],
                },
            ),
            (
                4,
                WalRecord::RegisterWeights {
                    name: "cust".into(),
                    weights: vec![vec![0.5, 0.5], vec![0.9, 0.1]],
                },
            ),
            (5, WalRecord::Compact { name: "p".into() }),
        ]
    }

    fn encode_all(records: &[(u64, WalRecord)]) -> Vec<u8> {
        let mut image = Vec::new();
        for (lsn, rec) in records {
            image.extend_from_slice(&as_ref(rec).encode(*lsn));
        }
        image
    }

    fn as_ref(rec: &WalRecord) -> WalRecordRef<'_> {
        match rec {
            WalRecord::Register { name, dim, coords } => WalRecordRef::Register {
                name,
                dim: *dim,
                coords,
            },
            WalRecord::Append { name, points } => WalRecordRef::Append { name, points },
            WalRecord::Delete { name, ids } => WalRecordRef::Delete { name, ids },
            WalRecord::RegisterWeights { name, weights } => {
                // Tests only: round through Weight for the borrow shape.
                unreachable!("weights variant exercised via encode_weights, got {name} {weights:?}")
            }
            WalRecord::Compact { name } => WalRecordRef::Compact { name },
        }
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let records = sample_records();
        let mut image = Vec::new();
        for (lsn, rec) in &records {
            let framed = match rec {
                WalRecord::RegisterWeights { name, weights } => {
                    let ws: Vec<Weight> = weights.iter().map(|w| Weight::new(w.clone())).collect();
                    WalRecordRef::RegisterWeights { name, weights: &ws }.encode(*lsn)
                }
                other => as_ref(other).encode(*lsn),
            };
            image.extend_from_slice(&framed);
        }
        let readout = scan_wal(&image).unwrap();
        assert!(!readout.torn);
        assert_eq!(readout.valid_len, image.len() as u64);
        assert_eq!(readout.records, records);
        // Bit-identity of the floats, not just PartialEq.
        if let WalRecord::Register { coords, .. } = &readout.records[0].1 {
            assert_eq!(coords[1].to_bits(), (-0.0f64).to_bits());
            assert_eq!(coords[3].to_bits(), 2.0f64.powi(-1074).to_bits());
        } else {
            panic!("first record must be the registration");
        }
    }

    #[test]
    fn every_truncation_offset_recovers_the_longest_valid_prefix() {
        let records: Vec<(u64, WalRecord)> = sample_records()
            .into_iter()
            .filter(|(_, r)| !matches!(r, WalRecord::RegisterWeights { .. }))
            .collect();
        let image = encode_all(&records);
        // Record end offsets, for computing the expected prefix.
        let mut ends = Vec::new();
        let mut pos = 0;
        for (lsn, rec) in &records {
            pos += as_ref(rec).encode(*lsn).len();
            ends.push(pos);
        }
        for cut in 0..=image.len() {
            let readout = scan_wal(&image[..cut]).expect("truncation never errors");
            let expected = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(readout.records.len(), expected, "cut {cut}");
            assert_eq!(
                readout.valid_len,
                ends[..expected].last().copied().unwrap_or(0) as u64,
                "cut {cut}"
            );
            assert_eq!(
                readout.torn,
                cut != ends[..expected].last().copied().unwrap_or(0)
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_a_torn_tail_not_garbage() {
        let records = vec![
            (
                1,
                WalRecord::Append {
                    name: "p".into(),
                    points: vec![1.0, 2.0],
                },
            ),
            (
                2,
                WalRecord::Append {
                    name: "p".into(),
                    points: vec![3.0, 4.0],
                },
            ),
        ];
        let image = encode_all(&records);
        let first_len = as_ref(&records[0].1).encode(1).len();
        // Flip a byte inside the second record's payload: the first
        // record must survive, the second must be rejected by its CRC.
        let mut bad = image.clone();
        let idx = first_len + RECORD_HEADER_LEN + 3;
        bad[idx] ^= 0x40;
        let readout = scan_wal(&bad).unwrap();
        assert!(readout.torn);
        assert_eq!(readout.records.len(), 1);
        assert_eq!(readout.valid_len, first_len as u64);
    }

    #[test]
    fn oversized_length_field_is_torn_not_trusted() {
        let mut image = encode_all(&[(
            1,
            WalRecord::Append {
                name: "p".into(),
                points: vec![1.0],
            },
        )]);
        // Corrupt the length field to an absurd value.
        image[4..8].copy_from_slice(&(u32::MAX).to_le_bytes());
        let readout = scan_wal(&image).unwrap();
        assert!(readout.torn);
        assert!(readout.records.is_empty());
        assert_eq!(readout.valid_len, 0);
    }

    #[test]
    fn crc_valid_garbage_payload_is_a_typed_decode_error() {
        // Hand-frame a payload with an unknown tag but a correct CRC:
        // this was *written* malformed, so it must be an error, not a
        // silently dropped tail.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(99); // no such tag
        let mut image = Vec::new();
        image.extend_from_slice(&RECORD_MAGIC);
        image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        image.extend_from_slice(&crc32::checksum(&payload).to_le_bytes());
        image.extend_from_slice(&payload);
        assert!(scan_wal(&image).is_err());
    }
}
