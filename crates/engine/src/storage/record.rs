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
//! A record is one mutation [`Request`]: the tag is its kind's WAL tag
//! ([`WAL_TAGS`]) and the body is `Request::encode_body`'s, the bytes a
//! submit frame carries behind its own tag. The codec's primitives —
//! little-endian integers, `f64`s by IEEE-754 bit pattern — make a
//! replayed mutation **bit-identical** to the one that was logged,
//! exactly like a wire round trip. The CRC covers the payload; the magic
//! and length let a scanner resynchronise its trust: any violation (bad
//! magic, impossible length, short payload, CRC mismatch) marks the spot
//! where the last crash tore the log, and everything before it is the
//! longest valid prefix.

use crate::request::{Request, RequestKind};
use wqrtq_codec::{crc32, ByteReader, ByteWriter, DecodeError};

/// Per-record magic preamble (`WQRW` — WQRTQ WAL record).
pub const RECORD_MAGIC: [u8; 4] = *b"WQRW";

/// Bytes of header before the payload: magic + length + CRC.
pub const RECORD_HEADER_LEN: usize = 12;

/// Upper bound on one record's payload (1 GiB). A length field beyond
/// this is treated as torn-tail corruption rather than trusted, and
/// [`super::Durability::log`] refuses to write a larger record in the
/// first place.
pub const MAX_WAL_RECORD_LEN: usize = 1 << 30;

/// The WAL's tag byte of each mutation kind — the log's own numbering,
/// older than the wire's [`crate::REQUEST_KIND_TABLE`] tags and, like
/// them, never renumbered. A CRC-valid record carrying any other tag is
/// corrupt.
pub const WAL_TAGS: [(RequestKind, u8); 5] = [
    (RequestKind::Register, 1),
    (RequestKind::Append, 2),
    (RequestKind::Delete, 3),
    (RequestKind::RegisterWeights, 4),
    (RequestKind::Compact, 5),
];

/// Encodes `request` under `lsn` into a complete framed unit (header +
/// payload), ready to append to the log; `None` for a kind the log does
/// not carry (no mutation).
pub fn encode(lsn: u64, request: &Request) -> Option<Vec<u8>> {
    let kind = request.kind();
    let &(_, tag) = WAL_TAGS.iter().find(|(k, _)| *k == kind)?;
    let mut w = ByteWriter::new();
    w.put_u64(lsn);
    w.put_u8(tag);
    request.encode_body(&mut w);
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
    Some(framed)
}

/// Decodes one CRC-verified payload into `(lsn, request)`.
///
/// # Errors
/// [`DecodeError`] on a structurally malformed payload or a tag outside
/// [`WAL_TAGS`] — the bytes passed their CRC, so this is not a torn
/// write but genuine corruption (or a version the reader does not
/// speak).
pub fn decode_payload(payload: &[u8]) -> Result<(u64, Request), DecodeError> {
    let mut r = ByteReader::new(payload);
    let lsn = r.take_u64("wal lsn")?;
    let tag = r.take_u8("wal record tag")?;
    let &(kind, _) = WAL_TAGS
        .iter()
        .find(|(_, t)| *t == tag)
        .ok_or(DecodeError::new("unknown wal record tag"))?;
    let request = Request::decode_body(kind, &mut r)?;
    r.finish()?;
    Ok((lsn, request))
}

/// The result of scanning a WAL image from its first byte.
#[derive(Debug)]
pub struct WalReadout {
    /// Every structurally valid record, in log order, with its LSN.
    pub records: Vec<(u64, Request)>,
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

    fn sample_records() -> Vec<(u64, Request)> {
        vec![
            (
                1,
                Request::Register {
                    dataset: "p".into(),
                    dim: 2,
                    coords: vec![0.25, -0.0, 1.5, 2.0f64.powi(-1074)],
                },
            ),
            (
                2,
                Request::Append {
                    dataset: "p".into(),
                    points: vec![0.5, 0.5],
                },
            ),
            (
                3,
                Request::Delete {
                    dataset: "p".into(),
                    ids: vec![1, 4],
                },
            ),
            (
                4,
                Request::RegisterWeights {
                    name: "cust".into(),
                    weights: vec![vec![0.5, 0.5], vec![0.9, 0.1]],
                },
            ),
            (
                5,
                Request::Compact {
                    dataset: "p".into(),
                },
            ),
        ]
    }

    fn framed(lsn: u64, request: &Request) -> Vec<u8> {
        encode(lsn, request).expect("a mutation")
    }

    fn encode_all(records: &[(u64, Request)]) -> Vec<u8> {
        let mut image = Vec::new();
        for (lsn, rec) in records {
            image.extend_from_slice(&framed(*lsn, rec));
        }
        image
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let records = sample_records();
        let image = encode_all(&records);
        let readout = scan_wal(&image).unwrap();
        assert!(!readout.torn);
        assert_eq!(readout.valid_len, image.len() as u64);
        assert_eq!(readout.records, records);
        // Bit-identity of the floats, not just PartialEq.
        if let Request::Register { coords, .. } = &readout.records[0].1 {
            assert_eq!(coords[1].to_bits(), (-0.0f64).to_bits());
            assert_eq!(coords[3].to_bits(), 2.0f64.powi(-1074).to_bits());
        } else {
            panic!("first record must be the registration");
        }
    }

    #[test]
    fn every_truncation_offset_recovers_the_longest_valid_prefix() {
        let records: Vec<(u64, Request)> = sample_records()
            .into_iter()
            .filter(|(_, r)| !matches!(r, Request::RegisterWeights { .. }))
            .collect();
        let image = encode_all(&records);
        // Record end offsets, for computing the expected prefix.
        let mut ends = Vec::new();
        let mut pos = 0;
        for (lsn, rec) in &records {
            pos += framed(*lsn, rec).len();
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
        let append = |points: Vec<f64>| Request::Append {
            dataset: "p".into(),
            points,
        };
        let records = vec![(1, append(vec![1.0, 2.0])), (2, append(vec![3.0, 4.0]))];
        let image = encode_all(&records);
        let first_len = framed(1, &records[0].1).len();
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
            Request::Append {
                dataset: "p".into(),
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
        // silently dropped tail. The wire's own tags (a registration is
        // 10 there) are unknown to the log too.
        for tag in [0, 6, 7, 10, 11, 12, 99] {
            let mut payload = Vec::new();
            payload.extend_from_slice(&7u64.to_le_bytes());
            payload.push(tag);
            payload.extend_from_slice(&1u64.to_le_bytes());
            payload.push(b'p');
            let mut image = Vec::new();
            image.extend_from_slice(&RECORD_MAGIC);
            image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            image.extend_from_slice(&crc32::checksum(&payload).to_le_bytes());
            image.extend_from_slice(&payload);
            assert!(scan_wal(&image).is_err(), "tag {tag}");
        }
        // A query request is no record at all.
        assert!(encode(1, &Request::Stats).is_none());
    }
}
