#![warn(missing_docs)]

//! # WQRTQ codec — length-prefixed binary framing and byte primitives
//!
//! The one vocabulary both the wire protocol (`wqrtq-server`) and the
//! durability layer (`wqrtq-engine`'s WAL + snapshots) speak: a
//! **frame** is a little-endian `u32` payload length followed by exactly
//! that many payload bytes, and payloads are built from fixed-width
//! little-endian integers, `f64`s by IEEE-754 bit pattern (so values
//! survive the round trip **bit-identically**), and length-prefixed
//! strings and float vectors.
//!
//! The length prefix is checked against a maximum before a single
//! payload byte is read, so a hostile or corrupt length can neither
//! allocate unbounded memory nor desynchronise the stream silently, and
//! every [`ByteReader::take_str`]-style accessor validates the claimed
//! length against the bytes that actually remain before allocating, so
//! a truncated or malicious payload fails with a typed [`DecodeError`]
//! instead of aborting on an impossible `Vec::with_capacity`.
//!
//! [`crc32`] adds the integrity half the on-disk formats need on top of
//! framing: TCP already checksums the wire, but a log record read back
//! from disk after a crash has no transport vouching for it.

use std::fmt;
use std::io::{self, ErrorKind, Read, Write};

pub mod crc32;

/// Framing-layer failures.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// A frame announced a payload larger than the negotiated maximum.
    Oversized {
        /// Announced payload length.
        len: usize,
        /// Maximum this endpoint accepts.
        max: usize,
    },
    /// The stream ended in the middle of a frame (abrupt disconnect).
    Truncated,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload). The caller flushes.
///
/// # Errors
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame's payload into `buf` (cleared and reused across
/// calls). Returns `Ok(false)` on a clean end-of-stream *at a frame
/// boundary* — the peer closed or half-closed after a complete frame,
/// the normal end of a session.
///
/// # Errors
/// [`FrameError::Oversized`] before any payload byte is read when the
/// prefix exceeds `max_len`; [`FrameError::Truncated`] when the stream
/// dies mid-frame; [`FrameError::Io`] on transport failure.
pub fn read_frame(
    r: &mut impl Read,
    max_len: usize,
    buf: &mut Vec<u8>,
) -> Result<bool, FrameError> {
    let mut prefix = [0u8; 4];
    if !read_exact_or_clean_eof(r, &mut prefix)? {
        return Ok(false);
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    buf.clear();
    buf.resize(len, 0);
    match r.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e)),
    }
}

/// Splits the next complete frame off the front of a receive buffer
/// without copying: returns `Ok(Some((consumed, payload_range)))` when
/// `buf` starts with a whole frame (`consumed` = prefix + payload bytes,
/// `payload_range` indexes the payload inside `buf`), `Ok(None)` when
/// more bytes are needed. This is the nonblocking twin of
/// [`read_frame`]: the event-loop server reads a burst into a reusable
/// arena and decodes every complete frame in place.
///
/// # Errors
/// [`FrameError::Oversized`] as soon as the 4-byte prefix announces a
/// payload beyond `max_len` — before waiting for (or buffering) any of
/// that payload.
pub fn split_frame(
    buf: &[u8],
    max_len: usize,
) -> Result<Option<(usize, std::ops::Range<usize>)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((4 + len, 4..4 + len)))
}

/// Like `read_exact`, but distinguishes "no bytes at all" (clean EOF,
/// returns `Ok(false)`) from "some bytes then EOF" (truncation).
pub fn read_exact_or_clean_eof(r: &mut impl Read, out: &mut [u8]) -> Result<bool, FrameError> {
    let mut filled = 0;
    while filled < out.len() {
        match r.read(&mut out[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

/// A payload could not be decoded into a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    what: &'static str,
}

impl DecodeError {
    /// A decode failure naming the field (or structure) that broke.
    pub fn new(what: &'static str) -> Self {
        Self { what }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame: {}", self.what)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only payload builder (little-endian integers, `f64` by bit
/// pattern, length-prefixed strings and vectors).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    /// Made by [`ByteWriter::framed`]: `buf` starts with the reserved
    /// length prefix.
    framed: bool,
}

impl ByteWriter {
    /// An empty payload.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty payload behind a reserved `u32` length prefix, which
    /// [`ByteWriter::into_frame`] fills in: a whole frame built in one
    /// buffer, without copying the payload.
    pub fn framed() -> Self {
        Self {
            buf: vec![0; 4],
            framed: true,
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by IEEE-754 bit pattern (lossless round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` vector.
    pub fn put_f64s(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// The payload written so far (after the length prefix, if any).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.prefix_len()..]
    }

    /// Empties the payload, keeping the buffer for the next one.
    pub fn clear(&mut self) {
        self.buf.truncate(self.prefix_len());
    }

    fn prefix_len(&self) -> usize {
        if self.framed {
            4
        } else {
            0
        }
    }

    /// The finished payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The finished frame of a [`ByteWriter::framed`] writer: the bytes
    /// [`write_frame`] puts on the stream for the same payload.
    ///
    /// # Panics
    /// Panics if the writer was not made by [`ByteWriter::framed`], or if
    /// the payload exceeds `u32::MAX` bytes.
    pub fn into_frame(mut self) -> Vec<u8> {
        assert!(
            self.framed,
            "into_frame on a writer without a length prefix"
        );
        let len = u32::try_from(self.buf.len() - 4).expect("frame payload exceeds u32");
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }
}

/// Checked sequential reader over a frame payload.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reads `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::new(what));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn take_usize(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        usize::try_from(self.take_u64(what)?).map_err(|_| DecodeError::new(what))
    }

    /// Reads an `f64` by bit pattern.
    pub fn take_f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.take_u64(what)?))
    }

    /// Reads a length-prefixed UTF-8 string. The claimed length is
    /// validated against the remaining payload before any allocation.
    pub fn take_str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let len = self.take_usize(what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new(what))
    }

    /// Reads a length-prefixed `f64` vector, validating the claimed
    /// element count against the remaining payload before allocating.
    pub fn take_f64s(&mut self, what: &'static str) -> Result<Vec<f64>, DecodeError> {
        let len = self.take_usize(what)?;
        if len > self.remaining() / 8 {
            return Err(DecodeError::new(what));
        }
        (0..len).map(|_| self.take_f64(what)).collect()
    }

    /// Reads a length-prefixed count for a collection whose elements
    /// occupy at least `min_elem_bytes` each, rejecting counts that
    /// cannot fit in the remaining payload.
    pub fn take_count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let len = self.take_usize(what)?;
        if len > self.remaining() / min_elem_bytes.max(1) {
            return Err(DecodeError::new(what));
        }
        Ok(len)
    }

    /// Asserts the payload is fully consumed (trailing garbage is a
    /// protocol violation, not silently ignored).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::new("trailing bytes after message"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, 1024, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut r, 1024, &mut buf).unwrap());
        assert!(buf.is_empty());
        assert!(!read_frame(&mut r, 1024, &mut buf).unwrap());
    }

    #[test]
    fn a_framed_writer_builds_the_frame_write_frame_writes() {
        for payload in [&b""[..], b"hello", &[7u8; 300]] {
            let mut w = ByteWriter::framed();
            for &byte in payload {
                w.put_u8(byte);
            }
            let mut wire = Vec::new();
            write_frame(&mut wire, payload).unwrap();
            assert_eq!(w.into_frame(), wire);
        }
    }

    #[test]
    fn a_cleared_writer_reads_back_only_its_next_payload() {
        for mut w in [ByteWriter::new(), ByteWriter::framed()] {
            w.put_str("stale");
            w.clear();
            w.put_u8(9);
            assert_eq!(w.as_slice(), [9]);
        }
        let mut w = ByteWriter::framed();
        w.put_u8(1);
        w.clear();
        w.put_u8(2);
        assert_eq!(w.into_frame(), [1, 0, 0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "without a length prefix")]
    fn a_plain_writer_refuses_to_become_a_frame() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        let _ = w.into_frame();
    }

    #[test]
    fn oversized_prefix_is_rejected_before_reading_payload() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut buf = Vec::new();
        match read_frame(&mut Cursor::new(wire), 64, &mut buf) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 64);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_detected() {
        // Prefix promises 10 bytes, stream holds 3.
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut Cursor::new(wire), 64, &mut buf),
            Err(FrameError::Truncated)
        ));
        // Stream dies inside the prefix itself.
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut Cursor::new(vec![1u8, 0]), 64, &mut buf),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn split_frame_extracts_whole_frames_and_waits_for_partials() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        // Whole first frame available.
        let (consumed, payload) = split_frame(&wire, 1024).unwrap().unwrap();
        assert_eq!(consumed, 9);
        assert_eq!(&wire[payload], b"hello");
        // Empty frame right behind it.
        let (consumed2, payload2) = split_frame(&wire[consumed..], 1024).unwrap().unwrap();
        assert_eq!(consumed2, 4);
        assert!(payload2.is_empty());
        // Every strict prefix of a frame is "need more bytes", never an
        // error — partial reads must park, not kill the connection.
        for cut in 0..wire.len().min(8) {
            assert!(
                split_frame(&wire[..cut], 1024).unwrap().is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn split_frame_rejects_oversized_prefix_without_buffering_payload() {
        let wire = (u32::MAX).to_le_bytes();
        assert!(matches!(
            split_frame(&wire, 64),
            Err(FrameError::Oversized { len, max: 64 }) if len == u32::MAX as usize
        ));
    }

    #[test]
    fn byte_codec_roundtrip_preserves_f64_bits() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_str("catalog");
        w.put_f64s(&[1.5, f64::MIN_POSITIVE, 2.0f64.powi(-1074)]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.take_u8("a").unwrap(), 7);
        assert_eq!(r.take_u64("b").unwrap(), u64::MAX);
        assert_eq!(r.take_f64("c").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_str("d").unwrap(), "catalog");
        let xs = r.take_f64s("e").unwrap();
        assert_eq!(xs[2].to_bits(), 2.0f64.powi(-1074).to_bits());
        r.finish().unwrap();
    }

    #[test]
    fn hostile_lengths_cannot_force_allocation() {
        // A tiny payload claiming a billion floats must fail cleanly.
        let mut w = ByteWriter::new();
        w.put_u64(1_000_000_000);
        let buf = w.into_vec();
        assert!(ByteReader::new(&buf).take_f64s("floats").is_err());
        assert!(ByteReader::new(&buf).take_str("string").is_err());
        assert!(ByteReader::new(&buf).take_count(8, "rows").is_err());
    }

    #[test]
    fn trailing_bytes_are_a_protocol_violation() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        r.take_u8("x").unwrap();
        assert!(r.finish().is_err());
    }
}
