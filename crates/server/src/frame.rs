//! Length-prefixed binary framing and the byte-level codec primitives.
//!
//! Everything on the wire is a **frame**: a little-endian `u32` payload
//! length followed by exactly that many payload bytes. A connection
//! starts with the 4-byte [`MAGIC_V2`] preamble (client → server), which
//! the server answers with a [`crate::wire::ServerFrame::Hello`] frame;
//! then both directions speak frames until close. The length prefix is
//! checked against a maximum before a single payload byte is read, so a
//! hostile or corrupt length can neither allocate unbounded memory nor
//! desynchronise the stream silently.
//!
//! The framing functions and the [`ByteWriter`] / [`ByteReader`] codec
//! primitives live in [`wqrtq_codec`] — shared verbatim with the
//! engine's durability layer, whose WAL records and snapshots use the
//! same length-prefixed, bit-identical `f64` encoding on disk that the
//! wire uses on TCP. This module re-exports them and keeps the
//! wire-protocol constants (preamble magic, protocol version, frame
//! size cap) that are meaningless to the storage formats.

pub use wqrtq_codec::{
    read_frame, split_frame, write_frame, ByteReader, ByteWriter, DecodeError, FrameError,
};

/// The connection preamble. The server answers it with a
/// [`crate::wire::ServerFrame::Hello`] frame (the negotiation
/// half-round-trip) and will stream progressive
/// [`crate::wire::ServerFrame::ReplyPart`] frames for plan requests on
/// this connection. Any other preamble — including the retired v1 one —
/// is a protocol error.
pub const MAGIC_V2: [u8; 4] = *b"WQR2";

/// The one protocol version the server speaks.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default upper bound on a frame payload (32 MiB) — large enough for a
/// multi-million-row dataset registration, small enough that a hostile
/// length prefix cannot balloon server memory.
pub const DEFAULT_MAX_FRAME_LEN: usize = 32 << 20;
