#![warn(missing_docs)]

//! # WQRTQ server — a networked front door for the engine
//!
//! [`crate::Server`] exposes a [`wqrtq_engine::Engine`] over TCP with a
//! std-only, length-prefixed binary protocol:
//!
//! * [`frame`] — the framing layer: `u32` length prefix + payload,
//!   preamble magic, hard frame-size limits, and the checked byte codec
//!   primitives (floats travel by IEEE-754 bit pattern, so responses
//!   round-trip **bit-identically** to their in-process values);
//! * [`wire`] — the message vocabulary: a submit of any engine request
//!   — queries, and the registrations, appends, deletes and compactions
//!   that write the catalog (request body tags come from the engine's
//!   single source-of-truth table, [`wqrtq_engine::REQUEST_KIND_TABLE`])
//!   — and a ping, each frame tagged with a client-assigned request id;
//! * [`server`] — one event-loop thread driving every connection's
//!   fd-free state machine (`conn.rs`) with **pipelining** (many frames
//!   in flight, responses completed out of order by the engine's worker
//!   pool and routed by request id), a bounded global admission queue
//!   that answers overload with [`wire::ServerFrame::Busy`] instead of
//!   buffering — every submit, a registration included, passes it — and
//!   graceful shutdown that drains in-flight work before closing;
//! * [`client`] — a blocking client speaking the same protocol, used by
//!   the loopback tests and `benchmark/`.
//!
//! There is one protocol: the connection preamble
//! ([`frame::MAGIC_V2`]) is acknowledged with a
//! [`wire::ServerFrame::Hello`] frame, and why-not plan requests
//! ([`wqrtq_engine::Request::WhyNot`]) stream progressive
//! [`wire::ServerFrame::ReplyPart`] partial results ahead of the final
//! ranked plan — see [`client::Client::submit_plan`]. Any other
//! preamble (including the retired v1 one) is a protocol error.
//!
//! ```no_run
//! use wqrtq_server::{Client, Server};
//! use wqrtq_engine::{Engine, Request};
//!
//! let engine = Engine::builder().workers(2).build();
//! let server = Server::builder().engine(engine).bind("127.0.0.1:0")?;
//! let mut client = Client::connect_v2(server.local_addr())?;
//! client.register_dataset("products", 2, &[2.0, 1.0, 6.0, 3.0, 1.0, 9.0])?;
//! let top = client.submit(&Request::TopK {
//!     dataset: "products".into(),
//!     weight: vec![0.5, 0.5],
//!     k: 2,
//! })?;
//! # let _ = top;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
mod conn;
pub mod frame;
mod poll;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use frame::{
    ByteReader, ByteWriter, DecodeError, FrameError, DEFAULT_MAX_FRAME_LEN, MAGIC_V2,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerBuilder};
pub use wire::{ClientFrame, ServerFrame, CONNECTION_ID};
