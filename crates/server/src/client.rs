//! A blocking, pipelining-capable client for the wire protocol.
//!
//! [`Client::send`] assigns a request id, writes the frame, and returns
//! immediately — any number of requests may be in flight. [`Client::recv`]
//! reads the next response frame, whichever request it answers (the
//! server completes out of order). The `call` / `submit` / `register_*`
//! / `compact` conveniences wrap a single send + receive for the common
//! sequential case — a registration or compaction is one more
//! [`Request`], submitted like any other; the bench load generator drives
//! `send`/`recv` directly with a sliding pipeline window.

use crate::frame::{self, DecodeError, FrameError, DEFAULT_MAX_FRAME_LEN, MAGIC_V2};
use crate::wire::{ClientFrame, ServerFrame};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;
use wqrtq_engine::{Plan, PlanDelta, Request, Response, StatsSnapshot};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(io::Error),
    /// The framing layer rejected incoming bytes.
    Frame(FrameError),
    /// A frame arrived but its payload did not decode.
    Decode(DecodeError),
    /// The server reported a protocol violation and will close.
    Protocol(String),
    /// The server refused the request with busy backpressure; retry
    /// after draining in-flight responses.
    Busy,
    /// The engine refused a registration, compaction or plan with a
    /// typed error.
    Server(String),
    /// The server closed the connection (clean end of stream).
    Closed,
    /// The response frame did not match what the call expected.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Decode(e) => write!(f, "{e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation reported: {msg}"),
            ClientError::Busy => write!(f, "server busy (admission queue full)"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Closed => write!(f, "connection closed by the server"),
            ClientError::Unexpected(what) => write!(f, "unexpected response frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// A blocking connection to a [`crate::Server`].
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    max_frame_len: usize,
    buf: Vec<u8>,
}

impl Client {
    /// Connects, sends the preamble and completes the negotiation
    /// handshake: the server's first frame must be a
    /// [`ServerFrame::Hello`]. Connections receive progressive
    /// [`ServerFrame::ReplyPart`] frames for plan requests — see
    /// [`Client::submit_plan`].
    ///
    /// # Errors
    /// [`ClientError::Unexpected`] when the server answers the preamble
    /// with anything but a Hello; transport failures otherwise.
    pub fn connect_v2(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        writer.write_all(&MAGIC_V2)?;
        writer.flush()?;
        let mut client = Self {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            buf: Vec::new(),
        };
        match client.recv()? {
            (_, ServerFrame::Hello { .. }) => Ok(client),
            (_, ServerFrame::ProtocolError(msg)) => Err(ClientError::Protocol(msg)),
            _ => Err(ClientError::Unexpected("expected a hello frame")),
        }
    }

    /// Sets a read timeout for [`Client::recv`] (None blocks forever).
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Half-closes the write side, signalling the server that no more
    /// frames are coming; responses already in flight remain readable.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn finish_sending(&mut self) -> io::Result<()> {
        self.writer.flush()?;
        self.reader.get_ref().shutdown(Shutdown::Write)
    }

    /// Writes one frame and returns its request id without waiting for
    /// the response (pipelining).
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn send(&mut self, message: &ClientFrame) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        frame::write_frame(&mut self.writer, &message.encode(id))?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Writes one `Submit` frame for `request` by reference (no clone —
    /// the pipelined hot path) and returns its request id.
    ///
    /// # Errors
    /// Propagates transport errors.
    fn send_request(&mut self, request: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        frame::write_frame(&mut self.writer, &ClientFrame::encode_submit(id, request))?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Writes a burst of `Submit` frames with **one** flush (and so,
    /// typically, one `write(2)`) for the whole run, returning the
    /// request ids in order. This is the pipelined load path: the
    /// server decodes the burst from a single read and hands it to the
    /// engine as one batch.
    ///
    /// # Errors
    /// Propagates transport errors.
    pub fn send_request_batch(&mut self, requests: &[&Request]) -> Result<Vec<u64>, ClientError> {
        let mut ids = Vec::with_capacity(requests.len());
        for request in requests {
            let id = self.next_id;
            self.next_id += 1;
            frame::write_frame(&mut self.writer, &ClientFrame::encode_submit(id, request))?;
            ids.push(id);
        }
        self.writer.flush()?;
        Ok(ids)
    }

    /// Requests a kernel receive-buffer size (`SO_RCVBUF`) for this
    /// connection's socket. A tuning and test knob — shrinking it makes
    /// server-side backpressure observable without megabytes of kernel
    /// buffering absorbing the backlog.
    ///
    /// # Errors
    /// Propagates `setsockopt` errors.
    #[cfg(unix)]
    pub fn set_recv_buffer(&mut self, bytes: usize) -> io::Result<()> {
        use std::os::unix::io::AsRawFd;
        crate::poll::set_socket_buffers(self.reader.get_ref().as_raw_fd(), None, Some(bytes))
    }

    /// Reads the frame answering `id`, surfacing protocol errors and id
    /// mismatches (pipelined traffic must use `send`/`recv` directly).
    fn recv_for(&mut self, id: u64) -> Result<ServerFrame, ClientError> {
        let (got_id, frame) = self.recv()?;
        if let ServerFrame::ProtocolError(msg) = frame {
            return Err(ClientError::Protocol(msg));
        }
        if got_id != id {
            return Err(ClientError::Unexpected("response id mismatch"));
        }
        Ok(frame)
    }

    /// Reads the next response frame, whichever in-flight request it
    /// answers.
    ///
    /// # Errors
    /// [`ClientError::Closed`] on clean end-of-stream; framing/decoding
    /// errors otherwise.
    pub fn recv(&mut self) -> Result<(u64, ServerFrame), ClientError> {
        if !frame::read_frame(&mut self.reader, self.max_frame_len, &mut self.buf)? {
            return Err(ClientError::Closed);
        }
        Ok(ServerFrame::decode(&self.buf)?)
    }

    /// One request, one response: sends `message` and blocks for the
    /// frame answering it.
    ///
    /// # Errors
    /// [`ClientError::Protocol`] when the server reports a violation;
    /// [`ClientError::Unexpected`] when a response for a different id
    /// arrives (pipelined traffic must use `send`/`recv` directly).
    pub fn call(&mut self, message: &ClientFrame) -> Result<ServerFrame, ClientError> {
        let id = self.send(message)?;
        self.recv_for(id)
    }

    /// Submits one engine request and returns its response.
    ///
    /// Plan requests ([`Request::WhyNot`]) stream progressive partial
    /// frames before the final reply; this method absorbs and discards
    /// them (use [`Client::submit_plan`] to observe them), so the
    /// connection stays in sync regardless of which method a plan
    /// request goes through.
    ///
    /// # Errors
    /// [`ClientError::Busy`] under backpressure (nothing was executed);
    /// transport/decoding failures otherwise.
    pub fn submit(&mut self, request: &Request) -> Result<Response, ClientError> {
        if request.kind() == wqrtq_engine::RequestKind::WhyNot {
            return self
                .submit_plan(request, |_| {})
                .map(Response::Plan)
                .or_else(|e| match e {
                    // submit() surfaces engine errors as Response::Error,
                    // not ClientError::Server — keep that contract.
                    ClientError::Server(msg) => Ok(Response::Error(msg)),
                    other => Err(other),
                });
        }
        let id = self.send_request(request)?;
        match self.recv_for(id)? {
            ServerFrame::Reply(response) => Ok(response),
            ServerFrame::Busy => Err(ClientError::Busy),
            _ => Err(ClientError::Unexpected("expected a reply frame")),
        }
    }

    /// Submits one why-not plan request ([`wqrtq_engine::Request::WhyNot`])
    /// and streams its progressive partial results into `on_delta` as
    /// the server produces them (explanations first, then one call per
    /// strategy), returning the final ranked plan. A plan served from
    /// the engine's result cache arrives whole — zero deltas, then the
    /// plan.
    ///
    /// # Errors
    /// [`ClientError::Busy`] under backpressure; [`ClientError::Server`]
    /// for engine-level failures (unknown dataset, invalid options);
    /// transport/decoding failures otherwise.
    pub fn submit_plan(
        &mut self,
        request: &Request,
        mut on_delta: impl FnMut(PlanDelta),
    ) -> Result<Plan, ClientError> {
        let id = self.send_request(request)?;
        loop {
            let (got_id, frame) = self.recv()?;
            match frame {
                ServerFrame::ProtocolError(msg) => return Err(ClientError::Protocol(msg)),
                _ if got_id != id => return Err(ClientError::Unexpected("response id mismatch")),
                ServerFrame::ReplyPart(delta) => on_delta(delta),
                ServerFrame::Reply(Response::Plan(plan)) => return Ok(plan),
                ServerFrame::Reply(Response::Error(msg)) => return Err(ClientError::Server(msg)),
                ServerFrame::Busy => return Err(ClientError::Busy),
                _ => return Err(ClientError::Unexpected("expected a plan frame")),
            }
        }
    }

    /// Registers (or replaces) a dataset: submits [`Request::Register`].
    ///
    /// # Errors
    /// [`ClientError::Server`] with the catalog's message on rejection;
    /// [`ClientError::Busy`] under backpressure (nothing was registered).
    pub fn register_dataset(
        &mut self,
        name: &str,
        dim: usize,
        coords: &[f64],
    ) -> Result<(), ClientError> {
        let request = Request::Register {
            dataset: name.into(),
            dim,
            coords: coords.to_vec(),
        };
        match self.submit(&request)? {
            Response::Mutated { .. } => Ok(()),
            Response::Error(msg) => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Unexpected("expected a registration ack")),
        }
    }

    /// Registers an immutable weight population: submits
    /// [`Request::RegisterWeights`].
    ///
    /// # Errors
    /// [`ClientError::Server`] with the catalog's message on rejection;
    /// [`ClientError::Busy`] under backpressure (nothing was registered).
    pub fn register_weights(
        &mut self,
        name: &str,
        weights: &[Vec<f64>],
    ) -> Result<(), ClientError> {
        let request = Request::RegisterWeights {
            name: name.into(),
            weights: weights.to_vec(),
        };
        match self.submit(&request)? {
            Response::Mutated { .. } => Ok(()),
            Response::Error(msg) => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Unexpected("expected a registration ack")),
        }
    }

    /// Merges a dataset's delta overlay into its base — submits
    /// [`Request::Compact`] — and returns whether a merge actually ran.
    ///
    /// # Errors
    /// [`ClientError::Server`] with the catalog's message on rejection;
    /// [`ClientError::Busy`] under backpressure (nothing was merged).
    pub fn compact(&mut self, dataset: &str) -> Result<bool, ClientError> {
        let request = Request::Compact {
            dataset: dataset.into(),
        };
        match self.submit(&request)? {
            Response::Compacted { ran } => Ok(ran),
            Response::Error(msg) => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Unexpected("expected a compaction ack")),
        }
    }

    /// Fetches the server's observability snapshot: the engine's merged
    /// metrics (per-kind latency histograms, pipeline-stage histograms,
    /// cache and catalog counters) plus the serving layer's connection
    /// counters.
    ///
    /// # Errors
    /// [`ClientError::Busy`] under backpressure; transport/decoding
    /// failures otherwise.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.submit(&Request::Stats)? {
            Response::Stats(stats) => Ok(*stats),
            Response::Error(msg) => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Unexpected("expected a stats reply")),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// Transport/decoding failures; [`ClientError::Unexpected`] when the
    /// answer is not a pong.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&ClientFrame::Ping)? {
            ServerFrame::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("expected a pong")),
        }
    }
}
