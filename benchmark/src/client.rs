//! The load client: one thread per connection, pre-encoded request
//! frames, its own receive buffer split with `split_frame`.
//!
//! Two drivers share the connection type:
//!
//! * [`closed_loop`] keeps `depth` requests in flight on a **blocking**
//!   socket. The bytes in flight are bounded far below the socket
//!   buffer, so a `write` can never block while replies are pending.
//! * [`open_loop`] sends on a fixed schedule from a **nonblocking**
//!   socket: unsent bytes wait in a local buffer while replies are
//!   drained, so a slow server can never wedge the generator in `write`
//!   (which would trip the server's slow-reader kill). Latency is timed
//!   from each request's *due* time and the generator's own lateness is
//!   recorded.
//!
//! Neither driver uses a socket read timeout: a timeout in the middle of
//! a frame would drop bytes with a buffered reader, and here partial
//! frames simply stay in the connection's buffer until the rest arrives.

use crate::trace::{Trace, ROOT};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use wqrtq_engine::{Request, Response};
use wqrtq_server::frame::{split_frame, write_frame, MAGIC_V2};
use wqrtq_server::{ClientFrame, ServerFrame};

/// Largest reply the client accepts (a streamed plan is a few KiB).
const MAX_REPLY_LEN: usize = 8 << 20;

/// Bytes a closed loop may have in flight: far below any socket buffer,
/// which is what makes its blocking writes non-blocking in practice.
const MAX_IN_FLIGHT_BYTES: usize = 16 * 1024;

/// How often an open loop polls for replies while waiting for the next
/// due time.
const OPEN_LOOP_POLL: Duration = Duration::from_micros(200);

/// Requests an open loop keeps in flight on one connection, at most.
/// After a stall of the generator hundreds of requests are due at once;
/// put on the wire in one burst they overflow the server's per-connection
/// reply backlog (admission capacity + 16) and the server kills the
/// connection as a slow reader. Requests over the cap wait in the
/// generator — still timed from their due time, so the wait is counted.
const OPEN_LOOP_MAX_IN_FLIGHT: usize = 128;

/// How long an open-loop step waits for outstanding replies after its
/// last send. Generous: this box stalls for seconds at a time, and a
/// reply that arrives after the step gave up on it would be an unknown
/// id to the next step.
const OPEN_LOOP_DRAIN: Duration = Duration::from_secs(20);

/// Request frames encoded before the timed window. Frame `i` carries
/// request id `i + 1` (id 0 is reserved by the protocol).
#[derive(Clone, Debug, Default)]
pub struct FrameSet {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    replayable: bool,
}

impl FrameSet {
    /// Encodes `requests` in order.
    pub fn encode<'a>(requests: impl IntoIterator<Item = &'a Request>) -> Self {
        let mut set = FrameSet::default();
        for request in requests {
            set.push(request);
        }
        set
    }

    /// Marks the list as safe to send again from the top when a loop
    /// runs out of frames: true for reads whose repeat cannot be
    /// answered from the result cache (a unique request comes round
    /// again long after the 256-entry cache forgot it), false for
    /// mutations and for plans.
    pub fn replayable(mut self) -> Self {
        self.replayable = true;
        self
    }

    /// Appends one request.
    pub fn push(&mut self, request: &Request) {
        let id = self.ends.len() as u64 + 1;
        write_frame(&mut self.bytes, &ClientFrame::encode_submit(id, request))
            .expect("writing to a Vec cannot fail");
        self.ends.push(self.bytes.len());
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The bytes of frame `i`, length prefix included.
    pub fn frame(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// One protocol-v2 connection with its own receive buffer.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Conn {
    /// Connects, sends the v2 preamble and consumes the server's Hello.
    ///
    /// # Errors
    /// Socket errors, or `InvalidData` when the server does not answer
    /// with a Hello frame.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&MAGIC_V2)?;
        let mut conn = Self {
            stream,
            buf: vec![0; 256 * 1024],
            head: 0,
            tail: 0,
        };
        match conn.recv()? {
            (_, ServerFrame::Hello { .. }) => Ok(conn),
            _ => Err(io::Error::new(ErrorKind::InvalidData, "expected hello")),
        }
    }

    /// Splits the next complete frame off the buffer, if one is there,
    /// and decodes it. The instant is when the frame was found complete
    /// — the boundary between waiting and decoding.
    fn take_frame(&mut self) -> io::Result<Option<(u64, ServerFrame, Instant)>> {
        let window = &self.buf[self.head..self.tail];
        let Some((consumed, payload)) = split_frame(window, MAX_REPLY_LEN)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?
        else {
            return Ok(None);
        };
        let complete = Instant::now();
        let (id, decoded) = ServerFrame::decode(&window[payload])
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        self.head += consumed;
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
        Ok(Some((id, decoded, complete)))
    }

    /// One `read` into the buffer (compacting or growing it first when
    /// the tail has no room). Returns the bytes read; `WouldBlock`
    /// surfaces as an error on a nonblocking socket.
    fn fill(&mut self) -> io::Result<usize> {
        if self.tail == self.buf.len() {
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        match self.stream.read(&mut self.buf[self.tail..]) {
            Ok(0) => Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
            Ok(n) => {
                self.tail += n;
                Ok(n)
            }
            Err(e) => Err(e),
        }
    }

    /// The socket, for callers that write their own frames.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Blocks until the next frame is decoded.
    ///
    /// # Errors
    /// Transport and decoding failures.
    pub fn recv(&mut self) -> io::Result<(u64, ServerFrame)> {
        self.recv_timed().map(|(id, frame, _)| (id, frame))
    }

    /// [`Conn::recv`], also returning when the frame was complete in
    /// the buffer (before it was decoded).
    pub fn recv_timed(&mut self) -> io::Result<(u64, ServerFrame, Instant)> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(frame);
            }
            match self.fill() {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and blocks for its final reply, skipping
    /// streamed partials (set-up and quiescent probes, not load).
    ///
    /// # Errors
    /// Transport failures; `Other` when the server answers Busy.
    pub fn call(&mut self, id: u64, request: &Request) -> io::Result<Response> {
        let mut frame = Vec::new();
        write_frame(&mut frame, &ClientFrame::encode_submit(id, request))?;
        self.stream.write_all(&frame)?;
        loop {
            match self.recv()? {
                (got, ServerFrame::Reply(response)) if got == id => return Ok(response),
                (_, ServerFrame::ReplyPart(_)) => {}
                (_, other) => {
                    return Err(io::Error::other(format!("unexpected frame {other:?}")));
                }
            }
        }
    }
}

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Done {
    /// Index of the request in its [`FrameSet`].
    pub idx: u32,
    /// Send (closed loop) or due time (open loop) → decoded final
    /// reply, nanoseconds.
    pub latency_ns: u64,
    /// Same origin → first streamed `ReplyPart`, nanoseconds (0 when
    /// the reply was not streamed).
    pub first_part_ns: u64,
    /// Whether the reply was a successful response (not Busy, not
    /// `Response::Error`).
    pub ok: bool,
}

/// What one connection observed during one phase.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Every completed request.
    pub done: Vec<Done>,
    /// Replies retained for the oracle, as `(request index, response)`.
    pub kept: Vec<(u32, Response)>,
    /// Requests sent.
    pub attempted: u64,
    /// Busy + `Response::Error` + requests lost to a transport error.
    pub failed: u64,
    /// Of `failed`, the Busy refusals.
    pub busy: u64,
    /// First send → last reply.
    pub elapsed: Duration,
    /// The transport error that ended the phase early, if any.
    pub transport_error: Option<String>,
    /// Open loop: how late each send ran behind its due time.
    pub send_late_ns: Vec<u64>,
    /// Open loop: requests in flight at the middle of the send window.
    pub in_flight_mid: u64,
    /// Open loop: requests in flight when the send window closed.
    pub in_flight_end: u64,
}

impl ConnResult {
    fn complete(&mut self, idx: u32, latency_ns: u64, first_part_ns: u64, response: Response) {
        let ok = !response.is_error();
        if !ok {
            self.failed += 1;
        }
        self.done.push(Done {
            idx,
            latency_ns,
            first_part_ns,
            ok,
        });
        self.kept.push((idx, response));
    }

    fn refuse(&mut self, idx: u32, latency_ns: u64) {
        self.failed += 1;
        self.busy += 1;
        self.done.push(Done {
            idx,
            latency_ns,
            first_part_ns: 0,
            ok: false,
        });
    }
}

/// Parameters of one closed-loop phase on one connection.
pub struct ClosedLoop<'a> {
    /// The requests, sent in order starting at `start` (wrapping around
    /// when the list is replayable).
    pub frames: &'a FrameSet,
    /// First frame index to send.
    pub start: usize,
    /// Requests kept in flight.
    pub depth: usize,
    /// Keep sending until this instant …
    pub deadline: Instant,
    /// … and at least until this many requests were sent (a fixed head
    /// of the list every run completes, so exact-repeat metrics cover
    /// the same requests in every run).
    pub min_requests: usize,
    /// Retain the reply of every `keep_every`-th request for the oracle
    /// (0 keeps none).
    pub keep_every: usize,
    /// Record spans (traced run only).
    pub trace: Option<&'a mut Trace>,
}

/// Runs one closed-loop phase. Stops early (with the outstanding
/// requests counted as failed) on a transport error, and when the frame
/// list runs out.
pub fn closed_loop(conn: &mut Conn, mut cfg: ClosedLoop<'_>) -> ConnResult {
    let mut out = ConnResult::default();
    let frames = cfg.frames;
    // One clock for latencies and spans alike.
    let epoch = cfg.trace.as_ref().map_or_else(Instant::now, |t| t.epoch());
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    // Per request: send start, write end, first streamed part.
    let mut sent_at = vec![(0u64, 0u64, 0u64); frames.len()];
    // `sent` counts requests; the frame index wraps when allowed.
    let (mut sent, mut in_flight, mut in_flight_bytes) = (0usize, 0usize, 0usize);
    let (mut first_send, mut last_reply) = (0u64, 0u64);
    let failure = loop {
        let next = if frames.replayable {
            (cfg.start + sent) % frames.len()
        } else {
            cfg.start + sent
        };
        let may_send =
            next < frames.len() && (sent < cfg.min_requests || Instant::now() < cfg.deadline);
        if may_send && in_flight < cfg.depth && in_flight_bytes < MAX_IN_FLIGHT_BYTES {
            let frame = frames.frame(next);
            // Never 0: a zero start marks an idle slot.
            let start = ns(Instant::now()).max(1);
            if let Err(e) = conn.stream.write_all(frame) {
                break Some(e);
            }
            sent_at[next] = (start, ns(Instant::now()), 0);
            if sent == 0 {
                first_send = start;
            }
            sent += 1;
            in_flight += 1;
            in_flight_bytes += frame.len();
            continue;
        }
        if in_flight == 0 {
            break None;
        }
        let (id, frame, complete) = match conn.recv_timed() {
            Ok(reply) => reply,
            Err(e) => break Some(e),
        };
        let decoded = ns(Instant::now());
        let idx = (id as usize).wrapping_sub(1);
        if idx >= frames.len() || sent_at[idx].0 == 0 {
            break Some(io::Error::new(
                ErrorKind::InvalidData,
                "reply for unknown id",
            ));
        }
        let (start, write_end, first_part) = sent_at[idx];
        let first = first_part.saturating_sub(start);
        match frame {
            ServerFrame::ReplyPart(_) => {
                if first_part == 0 {
                    sent_at[idx].2 = decoded;
                }
                continue;
            }
            ServerFrame::Reply(response) => {
                let keep = cfg.keep_every > 0 && idx.is_multiple_of(cfg.keep_every);
                if keep || response.is_error() {
                    out.complete(idx as u32, decoded - start, first, response);
                } else {
                    out.done.push(Done {
                        idx: idx as u32,
                        latency_ns: decoded - start,
                        first_part_ns: first,
                        ok: true,
                    });
                }
            }
            ServerFrame::Busy => out.refuse(idx as u32, decoded - start),
            other => {
                break Some(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("unexpected frame {other:?}"),
                ));
            }
        }
        if let Some(trace) = cfg.trace.as_deref_mut() {
            let root = trace.push(ROOT, "bench", (start, decoded), None, id);
            if cfg.depth == 1 {
                let complete = ns(complete);
                let parent = Some(root);
                trace.push("client.send", "server", (start, write_end), parent, id);
                trace.push("client.wait", "server", (write_end, complete), parent, id);
                trace.push("client.decode", "server", (complete, decoded), parent, id);
            }
        }
        // A wrapped index is reused only after its reply: mark it idle.
        sent_at[idx].0 = 0;
        last_reply = decoded;
        in_flight -= 1;
        in_flight_bytes -= frames.frame(idx).len();
    };
    out.attempted = sent as u64;
    if let Some(e) = failure {
        out.failed += in_flight as u64;
        out.transport_error = Some(e.to_string());
    }
    out.elapsed = Duration::from_nanos(last_reply.saturating_sub(first_send));
    out
}

/// Nanoseconds after the start of an open-loop phase at which request
/// `i` of a `rate`-per-second schedule is due.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// Requests an open-loop phase of `duration` at `rate` per second sends.
pub fn scheduled_requests(rate: f64, duration: Duration) -> usize {
    (rate * duration.as_secs_f64()).floor() as usize
}

/// Runs one open-loop step: frames from `start` on (wrapping around the
/// list) at `rate` per second for `duration`, then waits for the
/// outstanding replies. Requests whose reply never arrives count as
/// failed.
pub fn open_loop(
    conn: &mut Conn,
    frames: &FrameSet,
    start: usize,
    rate: f64,
    duration: Duration,
) -> ConnResult {
    let mut out = ConnResult::default();
    let total = scheduled_requests(rate, duration);
    // Which scheduled request currently occupies each frame (ids are
    // baked into the frames, so a reply names a frame, not a sequence
    // number). Far fewer requests are ever in flight than frames exist.
    let mut seq_of = vec![usize::MAX; frames.len()];
    if let Err(e) = conn.stream.set_nonblocking(true) {
        out.transport_error = Some(e.to_string());
        return out;
    }
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut pending: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let (mut sent, mut received) = (0usize, 0usize);
    let mut mid_recorded = false;
    let mut drain_until = None;
    let failure = 'run: loop {
        let now = now_ns();
        while sent < total
            && sent - received < OPEN_LOOP_MAX_IN_FLIGHT
            && due_ns(sent as u64, rate) <= now
        {
            out.send_late_ns.push(now - due_ns(sent as u64, rate));
            let slot = (start + sent) % frames.len();
            seq_of[slot] = sent;
            pending.extend_from_slice(frames.frame(slot));
            sent += 1;
        }
        if !mid_recorded && sent >= total / 2 {
            out.in_flight_mid = (sent - received) as u64;
            mid_recorded = true;
        }
        while written < pending.len() {
            match conn.stream.write(&pending[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break 'run Some(e),
            }
        }
        if written == pending.len() {
            pending.clear();
            written = 0;
        }
        loop {
            match conn.take_frame() {
                Ok(Some((id, frame, _))) => {
                    let slot = (id as usize).wrapping_sub(1);
                    let Some(&seq) = seq_of.get(slot).filter(|&&seq| seq < sent) else {
                        break 'run Some(io::Error::new(ErrorKind::InvalidData, "unknown id"));
                    };
                    let latency = now_ns().saturating_sub(due_ns(seq as u64, rate));
                    match frame {
                        ServerFrame::Reply(response) if !response.is_error() => {
                            out.done.push(Done {
                                idx: slot as u32,
                                latency_ns: latency,
                                first_part_ns: 0,
                                ok: true,
                            });
                        }
                        ServerFrame::Reply(response) => {
                            out.complete(slot as u32, latency, 0, response);
                        }
                        ServerFrame::Busy => out.refuse(slot as u32, latency),
                        ServerFrame::ReplyPart(_) => continue,
                        other => {
                            break 'run Some(io::Error::new(
                                ErrorKind::InvalidData,
                                format!("unexpected frame {other:?}"),
                            ));
                        }
                    }
                    received += 1;
                }
                Ok(None) => match conn.fill() {
                    Ok(_) => {}
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => break 'run Some(e),
                },
                Err(e) => break 'run Some(e),
            }
        }
        if sent == total {
            if drain_until.is_none() {
                out.in_flight_end = (sent - received) as u64;
                drain_until = Some(Instant::now() + OPEN_LOOP_DRAIN);
            }
            if received == sent || drain_until.is_some_and(|t| Instant::now() > t) {
                break None;
            }
        }
        let may_send = sent < total && sent - received < OPEN_LOOP_MAX_IN_FLIGHT;
        let wait = if may_send {
            Duration::from_nanos(due_ns(sent as u64, rate).saturating_sub(now_ns()))
        } else {
            OPEN_LOOP_POLL
        };
        std::thread::sleep(wait.min(OPEN_LOOP_POLL));
    };
    out.attempted = sent as u64;
    out.failed += (sent - received) as u64;
    out.elapsed = epoch.elapsed();
    out.transport_error = failure.map(|e| e.to_string());
    if let Err(e) = conn.stream.set_nonblocking(false) {
        out.transport_error.get_or_insert(e.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_schedule_arithmetic() {
        // 24k req/s: one request every 41 666 ns, 4 s → 96 000 requests.
        assert_eq!(due_ns(0, 24_000.0), 0);
        assert_eq!(due_ns(1, 24_000.0), 41_666);
        assert_eq!(due_ns(24_000, 24_000.0), 1_000_000_000);
        assert_eq!(scheduled_requests(24_000.0, Duration::from_secs(4)), 96_000);
        // The last scheduled request is due strictly inside the window.
        let n = scheduled_requests(21_000.0, Duration::from_millis(1500)) as u64;
        assert!(due_ns(n - 1, 21_000.0) < 1_500_000_000);
        assert!(due_ns(n, 21_000.0) >= 1_500_000_000);
    }

    #[test]
    fn frame_set_assigns_ids_from_one_and_round_trips() {
        let requests: Vec<Request> = (0..3)
            .map(|i| Request::TopK {
                dataset: "p".into(),
                weight: vec![0.25, 0.75],
                k: 1 + i,
            })
            .collect();
        let set = FrameSet::encode(&requests);
        assert_eq!(set.len(), 3);
        for (i, request) in requests.iter().enumerate() {
            let frame = set.frame(i);
            let (consumed, payload) = split_frame(frame, 1 << 20).unwrap().unwrap();
            assert_eq!(consumed, frame.len());
            let (id, decoded) = ClientFrame::decode(&frame[payload]).unwrap();
            assert_eq!(id, i as u64 + 1);
            assert_eq!(decoded, ClientFrame::Submit(request.clone()));
        }
    }
}
