//! One connection, sans I/O: the state machine that turns a client's
//! bytes into replies.
//!
//! A [`Connection`] owns everything that is one connection's business —
//! the preamble and its Hello, the read arena and the in-place frame
//! split, dispatch (a ping's pong; for every submit — registrations and
//! compactions included — admission, the inline-or-pool decision,
//! staging [`BatchSubmission`]s and a plan's `ReplyPart` observer),
//! protocol errors, the write queue and its backlog, and the
//! close and interest decisions — over any `Read + Write` stream. It
//! holds no fd, no poller and no clock: the event loop
//! ([`crate::server`]) instantiates it with a nonblocking `TcpStream`
//! and only polls, while the tests drive it over an in-memory stream
//! that returns chosen splits, `WouldBlock`s, short writes and errors.
//!
//! The stream lives inside the type on purpose: an inline answer that
//! would overflow the reply backlog first writes the backlog out
//! ([`Connection::queue`]), so a pipelined burst answered on the loop
//! dooms only a peer whose socket takes nothing.
//!
//! Doom is the connection's one kill switch, shared with every request
//! it has on the pool: a reply overflow, a failed read or write, a
//! panic while serving, or the close itself sets it, and a worker that
//! claims a non-mutation request of a doomed connection skips it
//! ([`BatchSubmission::with_cancel`]) — nobody is left to read the
//! answer — and stops one it is running at the run's next cancel poll. A
//! peer's EOF is not among them: it means "done sending", and the
//! replies of what was read still run and drain.

use crate::frame::{self, FrameError, MAGIC_V2, PROTOCOL_VERSION};
use crate::poll::{INTEREST_READ, INTEREST_WRITE};
use crate::server::Shared;
use crate::wire::{ClientFrame, ServerFrame, CONNECTION_ID};
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use wqrtq_engine::{BatchSubmission, Engine, ProbeCtx, Request, Response, SpanRecord, Stage};

/// Reply-backlog headroom beyond the admission capacity, reserved for
/// the replies the loop gives without admission: pongs, busy frames and
/// protocol errors.
pub(crate) const CONTROL_SLACK: usize = 16;

/// Bytes requested per `read(2)`; also the arena's resting size.
const READ_CHUNK: usize = 64 * 1024;

/// Reads taken per readiness event before yielding to other
/// connections (the poller is level-triggered, so remaining input
/// re-arms immediately).
const MAX_READS_PER_EVENT: usize = 8;

/// Frames coalesced into one vectored write.
const MAX_WRITE_SLICES: usize = 64;

/// Cache misses one readiness event of one connection may execute on
/// the loop; the rest of that burst is staged to the pool, so a deep
/// pipeline still gets the workers and other connections get their turn.
///
/// Measured on a 2-core host (2 workers, one loop, IND 100k×3, unique
/// `TopK k=10` misses pipelined 1 024 deep), against no bound: the
/// pipeline alone runs 90k instead of 72k req/s, and a depth-1 neighbour
/// on the same loop sees p99 2.1 ms instead of 11.8 ms while the
/// pipeline keeps 80k of its 84k req/s. At 256 deep the pipeline alone
/// is unchanged and the neighbour's p99 halves (1.4 vs 2.7 ms). A bound
/// of 16 runs the lone pipeline about as fast but slows it 8 % beside
/// the neighbour; 256 is worse on all three.
const INLINE_MISSES_PER_EVENT: usize = 64;

/// Reply backlog at which an intermediate completion wakes the loop
/// anyway (see [`ConnShared::notify`]).
const WAKE_BACKLOG: usize = 8;

/// Arena capacity above which a drained buffer is shrunk back.
const ARENA_SHRINK: usize = 1 << 20;

/// The reply to any preamble other than [`MAGIC_V2`] (v1's retired one
/// included): names the version this server speaks, then the
/// connection closes.
const BAD_PREAMBLE: &str = "bad connection preamble: this server speaks protocol v2 (send WQR2)";

/// Adds one to a server tally; the event loop is its only writer.
fn bump(counter: &AtomicU64) {
    // ordering: Relaxed — monotonic tally, read only by stats snapshots.
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Per-connection state shared between its [`Connection`] and the
/// completions in flight on the pool.
#[derive(Debug)]
pub(crate) struct ConnShared {
    id: u64,
    /// Requests of this connection currently on the engine pool; the
    /// loop drains this to zero before closing a read-closed socket.
    in_flight: AtomicUsize,
    /// Encoded reply frames from pool completions, drained by the loop.
    out: Mutex<VecDeque<Vec<u8>>>,
    /// Frames queued (in `out` or the write queue) but not yet fully
    /// written to the stream.
    backlog: AtomicUsize,
    backlog_cap: usize,
    /// Set once nobody will read this connection's replies (overflow,
    /// transport failure, close). Every submission it stages carries
    /// this flag, so the pool skips its queued reads.
    doomed: Arc<AtomicBool>,
    /// The server this connection lives on.
    server: Arc<Shared>,
    /// The connection's poller token on the event loop.
    token: AtomicU64,
}

impl ConnShared {
    pub(crate) fn new(id: u64, backlog_cap: usize, server: Arc<Shared>) -> Self {
        Self {
            id,
            in_flight: AtomicUsize::new(0),
            out: Mutex::new(VecDeque::new()),
            backlog: AtomicUsize::new(0),
            backlog_cap,
            doomed: Arc::new(AtomicBool::new(false)),
            server,
            token: AtomicU64::new(u64::MAX),
        }
    }

    pub(crate) fn set_token(&self, token: u64) {
        self.token.store(token, Ordering::Release);
    }

    pub(crate) fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }

    fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    /// Reserves one reply-backlog slot for a frame about to be queued.
    ///
    /// Overflow past the cap means the peer has stopped reading an
    /// entire admission window: the slot is refused, and unless the
    /// caller is `best_effort` — it drops the frame (a streamed plan
    /// delta) or makes room and retries (a loop reply) — the connection
    /// is doomed.
    fn reserve(&self, best_effort: bool) -> bool {
        // ordering: SeqCst — backlog admission ticket raced by pool
        // completions and the loop's writer; the reserve/undo pair and
        // the loop's decrements share one total order so the cap can
        // never be overshot by concurrent reservers.
        let queued = self.backlog.fetch_add(1, Ordering::SeqCst);
        if queued >= self.backlog_cap {
            self.backlog.fetch_sub(1, Ordering::SeqCst);
            if !best_effort {
                self.doom();
            }
            return false;
        }
        true
    }

    /// Queues one encoded frame from a pool completion for the loop to
    /// write (see [`ConnShared::reserve`] for overflow). Does not wake
    /// the loop — callers batch their own [`ConnShared::notify`].
    fn push_frame(&self, bytes: Vec<u8>, best_effort: bool) {
        if !self.is_doomed() && self.reserve(best_effort) {
            self.out.lock().expect("reply queue lock").push_back(bytes);
        }
    }

    /// Asks the event loop to look at this connection (write replies, check
    /// doom, re-check close eligibility).
    ///
    /// The poller is only kicked when there is a reason to flush *now*:
    /// the connection's last in-flight request completed, enough
    /// replies accumulated to be worth a writev, or the connection is
    /// doomed. Intermediate completions of a pipelined burst just stage
    /// their frame — the final completion's wake flushes the whole
    /// batch in one loop cycle instead of waking (and, on small hosts,
    /// preempting the worker) once per reply.
    ///
    /// A streamed plan part is `urgent`: the request that staged it is by
    /// definition still in flight, so none of the reasons above applies
    /// and the part would wait for another connection's wake or the
    /// backstop tick — up to the whole plan it exists to run ahead of.
    /// The wake pipe is de-duplicated, so a burst of parts costs one byte.
    fn notify(&self, urgent: bool) {
        let token = self.token.load(Ordering::Acquire);
        self.server
            .dirty
            .lock()
            .expect("dirty list lock")
            .push(token);
        // ordering: SeqCst — the wake-or-not decision must observe
        // in_flight/backlog in the same total order the loop's own
        // SeqCst updates use; a weaker read here could skip the final
        // wake of a pipelined burst and leave staged replies unflushed.
        if urgent
            || self.is_doomed()
            || self.in_flight.load(Ordering::SeqCst) == 0
            || self.backlog.load(Ordering::SeqCst) >= WAKE_BACKLOG
        {
            self.server.wake();
        }
    }
}

/// The reusable per-connection read buffer: reads append at `filled`,
/// frames are split off the front in place, and the unconsumed tail is
/// compacted once per burst.
#[derive(Debug, Default)]
struct RecvArena {
    buf: Vec<u8>,
    filled: usize,
}

impl RecvArena {
    /// Makes room for at least `n` more bytes after `filled`.
    fn ensure_space(&mut self, n: usize) {
        if self.buf.len() - self.filled < n {
            self.buf.resize(self.filled + n, 0);
        }
    }

    /// Discards the first `n` buffered bytes, compacting the tail.
    fn consume_prefix(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.buf.copy_within(n..self.filled, 0);
        self.filled -= n;
        if self.filled == 0 && self.buf.capacity() > ARENA_SHRINK {
            self.buf = Vec::new();
        }
    }
}

/// Where one readiness event of one connection puts its submits: the
/// cycle's pool batch, or — for what [`Engine::serve_inline`] finds
/// cheap, while the event has misses left to spend — the loop itself.
pub(crate) struct Intake<'a> {
    batch: &'a mut Vec<BatchSubmission>,
    scratch: &'a mut ProbeCtx,
    misses_left: usize,
}

impl<'a> Intake<'a> {
    pub(crate) fn new(batch: &'a mut Vec<BatchSubmission>, scratch: &'a mut ProbeCtx) -> Self {
        Self {
            batch,
            scratch,
            misses_left: INLINE_MISSES_PER_EVENT,
        }
    }

    /// Serves `request` on the loop, or returns `None` to stage it. Once
    /// the event's misses are spent, the rest of the burst is staged.
    fn serve_inline(
        &mut self,
        engine: &Engine,
        request: &Request,
        trace_id: u64,
    ) -> Option<Response> {
        if self.misses_left == 0 {
            return None;
        }
        let answer = engine.serve_inline(request, trace_id, self.scratch)?;
        // Hits and stats are free; only an executed miss spends.
        if answer.executed {
            self.misses_left -= 1;
        }
        Some(answer.response)
    }
}

/// One connection's bytes → replies state machine (see the module docs).
pub(crate) struct Connection<S> {
    stream: S,
    shared: Arc<ConnShared>,
    /// Whether the preamble has been seen and answered with a Hello.
    greeted: bool,
    arena: RecvArena,
    /// Frames being written; the front one may be partially sent.
    write_queue: VecDeque<Vec<u8>>,
    head_written: usize,
    /// No more input will be processed (peer EOF, protocol violation,
    /// or shutdown); replies still drain before the close.
    read_closed: bool,
    /// The last write would have blocked; wait for writability.
    want_write: bool,
}

impl<S: Read + Write> Connection<S> {
    pub(crate) fn new(stream: S, shared: Arc<ConnShared>) -> Self {
        Self {
            stream,
            shared,
            greeted: false,
            arena: RecvArena::default(),
            write_queue: VecDeque::new(),
            head_written: 0,
            read_closed: false,
            want_write: false,
        }
    }

    pub(crate) fn stream(&self) -> &S {
        &self.stream
    }

    /// Reads a burst, splitting and dispatching every complete frame.
    pub(crate) fn on_readable(&mut self, intake: &mut Intake<'_>) {
        if self.read_closed || self.shared.is_doomed() {
            return;
        }
        let mut eof = false;
        let mut reads = 0;
        while reads < MAX_READS_PER_EVENT {
            self.arena.ensure_space(READ_CHUNK);
            let filled = self.arena.filled;
            // lint: allow(no-panic) — `ensure_space` just grew the
            // arena, so `filled <= buf.len()` and the range is valid.
            let result = self.stream.read(&mut self.arena.buf[filled..]);
            bump(&self.shared.server.tallies.read_syscalls);
            match result {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    reads += 1;
                    let space = self.arena.buf.len() - self.arena.filled;
                    self.arena.filled += n;
                    // A panic while serving a frame must not take the
                    // loop (and every other connection) down with it.
                    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.process_arena(intake);
                    }));
                    if served.is_err() {
                        bump(&self.shared.server.tallies.protocol_errors);
                        self.shared.doom();
                    }
                    if self.read_closed || self.shared.is_doomed() {
                        return;
                    }
                    // A short read means the stream is (almost surely)
                    // drained; skip the would-block confirmation
                    // syscall. Level-triggered polling catches the
                    // rare racing byte.
                    if n < space {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transport failure (a reset: the peer left with our
                // replies unread): nobody will read what we would send,
                // so doom the connection and its queued reads with it.
                Err(_) => {
                    self.shared.doom();
                    return;
                }
            }
        }
        if eof {
            // A connection that closes without sending a byte (port
            // scan, health probe) is not a protocol violation — just a
            // goodbye. Dying mid-preamble is one; dying mid-frame is an
            // abrupt disconnect (drain what was admitted, silently).
            if !self.greeted && self.arena.filled > 0 {
                self.protocol_error(BAD_PREAMBLE.into());
            }
            self.read_closed = true;
        }
    }

    /// The stream became writable: the next flush may make progress.
    pub(crate) fn on_writable(&mut self) {
        self.want_write = false;
    }

    /// Shutdown: serves the frames already buffered, then stops reading.
    /// Replies still drain before the close.
    pub(crate) fn stop_reading(&mut self, intake: &mut Intake<'_>) {
        if !self.read_closed && !self.shared.is_doomed() {
            self.process_arena(intake);
        }
        self.read_closed = true;
    }

    /// The readiness this connection waits for: input unless reading
    /// stopped, output while a write would have blocked.
    pub(crate) fn interest(&self) -> u32 {
        let mut want = 0;
        if !self.read_closed {
            want |= INTEREST_READ;
        }
        if self.want_write {
            want |= INTEREST_WRITE;
        }
        want
    }

    /// Whether the connection may close now: doomed, or read-closed
    /// with every admitted reply written.
    pub(crate) fn closable(&self) -> bool {
        // `in_flight` is read before `backlog`: completions push their
        // reply (raising the backlog) before decrementing `in_flight`,
        // so a zero read here means every admitted reply is visible.
        // ordering: SeqCst — close-eligibility check; joins the same
        // total order as the completion-side SeqCst updates (see the
        // comment above) so no admitted reply can be missed.
        self.shared.is_doomed()
            || (self.read_closed
                && self.shared.in_flight.load(Ordering::SeqCst) == 0
                && self.shared.backlog.load(Ordering::SeqCst) == 0)
    }

    /// Closes the connection: completions still running drop their
    /// replies and its queued reads are skipped. Returns the stream for
    /// the caller to shut down.
    pub(crate) fn close(self) -> S {
        self.shared.doom();
        self.stream
    }

    /// Splits and serves every complete frame in the arena, consuming the
    /// processed prefix.
    fn process_arena(&mut self, intake: &mut Intake<'_>) {
        // The preamble is acknowledged with a Hello frame; anything else
        // (the retired v1 magic included) is a protocol error.
        if !self.greeted {
            if self.arena.filled < 4 {
                return;
            }
            if !self.arena.buf.starts_with(&MAGIC_V2) {
                self.protocol_error(BAD_PREAMBLE.into());
                return;
            }
            self.greeted = true;
            let hello = ServerFrame::Hello {
                version: PROTOCOL_VERSION,
                max_frame_len: self.shared.server.max_frame_len as u64,
            };
            self.push_control(CONNECTION_ID, hello);
            self.arena.consume_prefix(4);
        }
        let mut cursor = 0;
        while !self.read_closed && !self.shared.is_doomed() {
            // lint: allow(no-panic) — `cursor` only advances by `consumed`,
            // which `split_frame` bounds by the window it was handed, so
            // `cursor <= filled <= buf.len()` throughout.
            let window = &self.arena.buf[cursor..self.arena.filled];
            match frame::split_frame(window, self.shared.server.max_frame_len) {
                Ok(None) => break,
                Ok(Some((consumed, payload))) => {
                    bump(&self.shared.server.tallies.frames_in);
                    // lint: allow(no-panic) — `payload` is a sub-range of
                    // the window `split_frame` was handed, offset back into
                    // the same buffer.
                    let bytes = &self.arena.buf[cursor + payload.start..cursor + payload.end];
                    let decoded = ClientFrame::decode(bytes);
                    cursor += consumed;
                    match decoded {
                        Ok((id, message)) => self.dispatch(intake, id, message),
                        Err(e) => {
                            self.protocol_error(e.to_string());
                            break;
                        }
                    }
                }
                Err(FrameError::Oversized { len, max }) => {
                    self.protocol_error(format!(
                        "frame payload of {len} bytes exceeds the {max}-byte limit"
                    ));
                    break;
                }
                // split_frame never reports other variants on in-memory
                // input, but stay total.
                Err(_) => {
                    self.read_closed = true;
                    break;
                }
            }
        }
        self.arena.consume_prefix(cursor);
    }

    /// Serves one decoded frame: a ping with a pong, a submit through
    /// admission to the loop or into the cycle's batch.
    fn dispatch(&mut self, intake: &mut Intake<'_>, id: u64, message: ClientFrame) {
        // Id 0 is reserved for connection-level errors; a client using it
        // could not tell its own reply from a fatal ProtocolError.
        if id == CONNECTION_ID {
            self.protocol_error("request id 0 is reserved".into());
            return;
        }
        match message {
            ClientFrame::Submit(request) => self.submit(intake, id, request),
            ClientFrame::Ping => self.push_control(id, ServerFrame::Pong),
        }
    }

    fn submit(&mut self, intake: &mut Intake<'_>, id: u64, request: Request) {
        let server = &self.shared.server;
        let tracer = server.engine.tracer();
        let started = tracer.now_nanos();
        if !server.admission.try_acquire(server.admission_capacity) {
            bump(&server.tallies.busy_rejections);
            self.push_control(id, ServerFrame::Busy);
            return;
        }
        let trace_id = self.trace_id(id);
        // The admission span covers the gauge acquisition and the routing,
        // up to the pool hand-off or the inline answer's start — boundary
        // cost a worker-side span can never see. Recorded with the
        // connection id as the shard hint. A `Stats` request records
        // none: its snapshot must equal `Engine::metrics()` at quiescence.
        let shard = self.shared.id as usize;
        let traced = !matches!(request, Request::Stats);
        let record_admission = |ended: u64| {
            if traced {
                let span = SpanRecord {
                    trace_id,
                    stage: Stage::Admission,
                    start_nanos: started,
                    duration_nanos: ended.saturating_sub(started),
                };
                tracer.record(shard, span);
            }
        };
        let routed = tracer.now_nanos();
        if let Some(response) = intake.serve_inline(&server.engine, &request, trace_id) {
            record_admission(routed);
            let bytes = encode_admitted(&self.shared, id, trace_id, response);
            self.queue(bytes, true);
            return;
        }
        // ordering: SeqCst — in_flight joins the close-eligibility total
        // order: the increment must be globally visible before the reply
        // can decrement, or the loop could observe 0/0 and close early.
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let is_plan = request.kind() == wqrtq_engine::RequestKind::WhyNot;
        let complete = completion(self.shared.clone(), id, trace_id);
        let mut item = BatchSubmission::new(request, trace_id, complete)
            .with_cancel(self.shared.doomed.clone());
        if is_plan {
            // Progressive partial frames ride the same bounded reply
            // backlog ahead of the final reply (same worker thread, so
            // order is guaranteed). They are best-effort: when a slow
            // reader fills the backlog, partials are dropped — only the
            // final reply dooms the connection on overflow.
            let state = self.shared.clone();
            item = item.with_progress(move |delta| {
                let bytes = encode_reply(&state, id, trace_id, ServerFrame::ReplyPart(delta));
                state.push_frame(bytes, true);
                state.notify(true);
            });
        }
        intake.batch.push(item);
        record_admission(tracer.now_nanos());
    }

    /// Wire trace ids compose the connection and frame identity, so a
    /// span in `Engine::trace_snapshot` points back to one request of
    /// one client.
    fn trace_id(&self, id: u64) -> u64 {
        (self.shared.id << 32) | (id & 0xFFFF_FFFF)
    }

    /// Queues a reply the loop gives without admission (pong, hello,
    /// busy, protocol errors).
    fn push_control(&mut self, id: u64, message: ServerFrame) {
        let trace_id = self.trace_id(id);
        let bytes = encode_reply(&self.shared, id, trace_id, message);
        self.queue(bytes, false);
    }

    /// Charges a protocol violation: counted, reported to the peer, and
    /// the connection stops reading (replies still drain, then it
    /// closes).
    fn protocol_error(&mut self, message: String) {
        bump(&self.shared.server.tallies.protocol_errors);
        self.push_control(CONNECTION_ID, ServerFrame::ProtocolError(message));
        self.read_closed = true;
    }

    /// Queues a frame produced on the loop itself. A control reply over
    /// the cap dooms the connection, as a pool completion's does. An
    /// inline answer (`make_room`) first writes the backlog out — a
    /// pipelined burst of them outruns the end-of-cycle flush — and dooms
    /// the connection only if the stream took none of it.
    fn queue(&mut self, bytes: Vec<u8>, make_room: bool) {
        if self.shared.is_doomed() {
            return;
        }
        let reserved = if make_room {
            self.shared.reserve(true) || {
                self.flush();
                self.shared.reserve(false)
            }
        } else {
            self.shared.reserve(false)
        };
        if reserved {
            self.write_queue.push_back(bytes);
        }
    }

    /// Whether the loop queued frames of its own (inline answers,
    /// control replies) that no write has taken yet.
    pub(crate) fn has_queued_output(&self) -> bool {
        !self.write_queue.is_empty()
    }

    /// Adopts completed replies and writes the queue out with vectored
    /// writes until the stream would block. A doomed connection writes
    /// nothing.
    pub(crate) fn flush(&mut self) {
        if self.shared.is_doomed() {
            return;
        }
        self.write_queue
            .extend(self.shared.out.lock().expect("reply queue lock").drain(..));
        let tallies = &self.shared.server.tallies;
        while !self.write_queue.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
            let mut count = 0;
            for (slot, frame) in slices.iter_mut().zip(&self.write_queue) {
                // Only the head frame can be partly written already.
                let skip = if count == 0 { self.head_written } else { 0 };
                *slot = IoSlice::new(frame.get(skip..).unwrap_or_default());
                count += 1;
            }
            let result = self
                .stream
                .write_vectored(slices.get(..count).unwrap_or_default());
            bump(&tallies.write_syscalls);
            match result {
                Ok(0) => {
                    self.shared.doom();
                    return;
                }
                Ok(mut written) => {
                    while written > 0 {
                        let Some(head) = self.write_queue.front() else {
                            // The stream cannot report more bytes written
                            // than the slices it was handed.
                            break;
                        };
                        let remaining = head.len() - self.head_written;
                        if written >= remaining {
                            self.write_queue.pop_front();
                            self.head_written = 0;
                            written -= remaining;
                            bump(&tallies.frames_out);
                            // ordering: SeqCst — the backlog decrement
                            // joins the reserve/undo and close-eligibility
                            // total order.
                            self.shared.backlog.fetch_sub(1, Ordering::SeqCst);
                        } else {
                            self.head_written += written;
                            written = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.want_write = true;
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // The peer stopped reading (or vanished): queued frames
                // have nowhere to go.
                Err(_) => {
                    self.shared.doom();
                    return;
                }
            }
        }
        self.want_write = false;
    }
}

/// Builds the completion for one admitted request: runs on a pool
/// worker, encodes the reply there, and queues it for the loop.
fn completion(
    state: Arc<ConnShared>,
    id: u64,
    trace_id: u64,
) -> impl FnOnce(Response) + Send + 'static {
    move |response: Response| {
        let bytes = encode_admitted(&state, id, trace_id, response);
        // Push before dropping `in_flight`, notify after: the loop
        // treats `in_flight == 0 && backlog == 0` as fully drained, and
        // this ordering makes that check race-free.
        // ordering: SeqCst — see `Connection::closable`; the decrement
        // must order after the backlog raise.
        state.push_frame(bytes, false);
        state.in_flight.fetch_sub(1, Ordering::SeqCst);
        state.notify(false);
    }
}

/// The reply frame of an admitted request, on whichever thread answered
/// it (a pool completion or the loop): releases the admission permit,
/// fills a `Stats` reply's server counters, and encodes.
fn encode_admitted(state: &ConnShared, id: u64, trace_id: u64, mut response: Response) -> Vec<u8> {
    let server = &state.server;
    // Admission is released *before* the reply is enqueued: once a
    // client has read a response, its permit is guaranteed free, so a
    // retry after draining can never spuriously see Busy.
    server.admission.release();
    // Server counters exist only at this layer; the engine leaves the
    // slot empty for us to fill.
    if let Response::Stats(stats) = &mut response {
        stats.server = Some(server.counters());
    }
    encode_reply(state, id, trace_id, ServerFrame::Reply(response))
}

/// Encodes one server frame into its wire bytes (length prefix
/// included), recording one serialize span for a `Reply` or `ReplyPart`.
/// A `Stats` reply records none: it serializes after the snapshot it
/// carries was taken, and a sample would make the engine's histograms
/// diverge from that snapshot at quiescence.
fn encode_reply(state: &ConnShared, id: u64, trace_id: u64, message: ServerFrame) -> Vec<u8> {
    let tracer = state.server.engine.tracer();
    let traced = match &message {
        ServerFrame::Reply(response) => !matches!(response, Response::Stats(_)),
        ServerFrame::ReplyPart(_) => true,
        _ => false,
    };
    let started = if traced { tracer.now_nanos() } else { 0 };
    let bytes = message.encode_frame(id);
    if traced {
        tracer.record(
            state.id as usize,
            SpanRecord {
                trace_id,
                stage: Stage::Serialize,
                start_nanos: started,
                duration_nanos: tracer.now_nanos().saturating_sub(started),
            },
        );
    }
    bytes
}

#[cfg(test)]
mod tests {
    //! A seeded model test: one `Connection` driven over an in-memory
    //! stream, with completions from a real two-worker engine and every
    //! reply checked against a twin engine's `submit` — registrations and
    //! compactions are submits staged on the pool like any other.
    //!
    //! `WQRTQ_FUZZ_ROUNDS` sets the round count (default 24).

    use super::*;
    use crate::server::{ServerBuilder, Shared};
    use std::collections::{HashMap, HashSet};
    use std::io;
    use std::time::{Duration, Instant};
    use wqrtq_engine::{StrategyKind, WeightSet, WhyNotOptions};
    use wqrtq_geom::Weight;

    const SEED: u64 = 0x5eed_c0de_2026_0036;
    const ADMISSION: usize = 4;
    const MAX_FRAME: usize = 4096;
    const PRODUCTS: [f64; 14] = [
        2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
    ];

    /// SplitMix64: small, seedable, good enough to pick splits.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.next().is_multiple_of(n)
        }
    }

    /// The peer, scripted: its whole byte stream is known up front and
    /// handed out in random splits with random `WouldBlock`s; writes are
    /// taken short or refused at random. Past the input it half-closes
    /// (EOF), or resets at `reset_at`.
    struct Script {
        input: Vec<u8>,
        delivered: usize,
        reset_at: Option<usize>,
        reset_fired: bool,
        /// End of the hostile bytes: no read may follow their delivery.
        hostile_end: Option<usize>,
        reads_after_hostile: usize,
        /// A peer that never reads: every write would block.
        stalled: bool,
        output: Vec<u8>,
        rng: Rng,
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.hostile_end.is_some_and(|end| self.delivered >= end) {
                self.reads_after_hostile += 1;
            }
            let end = self.reset_at.unwrap_or(self.input.len());
            if self.delivered >= end {
                if self.reset_at.is_some() {
                    self.reset_fired = true;
                    return Err(ErrorKind::ConnectionReset.into());
                }
                return Ok(0);
            }
            if self.rng.one_in(4) {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = self.rng.range(1, (end - self.delivered).min(buf.len()));
            buf[..n].copy_from_slice(&self.input[self.delivered..self.delivered + n]);
            self.delivered += n;
            Ok(n)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if self.stalled || self.rng.one_in(4) {
                return Err(ErrorKind::WouldBlock.into());
            }
            let total: usize = bufs.iter().map(|b| b.len()).sum();
            let mut budget = self.rng.range(1, total.max(1));
            let mut taken = 0;
            for b in bufs {
                let n = b.len().min(budget);
                self.output.extend_from_slice(&b[..n]);
                budget -= n;
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What a round's frame should get back.
    #[derive(Clone)]
    enum Expect {
        /// A `Reply` with exactly these bytes (or `Busy`).
        Reply(Vec<u8>),
        /// A `Stats` reply (its bytes vary with timing), or `Busy`.
        Stats,
        /// A plan's reply (or `Busy`), after its streamed parts.
        Plan(Vec<u8>),
        /// A pong with exactly these bytes, never `Busy`.
        Control(Vec<u8>),
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    /// A random submit over the fixture data: cache hits and misses,
    /// answers the loop gives itself and ones it stages for the pool.
    fn random_request(rng: &mut Rng, plan_allowed: bool) -> Request {
        // Fine grids: a request repeats, and hits the cache, only now
        // and then.
        let a = rng.range(0, 1000) as f64 / 1000.0;
        let q = 3.0 + rng.range(0, 1000) as f64 / 500.0;
        match rng.range(0, 7) {
            0 | 1 => Request::TopK {
                dataset: "p".into(),
                weight: vec![a, 1.0 - a],
                // 70 is past one leaf: never served on the loop.
                k: [1, 2, 3, 70][rng.range(0, 3)],
            },
            2 => Request::TopK {
                dataset: "no-such-dataset".into(),
                weight: vec![0.5, 0.5],
                k: 1,
            },
            3 => Request::ReverseTopKBi {
                dataset: "p".into(),
                weights: WeightSet::Named("pop".into()),
                q: vec![q, q],
                k: 3,
            },
            4 => Request::ReverseTopKBi {
                dataset: "p".into(),
                weights: WeightSet::Inline(vec![vec![a, 1.0 - a], vec![0.6, 0.4]]),
                q: vec![q, 4.0],
                k: 3,
            },
            5 if plan_allowed => Request::WhyNot {
                dataset: "p".into(),
                q: vec![q, q],
                k: 3,
                why_not: vec![vec![0.1, 0.9]],
                options: WhyNotOptions {
                    strategies: vec![[StrategyKind::Mqp, StrategyKind::Mwk][rng.range(0, 1)]],
                    sample_size: 32,
                    query_samples: 8,
                    seed: rng.range(0, 1000) as u64,
                    exact_2d: false,
                    ..WhyNotOptions::default()
                },
            },
            _ => Request::Stats,
        }
    }

    fn engine_with_data() -> Engine {
        let engine = Engine::builder().workers(2).build();
        engine.register_dataset("p", 2, PRODUCTS.to_vec()).unwrap();
        let pop = [[0.1, 0.9], [0.5, 0.5], [0.3, 0.7], [0.9, 0.1]];
        engine
            .register_weights("pop", pop.iter().map(|w| Weight::new(w.to_vec())).collect())
            .unwrap();
        engine
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mode {
        /// Valid frames, then a half-close.
        Clean,
        /// Valid frames with one hostile stretch somewhere.
        Hostile,
        /// Valid frames, reset at a random byte.
        Reset,
        /// A flood of pings at a peer that never reads.
        Stalled,
    }

    /// One round's peer byte stream and what each id should get.
    struct Round {
        bytes: Vec<u8>,
        expect: Vec<(u64, Expect)>,
        /// Ids past the hostile stretch: never dispatched.
        unread: HashSet<u64>,
        hostile_end: Option<usize>,
    }

    fn build_round(rng: &mut Rng, mode: Mode, round: usize, twin: &Engine) -> Round {
        let mut round_out = Round {
            bytes: Vec::new(),
            expect: Vec::new(),
            unread: HashSet::new(),
            hostile_end: None,
        };
        let bad_preamble = mode == Mode::Hostile && rng.one_in(4);
        if bad_preamble {
            round_out.bytes.extend_from_slice(b"WQR1");
            round_out.hostile_end = Some(4);
        } else {
            round_out.bytes.extend_from_slice(&MAGIC_V2);
        }
        let frames = if mode == Mode::Stalled {
            48
        } else {
            rng.range(1, 12)
        };
        let hostile_at = (mode == Mode::Hostile && !bad_preamble).then(|| rng.range(1, frames));
        let mut plans = 0;
        for id in 1..=frames as u64 {
            if round_out.hostile_end.is_some() {
                round_out.unread.insert(id);
            }
            if hostile_at == Some(id as usize) {
                let start = round_out.bytes.len();
                match rng.range(0, 2) {
                    // An oversized length prefix: refused on the prefix.
                    0 => round_out
                        .bytes
                        .extend_from_slice(&(1u32 << 20).to_le_bytes()),
                    // A well-framed payload that decodes to nothing.
                    1 => round_out
                        .bytes
                        .extend_from_slice(&framed(&vec![0xff; rng.range(9, 40)])),
                    // A valid frame on the reserved id.
                    _ => round_out
                        .bytes
                        .extend_from_slice(&framed(&ClientFrame::Ping.encode(CONNECTION_ID))),
                }
                let end = if round_out.bytes.len() - start == 4 {
                    start + 4
                } else {
                    round_out.bytes.len()
                };
                round_out.hostile_end = Some(end);
                continue;
            }
            let (message, expect) = match if mode == Mode::Stalled {
                0
            } else {
                rng.range(0, 9)
            } {
                0 => (
                    ClientFrame::Ping,
                    Expect::Control(ServerFrame::Pong.encode_frame(id)),
                ),
                pick => {
                    let request = match pick {
                        1 => Request::Register {
                            dataset: format!("r{round}-{id}"),
                            dim: 2,
                            coords: PRODUCTS.to_vec(),
                        },
                        2 => Request::RegisterWeights {
                            name: format!("w{round}-{id}"),
                            weights: if rng.one_in(2) {
                                vec![vec![0.5, 0.5], vec![0.25, 0.75]]
                            } else {
                                vec![vec![0.3, 0.3]]
                            },
                        },
                        // "p" has no overlay: `ran` is false on both.
                        3 => Request::Compact {
                            dataset: ["p", "no-such-dataset"][rng.range(0, 1)].into(),
                        },
                        _ => random_request(rng, plans == 0),
                    };
                    let bytes = ServerFrame::Reply(twin.submit(request.clone())).encode_frame(id);
                    let expect = match request {
                        Request::Stats => Expect::Stats,
                        Request::WhyNot { .. } => {
                            plans += 1;
                            Expect::Plan(bytes)
                        }
                        _ => Expect::Reply(bytes),
                    };
                    (ClientFrame::Submit(request), expect)
                }
            };
            round_out
                .bytes
                .extend_from_slice(&framed(&message.encode(id)));
            round_out.expect.push((id, expect));
        }
        round_out
    }

    /// Decodes whole frames off the peer's received bytes, each with its
    /// raw bytes; a doomed connection may leave a partial one at the end.
    fn received(output: &[u8]) -> (Vec<(u64, ServerFrame, Vec<u8>)>, bool) {
        let mut frames = Vec::new();
        let mut at = 0;
        while let Ok(Some((consumed, payload))) = frame::split_frame(&output[at..], usize::MAX) {
            let bytes = &output[at..at + consumed];
            let (id, frame) =
                ServerFrame::decode(&output[at + payload.start..at + payload.end]).unwrap();
            frames.push((id, frame, bytes.to_vec()));
            at += consumed;
        }
        (frames, at < output.len())
    }

    /// Reads the engine ran: an admitted mutation lands whatever happens
    /// to its connection.
    fn executed(engine: &Engine) -> u64 {
        let per_kind = engine.metrics().per_kind;
        let reads = per_kind.iter().filter(|k| !k.kind.is_mutation());
        reads.map(|k| k.requests).sum()
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn seeded_model_of_one_connection_over_an_in_memory_stream() {
        let rounds = std::env::var("WQRTQ_FUZZ_ROUNDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(24usize);
        let engine = Arc::new(engine_with_data());
        let twin = engine_with_data();
        let cap = ADMISSION + CONTROL_SLACK;
        let config = ServerBuilder::default()
            .admission_capacity(ADMISSION)
            .max_frame_len(MAX_FRAME);
        for round in 0..rounds {
            let mut rng = Rng(SEED ^ (round as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
            let mode = [Mode::Clean, Mode::Hostile, Mode::Reset, Mode::Stalled][round % 4];
            let plan = build_round(&mut rng, mode, round, &twin);
            let reset_at = (mode == Mode::Reset).then(|| rng.range(0, plan.bytes.len()));
            let script = Script {
                input: plan.bytes.clone(),
                delivered: 0,
                reset_at,
                reset_fired: false,
                hostile_end: plan.hostile_end,
                reads_after_hostile: 0,
                stalled: mode == Mode::Stalled,
                output: Vec::new(),
                rng: Rng(rng.next()),
            };
            let (server, _wake_rx) = Shared::new(engine.clone(), &config).unwrap();
            let state = Arc::new(ConnShared::new(round as u64 + 1, cap, Arc::new(server)));
            let mut conn = Connection::new(script, state.clone());
            let mut batch = Vec::new();
            let mut scratch = ProbeCtx::new();
            let queued = |conn: &Connection<Script>| {
                conn.write_queue.len() + state.out.lock().unwrap().len()
            };
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let fired = conn.stream.reset_fired;
                conn.on_readable(&mut Intake::new(&mut batch, &mut scratch));
                assert!(queued(&conn) <= cap, "round {round}: backlog over its cap");
                // The pool takes the staged submits only now and then —
                // in a reset round, not before the reset — so submits
                // can still be waiting for it when the connection dies.
                let closing = conn.read_closed || conn.shared.is_doomed();
                if !batch.is_empty() && (closing || (mode != Mode::Reset && rng.one_in(2))) {
                    let staged = std::mem::take(&mut batch);
                    if !fired && conn.stream.reset_fired {
                        // Submits still staged when the reset hits reach
                        // the pool doomed: no read among them runs.
                        let n = staged.len();
                        wait_until("earlier submits", || {
                            state.in_flight.load(Ordering::SeqCst) == n
                        });
                        let before = executed(&engine);
                        engine.submit_batch_with(staged);
                        wait_until("cancelled submits", || {
                            state.in_flight.load(Ordering::SeqCst) == 0
                        });
                        assert_eq!(executed(&engine), before, "round {round}: ran after reset");
                    } else {
                        engine.submit_batch_with(staged);
                    }
                }
                if rng.one_in(3) {
                    std::thread::sleep(Duration::from_micros(rng.range(0, 200) as u64));
                }
                conn.on_writable();
                conn.flush();
                assert!(queued(&conn) <= cap, "round {round}: backlog over its cap");
                if conn.closable() {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "round {round} ({mode:?}) never closed"
                );
                std::thread::yield_now();
            }
            let doomed = state.is_doomed();
            let script = conn.close();
            wait_until("the pool to drain", || {
                state.in_flight.load(Ordering::SeqCst) == 0
            });
            assert_eq!(
                state.server.admission.len(),
                0,
                "round {round}: permit leaked"
            );

            let (frames, partial) = received(&script.output);
            assert!(
                !partial || doomed,
                "round {round}: torn frame on a clean close"
            );
            let mut answered: HashMap<u64, usize> = HashMap::new();
            let mut replied: HashSet<u64> = HashSet::new();
            let mut protocol_errors = 0;
            let expect: HashMap<u64, Expect> = plan.expect.iter().cloned().collect();
            for (at, (id, frame, bytes)) in frames.iter().enumerate() {
                match frame {
                    ServerFrame::Hello { .. } => {
                        assert_eq!((at, *id), (0, CONNECTION_ID), "round {round}: late hello")
                    }
                    ServerFrame::ProtocolError(_) => protocol_errors += 1,
                    ServerFrame::ReplyPart(_) => {
                        assert!(
                            matches!(expect.get(id), Some(Expect::Plan(_))),
                            "round {round}: a part for non-plan {id}"
                        );
                        assert!(
                            !replied.contains(id),
                            "round {round}: part after reply {id}"
                        );
                    }
                    _ => {
                        assert!(
                            !plan.unread.contains(id),
                            "round {round}: id {id} past the hostile bytes was answered"
                        );
                        *answered.entry(*id).or_default() += 1;
                        replied.insert(*id);
                        let ok = match (expect.get(id), frame) {
                            (_, ServerFrame::Busy) => {
                                !matches!(expect.get(id), Some(Expect::Control(_)))
                            }
                            (Some(Expect::Stats), ServerFrame::Reply(Response::Stats(s))) => {
                                s.server.is_some()
                            }
                            (
                                Some(
                                    Expect::Reply(want)
                                    | Expect::Plan(want)
                                    | Expect::Control(want),
                                ),
                                _,
                            ) => want == bytes,
                            _ => false,
                        };
                        assert!(ok, "round {round}: id {id} got {frame:?}");
                    }
                }
            }
            assert!(
                answered.values().all(|&n| n == 1),
                "round {round}: an id answered twice"
            );
            let hostile = plan.hostile_end.is_some();
            assert_eq!(protocol_errors, usize::from(hostile), "round {round}");
            if hostile {
                assert_eq!(
                    script.reads_after_hostile, 0,
                    "round {round}: read past hostile bytes"
                );
            }
            match mode {
                // Every frame the connection read is answered.
                Mode::Clean | Mode::Hostile => {
                    assert!(!doomed, "round {round}: doomed");
                    for (id, _) in &plan.expect {
                        let want = usize::from(!plan.unread.contains(id));
                        assert_eq!(
                            answered.get(id).copied().unwrap_or(0),
                            want,
                            "round {round}: id {id}"
                        );
                    }
                }
                Mode::Reset => assert!(doomed, "round {round}: a reset must doom"),
                Mode::Stalled => {
                    assert!(doomed, "round {round}: a stalled flood must overflow");
                    assert!(frames.is_empty());
                }
            }
        }
    }

    /// A peer that hands over its whole input in one read, then
    /// would-block, and takes every write whole.
    struct Burst {
        input: Vec<u8>,
        delivered: usize,
        output: Vec<u8>,
    }

    impl Read for Burst {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (self.input.len() - self.delivered).min(buf.len());
            if n == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            buf[..n].copy_from_slice(&self.input[self.delivered..self.delivered + n]);
            self.delivered += n;
            Ok(n)
        }
    }

    impl Write for Burst {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn table_answers_spend_the_events_miss_budget() {
        // Named reverse top-k misses from a built score table walk no
        // index node, yet each is a miss the loop executed: one event
        // runs the budget's worth and stages the next for the pool.
        let (engine, twin) = (Arc::new(engine_with_data()), engine_with_data());
        let request = |i: usize| Request::ReverseTopKBi {
            dataset: "p".into(),
            weights: WeightSet::Named("pop".into()),
            q: vec![3.0 + i as f64 / 64.0, 4.0],
            k: 3,
        };
        assert!(!engine.submit(request(1000)).is_error(), "table built");
        let burst = INLINE_MISSES_PER_EVENT + 1;
        let mut input = MAGIC_V2.to_vec();
        for id in 1..=burst {
            let frame = ClientFrame::Submit(request(id)).encode(id as u64);
            input.extend_from_slice(&framed(&frame));
        }
        let stream = Burst {
            input,
            delivered: 0,
            output: Vec::new(),
        };
        let config = ServerBuilder::default()
            .admission_capacity(ADMISSION)
            .max_frame_len(MAX_FRAME);
        let (server, _wake_rx) = Shared::new(engine.clone(), &config).unwrap();
        let state = Arc::new(ConnShared::new(
            1,
            ADMISSION + CONTROL_SLACK,
            Arc::new(server),
        ));
        let mut conn = Connection::new(stream, state.clone());
        let (mut batch, mut scratch) = (Vec::new(), ProbeCtx::new());
        let before = engine.metrics();
        conn.on_readable(&mut Intake::new(&mut batch, &mut scratch));
        assert_eq!(batch.len(), 1, "the last miss is staged");
        let after = engine.metrics();
        assert_eq!(
            after.async_submits - before.async_submits,
            INLINE_MISSES_PER_EVENT as u64
        );
        assert_eq!(
            after.cache.misses - before.cache.misses,
            INLINE_MISSES_PER_EVENT as u64,
            "every inline answer was an executed miss"
        );
        assert_eq!(scratch.nodes_visited, 0, "and none walked the index");

        engine.submit_batch_with(std::mem::take(&mut batch));
        wait_until("the staged miss", || {
            state.in_flight.load(Ordering::SeqCst) == 0
        });
        conn.flush();
        let (frames, partial) = received(&conn.close().output);
        assert!(!partial);
        let replies: Vec<(u64, Vec<u8>)> = frames
            .into_iter()
            .filter(|(_, frame, _)| matches!(frame, ServerFrame::Reply(_)))
            .map(|(id, _, bytes)| (id, bytes))
            .collect();
        let want: Vec<(u64, Vec<u8>)> = (1..=burst)
            .map(|id| {
                let reply = ServerFrame::Reply(twin.submit(request(id)));
                (id as u64, reply.encode_frame(id as u64))
            })
            .collect();
        assert_eq!(replies, want, "in order, the staged one last");
    }

    #[test]
    fn a_half_close_leaves_a_staged_plan_running_and_a_reset_dooms_it() {
        // EOF is "done sending": the peer still reads its replies
        // (`Client::finish_sending`), so a plan read before it runs and
        // its reply is written. A reset says nobody will read: the same
        // plan reaches the pool doomed, runs nothing and writes nothing.
        let twin = engine_with_data();
        let plan = Request::WhyNot {
            dataset: "p".into(),
            q: vec![4.5, 4.5],
            k: 3,
            why_not: vec![vec![0.1, 0.9]],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mwk],
                sample_size: 32,
                query_samples: 8,
                seed: 5,
                exact_2d: false,
                ..WhyNotOptions::default()
            },
        };
        let reply = twin.submit(plan.clone());
        assert!(!reply.is_error(), "{reply:?}");
        let want = ServerFrame::Reply(reply).encode_frame(1);
        let config = ServerBuilder::default()
            .admission_capacity(ADMISSION)
            .max_frame_len(MAX_FRAME);
        for reset in [false, true] {
            // A fresh engine each time: a cached plan is answered inline.
            let engine = Arc::new(engine_with_data());
            let mut input = MAGIC_V2.to_vec();
            input.extend_from_slice(&framed(&ClientFrame::Submit(plan.clone()).encode(1)));
            let script = Script {
                reset_at: reset.then_some(input.len()),
                input,
                delivered: 0,
                reset_fired: false,
                hostile_end: None,
                reads_after_hostile: 0,
                stalled: false,
                output: Vec::new(),
                rng: Rng(SEED),
            };
            let (server, _wake_rx) = Shared::new(engine.clone(), &config).unwrap();
            let state = Arc::new(ConnShared::new(
                1,
                ADMISSION + CONTROL_SLACK,
                Arc::new(server),
            ));
            let mut conn = Connection::new(script, state.clone());
            let (mut batch, mut scratch) = (Vec::new(), ProbeCtx::new());
            // Every byte, then the EOF or the reset.
            while !conn.read_closed && !state.is_doomed() {
                conn.on_readable(&mut Intake::new(&mut batch, &mut scratch));
            }
            assert_eq!(state.is_doomed(), reset, "reset {reset}");
            assert_eq!(batch.len(), 1, "the plan waits for the pool");
            let before = executed(&engine);
            engine.submit_batch_with(std::mem::take(&mut batch));
            wait_until("the plan", || state.in_flight.load(Ordering::SeqCst) == 0);
            assert_eq!(executed(&engine) - before, u64::from(!reset));
            while !conn.closable() {
                conn.on_writable();
                conn.flush();
            }
            let (frames, _) = received(&conn.close().output);
            let replies: Vec<Vec<u8>> = frames
                .into_iter()
                .filter(|(_, frame, _)| matches!(frame, ServerFrame::Reply(_)))
                .map(|(_, _, bytes)| bytes)
                .collect();
            let expected = if reset {
                Vec::new()
            } else {
                vec![want.clone()]
            };
            assert_eq!(replies, expected, "reset {reset}");
        }
    }
}
