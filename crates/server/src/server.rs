//! The TCP serving front door: an event-driven core multiplexing every
//! connection onto a fixed set of poll loops, with bounded admission
//! and graceful shutdown.
//!
//! ## Thread model
//!
//! The server runs a small number of **event-loop threads** (one by
//! default on small hosts, see [`ServerBuilder::event_loops`]), each
//! owning a readiness poller (`epoll` on Linux, `poll(2)` elsewhere —
//! see `poll.rs`). Loop 0 additionally owns the listener; accepted
//! sockets are handed round-robin across loops. Nothing blocks: all
//! sockets are nonblocking, and a loop sleeps only in its poller.
//! Cross-thread wakeups (a pool worker finished a response, shutdown
//! was requested) go through a per-loop self-pipe.
//!
//! A submit that is cheap by construction never leaves the loop that
//! decoded it: [`Engine::serve_inline`] answers it on the loop's own
//! probe scratch — a `Stats`, a cache hit of any query kind, or a
//! `TopK` miss with `k` at most one leaf's worth over a built,
//! overlay-free dataset — and the reply goes straight into the
//! connection's write queue, skipping both cross-thread hand-offs. The
//! loop keeps four guarantees: it never builds an index (the catalog
//! peek only reads what is built), never waits for a writer (a catalog
//! lock held for writing sends the request to the pool), never runs
//! work that grows with a dataset's overlay (an overlay sends it to the
//! pool), and runs at most 64 misses per connection per readiness
//! event (`INLINE_MISSES_PER_EVENT`) — the rest of that burst is staged to
//! the pool, so a deep pipeline still gets the workers and other
//! connections get their turn.
//!
//! Compare the previous design of two dedicated OS threads per
//! connection: the event loop spends no threads per connection, reads
//! *bursts* of pipelined frames per syscall, and coalesces replies into
//! vectored writes — the syscall and wake-up amortisation that closes
//! most of the wire-vs-in-process throughput gap.
//!
//! ## Connection anatomy
//!
//! Per connection the loop keeps a reusable **read arena**: a flat
//! buffer that `read(2)` appends into, from which complete frames are
//! split and decoded *in place* ([`crate::frame::split_frame`]) — no
//! per-frame allocation, no copy between "read buffer" and "frame
//! buffer". The preamble ([`crate::frame::MAGIC_V2`]) is acknowledged
//! with [`ServerFrame::Hello`]; plan requests then stream progressive
//! [`ServerFrame::ReplyPart`] frames. Any other preamble is a protocol
//! error.
//! Control operations (registration, compaction, ping) run inline on
//! the loop thread; [`ClientFrame::Submit`] goes through the admission
//! gauge — the permit is held across the inline decision and released
//! before the reply is queued — and is either answered on the loop (see
//! above) or **staged into a batch**: one poller wake-up that drains
//! a burst of pipelined submits hands them to the engine in a single
//! [`Engine::submit_batch_with`] call — one queue operation per worker
//! that could help, not one per request — while idle workers still
//! claim individual items, so cheap requests overtake expensive ones. A
//! plan request joins the same batch with a progress observer attached
//! that stages its [`ServerFrame::ReplyPart`] frames.
//!
//! Completed responses are encoded on the thread that answered them —
//! the pool worker that finished them (serialize time attributed there,
//! not on the shared loop), or the loop for an inline answer — and
//! queued for the connection; the loop drains the queue into vectored
//! writes, so one `writev(2)` flushes many replies. Responses carry the
//! client's request id and complete out of submission order when a
//! later request finishes first (an inline answer overtakes everything
//! still on the pool).
//!
//! ## Backpressure, not buffering
//!
//! Admission is a global gauge with a hard capacity. When it is full, a
//! `Submit` is answered with [`ServerFrame::Busy`] *immediately* and is
//! never queued — the server's memory footprint is bounded by
//! `admission_capacity`, not by what clients feel like sending. Each
//! connection may hold at most `admission_capacity + slack` reply
//! frames that the peer has not yet read off the socket (a burst of
//! answers the loop gives itself writes the backlog out before it
//! refuses one); a client that stops reading long enough to
//! overflow that backlog is killed rather than buffered (streamed
//! [`ServerFrame::ReplyPart`] deltas are best-effort and silently
//! dropped first). Slow readers pay, not the pool.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (also run on drop) closes the listener, stops
//! reading on every connection (frames already buffered are still
//! served), **drains in-flight requests** — every admitted request's
//! response is written out — then flushes and closes each socket. Work
//! the server said yes to is finished; work it never admitted was
//! already refused with `Busy`.

use crate::frame::{self, FrameError, DEFAULT_MAX_FRAME_LEN, MAGIC_V2, PROTOCOL_VERSION};
use crate::poll::{self, Event, Poller, WakeHandle, INTEREST_READ, INTEREST_WRITE};
use crate::wire::{ClientFrame, ServerFrame, CONNECTION_ID};
use std::collections::{HashMap, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use wqrtq_engine::{
    BatchSubmission, Engine, ProbeCtx, Request, Response, ServerCounters, SpanRecord, Stage,
};
use wqrtq_geom::Weight;

/// Reply-backlog headroom beyond the admission capacity, reserved for
/// control replies (pong, registered, compacted) and busy frames.
const CONTROL_SLACK: usize = 16;

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

/// Poller timeout: wakeups drive everything, the tick is a backstop.
const LOOP_TICK_MS: i32 = 500;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;
/// Sentinel for "not yet registered with a loop".
const TOKEN_NONE: u64 = u64::MAX;

/// The reply to any preamble other than [`MAGIC_V2`] (v1's retired one
/// included): names the version this server speaks, then the
/// connection closes.
const BAD_PREAMBLE: &str = "bad connection preamble: this server speaks protocol v2 (send WQR2)";

/// A counting gauge with capacity-checked acquisition and a drain wait.
#[derive(Debug, Default)]
struct Gauge {
    count: Mutex<usize>,
    zero: Condvar,
}

impl Gauge {
    /// Increments unless the gauge already holds `capacity`.
    fn try_acquire(&self, capacity: usize) -> bool {
        let mut count = self.count.lock().expect("gauge lock");
        if *count >= capacity {
            return false;
        }
        *count += 1;
        true
    }

    fn release(&self) {
        let mut count = self.count.lock().expect("gauge lock");
        // lint: allow(no-panic) — acquire/release are strictly paired by
        // the admission permit's scope; an underflow is a permit
        // accounting bug worth crashing loudly on.
        *count = count.checked_sub(1).expect("gauge underflow");
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    /// Blocks until the gauge reaches zero.
    fn wait_zero(&self) {
        let mut count = self.count.lock().expect("gauge lock");
        while *count > 0 {
            count = self.zero.wait(count).expect("gauge lock poisoned");
        }
    }

    fn len(&self) -> usize {
        *self.count.lock().expect("gauge lock")
    }
}

/// Live per-connection counters.
#[derive(Debug, Default)]
struct ConnCounters {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
}

/// Per-loop state reachable from other threads: the wake pipe, the
/// list of connections with fresh replies, and sockets handed over by
/// the accepting loop.
#[derive(Debug)]
struct LoopShared {
    waker: WakeHandle,
    /// Deduplicates waker writes: one self-pipe byte per batch of
    /// completions, not one per completion.
    wake_pending: AtomicBool,
    /// Tokens with fresh replies (or a fresh doom) to look at.
    dirty: Mutex<Vec<u64>>,
    /// Connections accepted by loop 0, awaiting registration here.
    incoming: Mutex<Vec<(TcpStream, Arc<ConnShared>)>>,
}

impl LoopShared {
    fn wake(&self) {
        // ordering: SeqCst — wake-dedupe handshake with the loop's
        // `swap(false)` after polling: both swaps must sit in one total
        // order with the dirty-list push, or a completion could observe
        // a stale `true`, skip the syscall, and strand a wakeup.
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }
}

/// Per-connection state shared between its event loop and the
/// completions in flight on the pool.
#[derive(Debug)]
struct ConnShared {
    id: u64,
    peer: Option<SocketAddr>,
    counters: ConnCounters,
    /// Requests of this connection currently on the engine pool; the
    /// loop drains this to zero before closing a read-closed socket.
    in_flight: AtomicUsize,
    /// Encoded reply frames from pool completions, drained by the loop.
    out: Mutex<VecDeque<Vec<u8>>>,
    /// Frames queued (in `out` or the loop's write queue) but not yet
    /// fully written to the socket.
    backlog: AtomicUsize,
    backlog_cap: usize,
    /// Hard kill requested (reply overflow, transport failure): the
    /// loop closes the socket without waiting for anything.
    doomed: AtomicBool,
    closed: AtomicBool,
    /// The loop this connection lives on.
    home: Arc<LoopShared>,
    token: AtomicU64,
}

impl ConnShared {
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
                self.doomed.store(true, Ordering::Release);
            }
            return false;
        }
        true
    }

    /// Queues one encoded frame from a pool completion for the event
    /// loop to write (see [`ConnShared::reserve`] for overflow). Does
    /// not wake the loop — callers batch their own
    /// [`ConnShared::notify`].
    fn push_frame(&self, bytes: Vec<u8>, best_effort: bool) {
        if self.closed.load(Ordering::Acquire) || self.doomed.load(Ordering::Acquire) {
            return;
        }
        if self.reserve(best_effort) {
            self.out.lock().expect("reply queue lock").push_back(bytes);
        }
    }

    /// Asks this connection's loop to look at it (write replies, check
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
        self.home.dirty.lock().expect("dirty list lock").push(token);
        // ordering: SeqCst — the wake-or-not decision must observe
        // in_flight/backlog in the same total order the loop's own
        // SeqCst updates use; a weaker read here could skip the final
        // wake of a pipelined burst and leave staged replies unflushed.
        if urgent
            || self.doomed.load(Ordering::Acquire)
            || self.in_flight.load(Ordering::SeqCst) == 0
            || self.backlog.load(Ordering::SeqCst) >= WAKE_BACKLOG
        {
            self.home.wake();
        }
    }
}

/// A point-in-time view of one live connection.
#[derive(Clone, Debug)]
pub struct ConnectionStats {
    /// Server-assigned connection id (monotonic from 1).
    pub id: u64,
    /// Peer address, when the socket could report one.
    pub peer: Option<SocketAddr>,
    /// Frames received (after the preamble).
    pub frames_in: u64,
    /// Frames written back.
    pub frames_out: u64,
    /// Submits refused with [`ServerFrame::Busy`].
    pub busy_rejections: u64,
    /// Protocol violations charged to this connection (malformed or
    /// oversized frames, reserved ids).
    pub protocol_errors: u64,
    /// Requests of this connection currently in flight on the pool.
    pub in_flight: usize,
}

/// Aggregate server counters (live connections plus everything already
/// closed).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_open: usize,
    /// Frames received across all connections.
    pub frames_in: u64,
    /// Frames written across all connections.
    pub frames_out: u64,
    /// Submits refused with [`ServerFrame::Busy`].
    pub busy_rejections: u64,
    /// Connections that violated the protocol (bad preamble, malformed
    /// or oversized frames).
    pub protocol_errors: u64,
    /// Requests currently admitted onto the engine pool.
    pub in_flight: usize,
}

/// Totals folded in when a connection closes.
#[derive(Debug, Default)]
struct ClosedTotals {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    read_syscalls: AtomicU64,
    write_syscalls: AtomicU64,
    connections: AtomicU64,
}

struct Shared {
    engine: Arc<Engine>,
    admission: Gauge,
    admission_capacity: usize,
    max_frame_len: usize,
    max_connections: usize,
    socket_send_buffer: Option<usize>,
    shutting_down: AtomicBool,
    accepted: AtomicU64,
    next_conn_id: AtomicU64,
    conns: Mutex<Vec<Arc<ConnShared>>>,
    closed: ClosedTotals,
}

impl Shared {
    /// Aggregate counters in wire [`ServerCounters`] form. Unlike
    /// [`Server::stats`] this does **not** reap finished connections —
    /// it runs on pool completion threads — so closed-but-unreaped
    /// connections are counted from their live entries instead of the
    /// folded totals (each exactly once either way).
    fn server_counters(&self) -> ServerCounters {
        // ordering: Relaxed — monitoring snapshot of monotonic tallies;
        // a live connection's counters may straggle by an in-progress
        // request, which stats consumers tolerate. Exactness for closed
        // connections comes from the `closed` Acquire load below pairing
        // with the loop's Release store after its final counter writes.
        let mut counters = ServerCounters {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_open: 0,
            frames_in: self.closed.frames_in.load(Ordering::Relaxed),
            frames_out: self.closed.frames_out.load(Ordering::Relaxed),
            busy_rejections: self.closed.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: self.closed.protocol_errors.load(Ordering::Relaxed),
            read_syscalls: self.closed.read_syscalls.load(Ordering::Relaxed),
            write_syscalls: self.closed.write_syscalls.load(Ordering::Relaxed),
            in_flight: self.admission.len() as u64,
        };
        let conns = self.conns.lock().expect("connection registry lock");
        for state in conns.iter() {
            if !state.closed.load(Ordering::Acquire) {
                counters.connections_open += 1;
            }
            let c = &state.counters;
            counters.frames_in += c.frames_in.load(Ordering::Relaxed);
            counters.frames_out += c.frames_out.load(Ordering::Relaxed);
            counters.busy_rejections += c.busy_rejections.load(Ordering::Relaxed);
            counters.protocol_errors += c.protocol_errors.load(Ordering::Relaxed);
            counters.read_syscalls += c.read_syscalls.load(Ordering::Relaxed);
            counters.write_syscalls += c.write_syscalls.load(Ordering::Relaxed);
        }
        counters
    }

    /// Removes closed connections from the registry, folding their
    /// counters into the closed totals. Join-free: connections are
    /// loop-owned state, not threads.
    fn reap(&self) {
        // ordering: Relaxed merges are exact here — the `closed` Acquire
        // load below pairs with the owning loop's Release store, which
        // happens after its last counter write, so every Relaxed tally
        // of a closed connection is visible before it is folded in.
        let mut conns = self.conns.lock().expect("connection registry lock");
        let mut i = 0;
        while i < conns.len() {
            // lint: allow(no-panic) — `i < conns.len()` is the loop
            // guard and `swap_remove` only shrinks the vec after `i` is
            // re-checked.
            if conns[i].closed.load(Ordering::Acquire) {
                let state = conns.swap_remove(i);
                let c = &state.counters;
                self.closed
                    .frames_in
                    .fetch_add(c.frames_in.load(Ordering::Relaxed), Ordering::Relaxed);
                self.closed
                    .frames_out
                    .fetch_add(c.frames_out.load(Ordering::Relaxed), Ordering::Relaxed);
                self.closed
                    .busy_rejections
                    .fetch_add(c.busy_rejections.load(Ordering::Relaxed), Ordering::Relaxed);
                self.closed
                    .protocol_errors
                    .fetch_add(c.protocol_errors.load(Ordering::Relaxed), Ordering::Relaxed);
                self.closed
                    .read_syscalls
                    .fetch_add(c.read_syscalls.load(Ordering::Relaxed), Ordering::Relaxed);
                self.closed
                    .write_syscalls
                    .fetch_add(c.write_syscalls.load(Ordering::Relaxed), Ordering::Relaxed);
                self.closed.connections.fetch_add(1, Ordering::Relaxed);
            } else {
                i += 1;
            }
        }
    }
}

/// Configures a [`Server`] before it binds.
#[derive(Debug)]
pub struct ServerBuilder {
    engine: Option<Engine>,
    admission_capacity: usize,
    max_frame_len: usize,
    max_connections: usize,
    event_loops: Option<usize>,
    socket_send_buffer: Option<usize>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self {
            engine: None,
            admission_capacity: 256,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_connections: 1024,
            event_loops: None,
            socket_send_buffer: None,
        }
    }
}

impl ServerBuilder {
    /// The engine to serve (default: `Engine::builder().build()`, one
    /// worker per available core). Size its pool with
    /// [`wqrtq_engine::EngineBuilder::workers`].
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Maximum requests admitted onto the pool across all connections
    /// before submits are refused with [`ServerFrame::Busy`]
    /// (default 256).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn admission_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "admission capacity must be positive");
        self.admission_capacity = capacity;
        self
    }

    /// Maximum accepted frame payload in bytes (default 32 MiB).
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn max_frame_len(mut self, len: usize) -> Self {
        assert!(len > 0, "frame length limit must be positive");
        self.max_frame_len = len;
        self
    }

    /// Maximum concurrent connections (default 1024). Each connection
    /// costs a read arena and a slot on an event loop — no threads;
    /// this cap bounds connection-scoped resources the way
    /// `admission_capacity` bounds pool work. Connections beyond the
    /// cap are closed immediately.
    ///
    /// # Panics
    /// Panics if `limit` is zero.
    pub fn max_connections(mut self, limit: usize) -> Self {
        assert!(limit > 0, "connection limit must be positive");
        self.max_connections = limit;
        self
    }

    /// Event-loop threads multiplexing the connections (default: half
    /// the available parallelism, clamped to 1..=4). Loop 0 also owns
    /// the listener; accepted sockets spread round-robin.
    ///
    /// # Panics
    /// Panics if `loops` is zero.
    pub fn event_loops(mut self, loops: usize) -> Self {
        assert!(loops > 0, "need at least one event loop");
        self.event_loops = Some(loops);
        self
    }

    /// Kernel send-buffer size requested (`SO_SNDBUF`) for accepted
    /// sockets. A tuning and test knob: shrinking it makes slow-reader
    /// backpressure observable without megabytes of kernel buffering in
    /// the way. The kernel clamps and doubles the value; `None` (the
    /// default) keeps the system's autotuned sizing.
    pub fn socket_send_buffer(mut self, bytes: usize) -> Self {
        self.socket_send_buffer = Some(bytes);
        self
    }

    /// Binds the listener and starts the event loops.
    ///
    /// # Errors
    /// Propagates socket and poller errors (bind, local address lookup,
    /// poller creation).
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let engine = self.engine.unwrap_or_else(|| Engine::builder().build());
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(engine);
        let shared = Arc::new(Shared {
            engine: engine.clone(),
            admission: Gauge::default(),
            admission_capacity: self.admission_capacity,
            max_frame_len: self.max_frame_len,
            max_connections: self.max_connections,
            socket_send_buffer: self.socket_send_buffer,
            shutting_down: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
            closed: ClosedTotals::default(),
        });
        let loop_count = self.event_loops.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| (n.get() / 2).clamp(1, 4))
                .unwrap_or(1)
        });
        let mut loops = Vec::with_capacity(loop_count);
        let mut wake_rxs = Vec::with_capacity(loop_count);
        for _ in 0..loop_count {
            let (waker, rx) = poll::wake_pair()?;
            loops.push(Arc::new(LoopShared {
                waker,
                wake_pending: AtomicBool::new(false),
                dirty: Mutex::new(Vec::new()),
                incoming: Mutex::new(Vec::new()),
            }));
            wake_rxs.push(rx);
        }
        let mut handles = Vec::with_capacity(loop_count);
        let mut listener = Some(listener);
        for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
            let poller = Poller::new()?;
            poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, INTEREST_READ)?;
            let listener = if index == 0 { listener.take() } else { None };
            if let Some(listener) = &listener {
                poller.add(listener.as_raw_fd(), TOKEN_LISTENER, INTEREST_READ)?;
            }
            let state = EventLoop {
                shared: shared.clone(),
                // lint: allow(no-panic) — `loops` and `wake_rxs` are
                // built with identical lengths a few lines up, and
                // `index` enumerates the latter.
                ls: loops[index].clone(),
                peers: loops.clone(),
                poller,
                wake_rx,
                listener,
                conns: HashMap::new(),
                next_token: TOKEN_FIRST_CONN,
                rr: 0,
                submit_buf: Vec::new(),
                scratch: ProbeCtx::new(),
                events: Vec::new(),
                touched: Vec::new(),
                draining: false,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("wqrtq-loop-{index}"))
                    .spawn(move || state.run())
                    // lint: allow(no-panic) — one-time bind()-path
                    // setup, not the event loop: failing to spawn the
                    // loop thread leaves nothing to serve with.
                    .expect("spawn event-loop thread"),
            );
        }
        Ok(Server {
            shared,
            engine,
            addr,
            loops,
            handles: Mutex::new(handles),
        })
    }
}

/// A TCP front door over a [`Engine`]: length-prefixed binary frames,
/// per-connection pipelining, bounded admission with busy backpressure,
/// and drain-before-close shutdown — served by a nonblocking event
/// loop (see the module docs for the thread model).
///
/// ```no_run
/// use wqrtq_server::{Client, Server};
/// use wqrtq_engine::{Engine, Request, Response};
///
/// let engine = Engine::builder().workers(2).build();
/// let server = Server::builder().engine(engine).bind("127.0.0.1:0").unwrap();
/// let mut client = Client::connect_v2(server.local_addr()).unwrap();
/// client.register_dataset("p", 2, &[2.0, 1.0, 6.0, 3.0]).unwrap();
/// let response = client
///     .submit(&Request::TopK { dataset: "p".into(), weight: vec![0.5, 0.5], k: 1 })
///     .unwrap();
/// assert!(matches!(response, Response::TopK(_)));
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    engine: Arc<Engine>,
    addr: SocketAddr,
    loops: Vec<Arc<LoopShared>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("admission_capacity", &self.admission_capacity)
            .field("max_frame_len", &self.max_frame_len)
            .field("shutting_down", &self.shutting_down)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The bound listener address (use with port 0 to discover the
    /// ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts. Direct (in-process) submissions
    /// against it observe exactly the state wire traffic built — the
    /// differential loopback tests rely on this.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Aggregate counters over live and closed connections.
    pub fn stats(&self) -> ServerStats {
        self.shared.reap();
        // ordering: Relaxed — monitoring snapshot of monotonic tallies;
        // closed-connection exactness comes from `reap`'s Acquire edge,
        // live counters may straggle by an in-progress request.
        let mut stats = ServerStats {
            connections_accepted: self.shared.accepted.load(Ordering::Relaxed),
            in_flight: self.shared.admission.len(),
            frames_in: self.shared.closed.frames_in.load(Ordering::Relaxed),
            frames_out: self.shared.closed.frames_out.load(Ordering::Relaxed),
            busy_rejections: self.shared.closed.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: self.shared.closed.protocol_errors.load(Ordering::Relaxed),
            ..ServerStats::default()
        };
        let conns = self.shared.conns.lock().expect("connection registry lock");
        stats.connections_open = conns.len();
        for state in conns.iter() {
            let c = &state.counters;
            stats.frames_in += c.frames_in.load(Ordering::Relaxed);
            stats.frames_out += c.frames_out.load(Ordering::Relaxed);
            stats.busy_rejections += c.busy_rejections.load(Ordering::Relaxed);
            stats.protocol_errors += c.protocol_errors.load(Ordering::Relaxed);
        }
        stats
    }

    /// Point-in-time counters for every live connection.
    pub fn connection_stats(&self) -> Vec<ConnectionStats> {
        self.shared.reap();
        // ordering: Relaxed — per-connection monitoring snapshot, same
        // contract as `stats()`; the SeqCst in_flight read joins the
        // admission ticket's total order so it never exceeds the cap.
        let conns = self.shared.conns.lock().expect("connection registry lock");
        conns
            .iter()
            .map(|s| ConnectionStats {
                id: s.id,
                peer: s.peer,
                frames_in: s.counters.frames_in.load(Ordering::Relaxed),
                frames_out: s.counters.frames_out.load(Ordering::Relaxed),
                busy_rejections: s.counters.busy_rejections.load(Ordering::Relaxed),
                protocol_errors: s.counters.protocol_errors.load(Ordering::Relaxed),
                in_flight: s.in_flight.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Gracefully shuts down: stop accepting, stop reading on every
    /// connection, drain all in-flight work, flush and close every
    /// socket. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // ordering: SeqCst — once-only shutdown latch; every loop reads
        // it with SeqCst in the same total order as the wake handshake,
        // so a woken loop cannot miss the flag that caused the wake.
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for ls in &self.loops {
            ls.wake();
        }
        let handles: Vec<JoinHandle<()>> = self
            .handles
            .lock()
            .expect("loop handle lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        self.shared.reap();
        // Loops exit once every connection has closed; doomed sockets
        // may leave completions still running on the pool, so wait for
        // the admission gauge to drain before declaring quiescence.
        self.shared.admission.wait_zero();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The reusable per-connection read buffer: `read(2)` appends at
/// `filled`, frames are split off the front in place, and the
/// unconsumed tail is compacted once per burst.
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

/// Loop-local connection state.
struct Conn {
    stream: TcpStream,
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
    /// The last write hit `EWOULDBLOCK`; wait for writability.
    want_write: bool,
    /// Interest currently registered with the poller.
    registered: Option<u32>,
}

impl Conn {
    /// Queues a frame produced on the loop itself. A control reply over
    /// the cap dooms the connection, as a pool completion's does. An
    /// inline answer (`make_room`) first writes the backlog out — a
    /// pipelined burst of them outruns the end-of-cycle flush — and dooms
    /// the connection only if the socket took none of it.
    fn queue(&mut self, bytes: Vec<u8>, make_room: bool) {
        if self.shared.doomed.load(Ordering::Acquire) {
            return;
        }
        let reserved = if make_room {
            self.shared.reserve(true) || {
                flush_writes(self);
                self.shared.reserve(false)
            }
        } else {
            self.shared.reserve(false)
        };
        if reserved {
            self.write_queue.push_back(bytes);
        }
    }

    fn desired_interest(&self) -> u32 {
        let mut want = 0;
        if !self.read_closed {
            want |= INTEREST_READ;
        }
        if self.want_write {
            want |= INTEREST_WRITE;
        }
        want
    }
}

/// One event-loop thread: a poller, its connections, the per-cycle
/// submit batch, and the probe scratch for requests served inline.
struct EventLoop {
    shared: Arc<Shared>,
    ls: Arc<LoopShared>,
    /// Every loop, indexed round-robin by the accepting loop.
    peers: Vec<Arc<LoopShared>>,
    poller: Poller,
    wake_rx: UnixStream,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    rr: usize,
    /// Submits staged during this wake-up, flushed to the engine in one
    /// batched hand-off at the end of the cycle.
    submit_buf: Vec<BatchSubmission>,
    /// [`Engine::serve_inline`]'s scratch, reused across requests.
    scratch: ProbeCtx,
    events: Vec<Event>,
    /// Tokens to write/close-check at the end of the cycle.
    touched: Vec<u64>,
    draining: bool,
}

impl EventLoop {
    fn run(mut self) {
        loop {
            self.events.clear();
            if self.poller.wait(&mut self.events, LOOP_TICK_MS).is_err() {
                break;
            }
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKER => self.on_wake(),
                    token => {
                        if ev.writable {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.want_write = false;
                            }
                        }
                        if ev.readable {
                            self.handle_readable(token);
                        }
                        self.touched.push(token);
                    }
                }
            }
            self.events = events;
            // ordering: SeqCst — shutdown latch read; see `shutdown()`.
            if self.shared.shutting_down.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            // One engine hand-off for every submit this wake-up decoded
            // — the batching that amortises queue wake-ups across a
            // pipelined burst.
            if !self.submit_buf.is_empty() {
                let batch = std::mem::take(&mut self.submit_buf);
                self.shared.engine.submit_batch_with(batch);
            }
            // Completions that landed while this cycle was busy are
            // adopted here rather than through a poller round trip:
            // one opportunistic drain saves a wake syscall per reply
            // batch under load.
            self.on_wake();
            let mut touched = std::mem::take(&mut self.touched);
            touched.sort_unstable();
            touched.dedup();
            for token in touched.drain(..) {
                self.service(token);
            }
            self.touched = touched;
            if !self.submit_buf.is_empty() {
                let batch = std::mem::take(&mut self.submit_buf);
                self.shared.engine.submit_batch_with(batch);
            }
            if self.draining
                && self.conns.is_empty()
                && self
                    .ls
                    .incoming
                    .lock()
                    .expect("incoming list lock")
                    .is_empty()
            {
                break;
            }
        }
    }

    /// Drains the wake pipe and collects cross-thread work: dirty
    /// connections and handed-over sockets.
    fn on_wake(&mut self) {
        // Drain the pipe, then clear the dedupe flag, then take the
        // dirty list. A notify whose swap lands after the clear writes a
        // byte this drain can no longer eat, so the next poll wakes
        // again; one whose swap lands before it pushed its token before
        // the take below. Clearing first would strand that later byte's
        // work: the drain eats the byte, the flag stays set, and every
        // following notify is deduped until the backstop tick.
        poll::drain_wakes(&mut self.wake_rx);
        // ordering: SeqCst — the store must order before this cycle's
        // dirty-list drain in the same total order as `wake()`'s swap,
        // or a racing notify could be deduped against a wake that
        // already consumed its work.
        self.ls.wake_pending.store(false, Ordering::SeqCst);
        let dirty = std::mem::take(&mut *self.ls.dirty.lock().expect("dirty list lock"));
        self.touched.extend(dirty);
        let incoming = std::mem::take(&mut *self.ls.incoming.lock().expect("incoming list lock"));
        for (stream, state) in incoming {
            self.register_conn(stream, state);
        }
    }

    /// Accepts until the listener would block, spreading connections
    /// across the loops.
    fn accept_burst(&mut self) {
        loop {
            // ordering: SeqCst — shutdown latch read; see `shutdown()`.
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                // Transient accept errors (peer vanished between SYN
                // and accept, fd exhaustion) must not kill the loop;
                // level-triggered readiness retries anything pending.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        self.shared.reap();
        // The connection cap bounds arenas and loop slots the way
        // admission bounds pool work; over-cap peers are dropped at
        // the door.
        let open = self
            .shared
            .conns
            .lock()
            .expect("connection registry lock")
            .len();
        if open >= self.shared.max_connections {
            drop(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.shared.socket_send_buffer {
            let _ = poll::set_socket_buffers(stream.as_raw_fd(), Some(bytes), None);
        }
        // ordering: Relaxed — monotonic accept tally, read only by
        // stats snapshots.
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        // lint: allow(no-panic) — `% self.peers.len()` keeps the index
        // in bounds, and the loop set is non-empty by construction.
        let home = self.peers[self.rr % self.peers.len()].clone();
        self.rr += 1;
        let state = Arc::new(ConnShared {
            // ordering: Relaxed — unique-id ticket; fetch_add is atomic
            // at any ordering.
            id: self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed),
            peer: stream.peer_addr().ok(),
            counters: ConnCounters::default(),
            in_flight: AtomicUsize::new(0),
            out: Mutex::new(VecDeque::new()),
            backlog: AtomicUsize::new(0),
            backlog_cap: self.shared.admission_capacity + CONTROL_SLACK,
            doomed: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            home: home.clone(),
            token: AtomicU64::new(TOKEN_NONE),
        });
        self.shared
            .conns
            .lock()
            .expect("connection registry lock")
            .push(state.clone());
        if Arc::ptr_eq(&home, &self.ls) {
            self.register_conn(stream, state);
        } else {
            home.incoming
                .lock()
                .expect("incoming list lock")
                .push((stream, state));
            home.wake();
        }
    }

    fn register_conn(&mut self, stream: TcpStream, state: Arc<ConnShared>) {
        let token = self.next_token;
        self.next_token += 1;
        state.token.store(token, Ordering::Release);
        let mut conn = Conn {
            stream,
            shared: state,
            greeted: false,
            arena: RecvArena::default(),
            write_queue: VecDeque::new(),
            head_written: 0,
            read_closed: self.draining,
            want_write: false,
            registered: None,
        };
        if !conn.read_closed {
            let fd = conn.stream.as_raw_fd();
            if self.poller.add(fd, token, INTEREST_READ).is_ok() {
                conn.registered = Some(INTEREST_READ);
            } else {
                conn.shared.doomed.store(true, Ordering::Release);
            }
        }
        self.conns.insert(token, conn);
        // Immediate close check for the doomed / accepted-mid-shutdown
        // cases.
        self.touched.push(token);
    }

    /// Reads a burst, splitting and dispatching every complete frame.
    fn handle_readable(&mut self, token: u64) {
        let Self {
            conns,
            submit_buf,
            scratch,
            shared,
            ..
        } = self;
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        if conn.read_closed || conn.shared.doomed.load(Ordering::Acquire) {
            return;
        }
        let mut intake = Intake::new(submit_buf, scratch);
        let mut eof = false;
        let mut reads = 0;
        while reads < MAX_READS_PER_EVENT {
            conn.arena.ensure_space(READ_CHUNK);
            let filled = conn.arena.filled;
            // lint: allow(no-panic) — `ensure_space` just grew the
            // arena, so `filled <= buf.len()` and the range is valid.
            let result = conn.stream.read(&mut conn.arena.buf[filled..]);
            // ordering: Relaxed — monotonic syscall tally, read only by
            // stats snapshots.
            conn.shared
                .counters
                .read_syscalls
                .fetch_add(1, Ordering::Relaxed);
            match result {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    reads += 1;
                    let space = conn.arena.buf.len() - conn.arena.filled;
                    conn.arena.filled += n;
                    // A panic while serving a frame must not take the
                    // loop (and every other connection) down with it.
                    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        process_arena(shared, conn, &mut intake);
                    }));
                    if served.is_err() {
                        // ordering: Relaxed tally; the doom flag's
                        // Release store is what publishes the failure.
                        conn.shared
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        conn.shared.doomed.store(true, Ordering::Release);
                    }
                    if conn.read_closed || conn.shared.doomed.load(Ordering::Acquire) {
                        return;
                    }
                    // A short read means the socket is (almost surely)
                    // drained; skip the would-block confirmation
                    // syscall. Level-triggered polling catches the
                    // rare racing byte.
                    if n < space {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transport failure: nothing to tell the peer, just
                // drain in-flight replies and tear down.
                Err(_) => {
                    conn.read_closed = true;
                    return;
                }
            }
        }
        if eof {
            // A connection that closes without sending a byte (port
            // scan, health probe) is not a protocol violation — just a
            // goodbye. Dying mid-preamble is one; dying mid-frame is an
            // abrupt disconnect (drain what was admitted, silently).
            if !conn.greeted && conn.arena.filled > 0 {
                protocol_error(shared, conn, BAD_PREAMBLE.into());
            }
            conn.read_closed = true;
        }
    }

    /// End-of-cycle per-connection service: adopt completed replies,
    /// write as much as the socket takes, close when eligible.
    fn service(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.shared.doomed.load(Ordering::Acquire) {
            flush_writes(conn);
            let want = conn.desired_interest();
            match (conn.registered, want) {
                (Some(_), 0) => {
                    let _ = self.poller.delete(conn.stream.as_raw_fd());
                    conn.registered = None;
                }
                (Some(current), want)
                    if current != want
                        && self
                            .poller
                            .modify(conn.stream.as_raw_fd(), token, want)
                            .is_ok() =>
                {
                    conn.registered = Some(want);
                }
                (None, want)
                    if want != 0
                        && self
                            .poller
                            .add(conn.stream.as_raw_fd(), token, want)
                            .is_ok() =>
                {
                    conn.registered = Some(want);
                }
                _ => {}
            }
        }
        let doomed = conn.shared.doomed.load(Ordering::Acquire);
        // `in_flight` is read before `backlog`: completions push their
        // reply (raising the backlog) before decrementing `in_flight`,
        // so a zero read here means every admitted reply is visible.
        // ordering: SeqCst — close-eligibility check; joins the same
        // total order as the completion-side SeqCst updates (see the
        // comment above) so no admitted reply can be missed.
        let drained = conn.read_closed
            && conn.shared.in_flight.load(Ordering::SeqCst) == 0
            && conn.shared.backlog.load(Ordering::SeqCst) == 0;
        if doomed || drained {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.registered.is_some() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        conn.shared.closed.store(true, Ordering::Release);
    }

    /// Shutdown entry: close the listener, serve frames already
    /// buffered, then stop reading everywhere. Replies drain before
    /// each close.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        let Self {
            conns,
            submit_buf,
            scratch,
            shared,
            touched,
            ..
        } = self;
        for token in tokens {
            if let Some(conn) = conns.get_mut(&token) {
                if !conn.read_closed && !conn.shared.doomed.load(Ordering::Acquire) {
                    process_arena(shared, conn, &mut Intake::new(submit_buf, scratch));
                }
                conn.read_closed = true;
                touched.push(token);
            }
        }
    }
}

/// Where one readiness event of one connection puts its submits: the
/// cycle's pool batch, or — for what [`Engine::serve_inline`] finds
/// cheap, while the event has misses left to spend — the loop itself.
struct Intake<'a> {
    batch: &'a mut Vec<BatchSubmission>,
    scratch: &'a mut ProbeCtx,
    misses_left: usize,
}

impl<'a> Intake<'a> {
    fn new(batch: &'a mut Vec<BatchSubmission>, scratch: &'a mut ProbeCtx) -> Self {
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
        let probed = self.scratch.nodes_visited;
        let response = engine.serve_inline(request, trace_id, self.scratch)?;
        // Hits and stats walk no index; only an executed miss spends.
        if self.scratch.nodes_visited != probed {
            self.misses_left -= 1;
        }
        Some(response)
    }
}

/// Splits and serves every complete frame in the arena, consuming the
/// processed prefix.
fn process_arena(shared: &Arc<Shared>, conn: &mut Conn, intake: &mut Intake<'_>) {
    // The preamble is acknowledged with a Hello frame; anything else
    // (the retired v1 magic included) is a protocol error.
    if !conn.greeted {
        if conn.arena.filled < 4 {
            return;
        }
        // lint: allow(no-panic) — guarded by the `filled < 4` early
        // return just above.
        if conn.arena.buf[..4] != MAGIC_V2 {
            protocol_error(shared, conn, BAD_PREAMBLE.into());
            return;
        }
        conn.greeted = true;
        push_control(
            shared,
            conn,
            CONNECTION_ID,
            ServerFrame::Hello {
                version: PROTOCOL_VERSION,
                max_frame_len: shared.max_frame_len as u64,
            },
        );
        conn.arena.consume_prefix(4);
    }
    let mut cursor = 0;
    while !conn.read_closed && !conn.shared.doomed.load(Ordering::Acquire) {
        // lint: allow(no-panic) — `cursor` only advances by `consumed`,
        // which `split_frame` bounds by the window it was handed, so
        // `cursor <= filled <= buf.len()` throughout.
        let window = &conn.arena.buf[cursor..conn.arena.filled];
        match frame::split_frame(window, shared.max_frame_len) {
            Ok(None) => break,
            Ok(Some((consumed, payload))) => {
                // ordering: Relaxed — monotonic frame tally, read only
                // by stats snapshots.
                conn.shared
                    .counters
                    .frames_in
                    .fetch_add(1, Ordering::Relaxed);
                // lint: allow(no-panic) — `payload` is a sub-range of
                // the window `split_frame` was handed, offset back into
                // the same buffer.
                let bytes = &conn.arena.buf[cursor + payload.start..cursor + payload.end];
                let decoded = ClientFrame::decode(bytes);
                cursor += consumed;
                match decoded {
                    Ok((id, message)) => dispatch(shared, conn, intake, id, message),
                    Err(e) => {
                        protocol_error(shared, conn, e.to_string());
                        break;
                    }
                }
            }
            Err(FrameError::Oversized { len, max }) => {
                protocol_error(
                    shared,
                    conn,
                    format!("frame payload of {len} bytes exceeds the {max}-byte limit"),
                );
                break;
            }
            // split_frame never reports other variants on in-memory
            // input, but stay total.
            Err(_) => {
                conn.read_closed = true;
                break;
            }
        }
    }
    conn.arena.consume_prefix(cursor);
}

/// Serves one decoded frame: control operations on the loop, submits
/// through admission to the loop or into the cycle's batch.
fn dispatch(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    intake: &mut Intake<'_>,
    id: u64,
    message: ClientFrame,
) {
    // Id 0 is reserved for connection-level errors; a client using it
    // could not tell its own reply from a fatal ProtocolError.
    if id == CONNECTION_ID {
        protocol_error(shared, conn, "request id 0 is reserved".into());
        return;
    }
    match message {
        ClientFrame::Ping => push_control(shared, conn, id, ServerFrame::Pong),
        ClientFrame::RegisterDataset { name, dim, coords } => {
            let reply = match shared.engine.register_dataset(&name, dim, coords) {
                Ok(()) => ServerFrame::Registered,
                Err(e) => ServerFrame::Reply(Response::Error(e.to_string())),
            };
            push_control(shared, conn, id, reply);
        }
        ClientFrame::RegisterWeights { name, weights } => {
            let reply = match register_weights(shared, &name, weights) {
                Ok(()) => ServerFrame::Registered,
                Err(msg) => ServerFrame::Reply(Response::Error(msg)),
            };
            push_control(shared, conn, id, reply);
        }
        ClientFrame::Compact { dataset } => {
            let reply = match shared.engine.compact(&dataset) {
                Ok(ran) => ServerFrame::Compacted { ran },
                Err(e) => ServerFrame::Reply(Response::Error(e.to_string())),
            };
            push_control(shared, conn, id, reply);
        }
        ClientFrame::Submit(request) => submit(shared, conn, intake, id, request),
    }
}

fn submit(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    intake: &mut Intake<'_>,
    id: u64,
    request: Request,
) {
    if !shared.admission.try_acquire(shared.admission_capacity) {
        // ordering: Relaxed — monotonic busy tally, read only by stats
        // snapshots.
        conn.shared
            .counters
            .busy_rejections
            .fetch_add(1, Ordering::Relaxed);
        push_control(shared, conn, id, ServerFrame::Busy);
        return;
    }
    // Wire trace ids compose the connection and frame identity, so a
    // span in `Engine::trace_snapshot` points back to one request of
    // one client.
    let trace_id = (conn.shared.id << 32) | (id & 0xFFFF_FFFF);
    let tracer = shared.engine.tracer();
    let admitted = tracer.now_nanos();
    // The admission span covers the gauge acquisition and the staging
    // for the pool — boundary cost a worker-side span can never see.
    // Recorded with the connection id as the shard hint.
    let shard = conn.shared.id as usize;
    let record_admission = |ended: u64| {
        let span = SpanRecord {
            trace_id,
            stage: Stage::Admission,
            start_nanos: admitted,
            duration_nanos: ended.saturating_sub(admitted),
        };
        tracer.record(shard, span);
    };
    if let Some(response) = intake.serve_inline(&shared.engine, &request, trace_id) {
        // Nothing was staged: the span ends where serving began.
        record_admission(admitted);
        let bytes = encode_admitted(shared, &conn.shared, id, trace_id, response);
        conn.queue(bytes, true);
        return;
    }
    // ordering: SeqCst — in_flight joins the close-eligibility total
    // order: the increment must be globally visible before the reply
    // can decrement, or the loop could observe 0/0 and close early.
    conn.shared.in_flight.fetch_add(1, Ordering::SeqCst);
    let is_plan = request.kind() == wqrtq_engine::RequestKind::WhyNot;
    let complete = completion(shared.clone(), conn.shared.clone(), id, trace_id);
    let mut item = BatchSubmission::new(request, trace_id, complete);
    if is_plan {
        // Progressive partial frames ride the same bounded reply
        // backlog ahead of the final reply (same worker thread, so
        // order is guaranteed). They are best-effort: when a slow
        // reader fills the backlog, partials are dropped — only the
        // final reply dooms the connection on overflow.
        let shared = shared.clone();
        let state = conn.shared.clone();
        item = item.with_progress(move |delta| {
            let bytes = encode_reply(&shared, &state, id, trace_id, ServerFrame::ReplyPart(delta));
            state.push_frame(bytes, true);
            state.notify(true);
        });
    }
    intake.batch.push(item);
    record_admission(tracer.now_nanos());
}

/// Builds the completion for one admitted request: runs on a pool
/// worker, encodes the reply there, and queues it for the loop.
fn completion(
    shared: Arc<Shared>,
    state: Arc<ConnShared>,
    id: u64,
    trace_id: u64,
) -> impl FnOnce(Response) + Send + 'static {
    move |response: Response| {
        let bytes = encode_admitted(&shared, &state, id, trace_id, response);
        // Push before dropping `in_flight`, notify after: the loop
        // treats `in_flight == 0 && backlog == 0` as fully drained, and
        // this ordering makes that check race-free.
        // ordering: SeqCst — see the close-eligibility comment in
        // `service`; the decrement must order after the backlog raise.
        state.push_frame(bytes, false);
        state.in_flight.fetch_sub(1, Ordering::SeqCst);
        state.notify(false);
    }
}

/// The reply frame of an admitted request, on whichever thread answered
/// it (a pool completion or the loop): releases the admission permit,
/// fills a `Stats` reply's server counters, and encodes, recording the
/// serialize stage.
fn encode_admitted(
    shared: &Shared,
    state: &ConnShared,
    id: u64,
    trace_id: u64,
    mut response: Response,
) -> Vec<u8> {
    // Admission is released *before* the reply is enqueued: once a
    // client has read a response, its permit is guaranteed free, so a
    // retry after draining can never spuriously see Busy.
    shared.admission.release();
    // Server counters exist only at this layer; the engine leaves the
    // slot empty for us to fill.
    let is_stats = match &mut response {
        Response::Stats(stats) => {
            stats.server = Some(shared.server_counters());
            true
        }
        _ => false,
    };
    let started = std::time::Instant::now();
    let bytes = encode_reply(shared, state, id, trace_id, ServerFrame::Reply(response));
    // The stats reply serializes after the snapshot it carries was
    // captured; recording it would make the engine's histograms diverge
    // from that snapshot at quiescence.
    if !is_stats {
        shared
            .engine
            .record_stage(Stage::Serialize, started.elapsed());
    }
    bytes
}

/// Encodes one server frame into its wire bytes (length prefix
/// included), recording the serialize span for traced frame types.
fn encode_reply(
    shared: &Shared,
    state: &ConnShared,
    id: u64,
    trace_id: u64,
    message: ServerFrame,
) -> Vec<u8> {
    let tracer = shared.engine.tracer();
    let traced = matches!(message, ServerFrame::Reply(_) | ServerFrame::ReplyPart(_));
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

/// Queues a control reply (pong, hello, busy, registration acks, typed
/// and protocol errors) produced on the loop thread itself.
fn push_control(shared: &Shared, conn: &mut Conn, id: u64, message: ServerFrame) {
    let trace_id = (conn.shared.id << 32) | (id & 0xFFFF_FFFF);
    conn.queue(
        encode_reply(shared, &conn.shared, id, trace_id, message),
        false,
    );
}

/// Charges a protocol violation: counted, reported to the peer, and the
/// connection stops reading (replies still drain, then it closes).
fn protocol_error(shared: &Arc<Shared>, conn: &mut Conn, message: String) {
    // ordering: Relaxed — monotonic violation tally, read only by stats
    // snapshots.
    conn.shared
        .counters
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    push_control(
        shared,
        conn,
        CONNECTION_ID,
        ServerFrame::ProtocolError(message),
    );
    conn.read_closed = true;
}

/// Adopts completed replies and writes the queue out with vectored
/// writes until the socket would block.
fn flush_writes(conn: &mut Conn) {
    conn.write_queue
        .extend(conn.shared.out.lock().expect("reply queue lock").drain(..));
    while !conn.write_queue.is_empty() {
        let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
        let mut count = 0;
        for (slot, frame) in slices.iter_mut().zip(&conn.write_queue) {
            // Only the head frame can be partly written already.
            let skip = if count == 0 { conn.head_written } else { 0 };
            *slot = IoSlice::new(frame.get(skip..).unwrap_or_default());
            count += 1;
        }
        let result = conn
            .stream
            .write_vectored(slices.get(..count).unwrap_or_default());
        // ordering: Relaxed — monotonic syscall tally, read only by
        // stats snapshots.
        conn.shared
            .counters
            .write_syscalls
            .fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(0) => {
                conn.shared.doomed.store(true, Ordering::Release);
                return;
            }
            Ok(mut written) => {
                while written > 0 {
                    let head_len = conn
                        .write_queue
                        .front()
                        // lint: allow(no-panic) — the kernel cannot
                        // report more bytes written than the queued
                        // slices it was handed.
                        .expect("written bytes imply a queued frame")
                        .len();
                    let remaining = head_len - conn.head_written;
                    if written >= remaining {
                        conn.write_queue.pop_front();
                        conn.head_written = 0;
                        written -= remaining;
                        // ordering: Relaxed frame tally; the SeqCst
                        // backlog decrement joins the reserve/undo and
                        // close-eligibility total order.
                        conn.shared
                            .counters
                            .frames_out
                            .fetch_add(1, Ordering::Relaxed);
                        conn.shared.backlog.fetch_sub(1, Ordering::SeqCst);
                    } else {
                        conn.head_written += written;
                        written = 0;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                conn.want_write = true;
                return;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // The peer stopped reading (or vanished): queued frames
            // have nowhere to go.
            Err(_) => {
                conn.shared.doomed.store(true, Ordering::Release);
                return;
            }
        }
    }
    conn.want_write = false;
}

/// Validates and registers an inline weight population through the
/// fallible [`Weight::try_new`], so a hostile frame gets a typed error
/// back instead of panicking the loop thread, and wire registration
/// accepts exactly what in-process registration does.
fn register_weights(shared: &Shared, name: &str, weights: Vec<Vec<f64>>) -> Result<(), String> {
    let population = weights
        .into_iter()
        .map(Weight::try_new)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| {
            format!(
                "invalid weighting vector in weight set `{name}`: components must be \
                 finite, non-negative, and sum to 1"
            )
        })?;
    shared
        .engine
        .register_weights(name, population)
        .map_err(|e| e.to_string())
}
