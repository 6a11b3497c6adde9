//! The TCP serving front door: one event-loop thread drives every
//! connection's state machine over nonblocking sockets, with bounded
//! admission and graceful shutdown.
//!
//! ## Driver and connection
//!
//! A connection's logic lives in `conn.rs`'s `Connection`, which holds
//! no fd, no poller and no clock: the preamble and its
//! [`ServerFrame::Hello`], a reusable **read arena** from which complete
//! frames are split and decoded *in place*
//! ([`crate::frame::split_frame`]), dispatch, admission, protocol
//! errors, the bounded write queue, the interest it waits for and when
//! it may close. This module is the driver around it. The one
//! **event-loop thread** (`wqrtq-loop-0`) owns a readiness poller
//! (`epoll` on Linux, `poll(2)` elsewhere — see `poll.rs`), the listener
//! and every connection, keyed by poller token. Nothing blocks: the loop
//! sleeps only in its poller, and cross-thread wakeups (a pool worker
//! finished a response, shutdown was requested) go through a self-pipe.
//! The paper's work runs on the engine pool; the loop only decodes,
//! answers cheap requests and encodes, so one loop is what the measured
//! hosts need.
//!
//! One cycle: wait for readiness → each readable connection reads a
//! burst, dispatches every complete frame and writes out the answers it
//! got on the loop (what earlier connections staged goes to the engine
//! just before that write) → the submits staged this cycle go to the
//! engine in **one** [`Engine::submit_batch_with`] call → completions that arrived
//! meanwhile are adopted → each touched connection writes its queue out
//! with vectored writes, re-registers the interest it asks for, and
//! closes once it says it may.
//!
//! Control operations (registration, compaction, ping) run on the loop;
//! [`ClientFrame::Submit`] goes through the admission gauge and is
//! either answered on the loop or staged for the pool. A submit that is
//! cheap by construction never leaves the loop that decoded it:
//! [`Engine::serve_inline`] answers a `Stats`, a cache hit of any query
//! kind, a `TopK` miss with `k` at most one leaf's worth, or a named
//! `ReverseTopKBi` miss whose score table is built, over a built,
//! overlay-free dataset on the loop's own probe scratch. The loop
//! never builds an index, never waits for a writer, never runs work
//! that grows with a dataset's overlay, and runs at most 64 misses per
//! connection per readiness event — the rest of that burst is staged, so
//! a deep pipeline still gets the workers. A plan request joins the
//! batch with a progress observer attached that streams its
//! [`ServerFrame::ReplyPart`] frames ahead of the final reply.
//!
//! Responses are encoded on the thread that answered them (the pool
//! worker, or the loop for an inline answer), carry the client's
//! request id, and complete out of submission order when a later
//! request finishes first.
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
//! dropped first). A killed or reset connection's reads still queued on
//! the pool are skipped. Slow readers pay, not the pool.
//!
//! Running out of file descriptors takes the listener out of the poller
//! until a connection closes or a backstop tick passes, so the pending
//! connection the kernel keeps queued does not spin the loop.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (also run on drop) closes the listener, stops
//! reading on every connection (frames already buffered are still
//! served), **drains in-flight requests** — every admitted request's
//! response is written out — then flushes and closes each socket. Work
//! the server said yes to is finished; work it never admitted was
//! already refused with `Busy`.
//!
//! [`ServerFrame::Hello`]: crate::wire::ServerFrame::Hello
//! [`ServerFrame::ReplyPart`]: crate::wire::ServerFrame::ReplyPart
//! [`ServerFrame::Busy`]: crate::wire::ServerFrame::Busy
//! [`ClientFrame::Submit`]: crate::wire::ClientFrame::Submit

use crate::conn::{ConnShared, Connection, Intake, CONTROL_SLACK};
use crate::frame::DEFAULT_MAX_FRAME_LEN;
use crate::poll::{self, Event, Poller, WakeHandle, INTEREST_READ};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wqrtq_engine::{BatchSubmission, Engine, ProbeCtx, ServerCounters};

/// Poller timeout: wakeups drive everything, the tick is a backstop.
const LOOP_TICK_MS: i32 = 500;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// `accept(2)` errors that mean "out of file descriptors" (process and
/// system-wide; the same numbers on Linux and the BSDs).
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

/// A counting gauge with capacity-checked acquisition and a drain wait.
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    count: Mutex<usize>,
    zero: Condvar,
}

impl Gauge {
    /// Increments unless the gauge already holds `capacity`.
    pub(crate) fn try_acquire(&self, capacity: usize) -> bool {
        let mut count = self.count.lock().expect("gauge lock");
        if *count >= capacity {
            return false;
        }
        *count += 1;
        true
    }

    pub(crate) fn release(&self) {
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

    pub(crate) fn len(&self) -> usize {
        *self.count.lock().expect("gauge lock")
    }
}

/// The server's tallies. The event loop is their only writer.
#[derive(Debug, Default)]
pub(crate) struct Tallies {
    pub(crate) accepted: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) busy_rejections: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) read_syscalls: AtomicU64,
    pub(crate) write_syscalls: AtomicU64,
}

/// Server-wide state: the engine, admission, limits, the tallies, and
/// what other threads hand the loop — its wake pipe and the connections
/// with fresh replies.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) admission: Gauge,
    pub(crate) admission_capacity: usize,
    pub(crate) max_frame_len: usize,
    max_connections: usize,
    socket_send_buffer: Option<usize>,
    shutting_down: AtomicBool,
    next_conn_id: AtomicU64,
    /// Connections accepted and not yet closed.
    open: AtomicU64,
    waker: WakeHandle,
    /// Deduplicates waker writes: one self-pipe byte per batch of
    /// completions, not one per completion.
    wake_pending: AtomicBool,
    /// Tokens with fresh replies (or a fresh doom) to look at.
    pub(crate) dirty: Mutex<Vec<u64>>,
    pub(crate) tallies: Tallies,
}

impl Shared {
    /// The server-wide state, and the receiving end of the loop's wake
    /// pipe.
    pub(crate) fn new(
        engine: Arc<Engine>,
        config: &ServerBuilder,
    ) -> std::io::Result<(Self, UnixStream)> {
        let (waker, wake_rx) = poll::wake_pair()?;
        let shared = Self {
            engine,
            admission: Gauge::default(),
            admission_capacity: config.admission_capacity,
            max_frame_len: config.max_frame_len,
            max_connections: config.max_connections,
            socket_send_buffer: config.socket_send_buffer,
            shutting_down: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            open: AtomicU64::new(0),
            waker,
            wake_pending: AtomicBool::new(false),
            dirty: Mutex::new(Vec::new()),
            tallies: Tallies::default(),
        };
        Ok((shared, wake_rx))
    }

    pub(crate) fn wake(&self) {
        // ordering: SeqCst — wake-dedupe handshake with the loop's
        // `swap(false)` after polling: both swaps must sit in one total
        // order with the dirty-list push, or a completion could observe
        // a stale `true`, skip the syscall, and strand a wakeup.
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    /// The server's counters: the open gauge, the admission gauge, and
    /// the loop's tallies.
    pub(crate) fn counters(&self) -> ServerCounters {
        // ordering: Relaxed — monitoring snapshot of monotonic tallies;
        // the loop's tallies may straggle by the request it is serving.
        let load = |tally: &AtomicU64| tally.load(Ordering::Relaxed);
        let t = &self.tallies;
        ServerCounters {
            connections_accepted: load(&t.accepted),
            connections_open: load(&self.open),
            frames_in: load(&t.frames_in),
            frames_out: load(&t.frames_out),
            busy_rejections: load(&t.busy_rejections),
            protocol_errors: load(&t.protocol_errors),
            in_flight: self.admission.len() as u64,
            read_syscalls: load(&t.read_syscalls),
            write_syscalls: load(&t.write_syscalls),
        }
    }
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

/// Configures a [`Server`] before it binds.
#[derive(Debug)]
pub struct ServerBuilder {
    engine: Option<Engine>,
    admission_capacity: usize,
    max_frame_len: usize,
    max_connections: usize,
    socket_send_buffer: Option<usize>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self {
            engine: None,
            admission_capacity: 256,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_connections: 1024,
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
    /// [`ServerFrame::Busy`]: crate::wire::ServerFrame::Busy
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
    /// costs a read arena and a slot on the event loop — no threads;
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

    /// Retired: the server runs one event-loop thread, so `1` is the
    /// only value accepted and it changes nothing. The method stays only
    /// because `benchmark/` compiles against it.
    ///
    /// # Panics
    /// Panics if `loops` is not 1.
    pub fn event_loops(self, loops: usize) -> Self {
        assert_eq!(loops, 1, "the server runs one event loop");
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

    /// Binds the listener and starts the event-loop thread.
    ///
    /// # Errors
    /// Propagates socket and poller errors (bind, local address lookup,
    /// wake pipe and poller creation).
    pub fn bind(mut self, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let engine = self
            .engine
            .take()
            .unwrap_or_else(|| Engine::builder().build());
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (shared, wake_rx) = Shared::new(Arc::new(engine), &self)?;
        let shared = Arc::new(shared);
        let poller = Poller::new()?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, INTEREST_READ)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, INTEREST_READ)?;
        let state = EventLoop {
            shared: shared.clone(),
            poller,
            wake_rx,
            listener: Some(listener),
            accept_paused: None,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            submit_buf: Vec::new(),
            scratch: ProbeCtx::new(),
            events: Vec::new(),
            touched: Vec::new(),
            draining: false,
        };
        let handle = std::thread::Builder::new()
            .name("wqrtq-loop-0".into())
            .spawn(move || state.run())
            // lint: allow(no-panic) — one-time bind()-path setup, not
            // the event loop: failing to spawn the loop thread leaves
            // nothing to serve with.
            .expect("spawn event-loop thread");
        Ok(Server {
            shared,
            addr,
            handle: Mutex::new(Some(handle)),
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
    addr: SocketAddr,
    handle: Mutex<Option<JoinHandle<()>>>,
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
        &self.shared.engine
    }

    /// The server's counters — the same [`ServerCounters`] a wire
    /// `Stats` reply carries.
    pub fn stats(&self) -> ServerCounters {
        self.shared.counters()
    }

    /// Gracefully shuts down: stop accepting, stop reading on every
    /// connection, drain all in-flight work, flush and close every
    /// socket. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // ordering: SeqCst — once-only shutdown latch; the loop reads it
        // with SeqCst in the same total order as the wake handshake, so
        // a woken loop cannot miss the flag that caused the wake.
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.wake();
        if let Some(handle) = self.handle.lock().expect("loop handle lock").take() {
            let _ = handle.join();
        }
        // The loop exits once every connection has closed; doomed sockets
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

/// A connection in the loop's slab: its state machine, plus the interest
/// currently registered with the poller for its socket.
struct Slot {
    conn: Connection<TcpStream>,
    registered: Option<u32>,
}

/// The event-loop thread: a poller, the listener, every connection, the
/// per-cycle submit batch, and the probe scratch for requests served
/// inline.
struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    wake_rx: UnixStream,
    listener: Option<TcpListener>,
    /// Set while the listener is out of the poller after the process ran
    /// out of fds: when, and how many connections were open then.
    accept_paused: Option<(Instant, u64)>,
    conns: HashMap<u64, Slot>,
    next_token: u64,
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
                        if let Some(slot) = self.conns.get_mut(&token) {
                            if ev.writable {
                                slot.conn.on_writable();
                            }
                            if ev.readable {
                                let mut intake =
                                    Intake::new(&mut self.submit_buf, &mut self.scratch);
                                slot.conn.on_readable(&mut intake);
                                // Answers served inline go out now, not
                                // behind the next connection's inline
                                // work: held to the end of the cycle,
                                // two depth-1 peers fall into lockstep
                                // and each waits for both answers. What
                                // is staged already goes to the pool
                                // first, as it would before any write.
                                if slot.conn.has_queued_output() {
                                    if !self.submit_buf.is_empty() {
                                        let batch = std::mem::take(&mut self.submit_buf);
                                        self.shared.engine.submit_batch_with(batch);
                                    }
                                    slot.conn.flush();
                                }
                            }
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
            self.submit_staged();
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
            self.submit_staged();
            self.resume_accept();
            if self.draining && self.conns.is_empty() {
                break;
            }
        }
    }

    fn submit_staged(&mut self) {
        if !self.submit_buf.is_empty() {
            let batch = std::mem::take(&mut self.submit_buf);
            self.shared.engine.submit_batch_with(batch);
        }
    }

    /// Drains the wake pipe and collects the connections other threads
    /// marked dirty.
    fn on_wake(&mut self) {
        // Drain the pipe, then clear the dedupe flag, then take the
        // dirty list. A notify whose swap lands after the clear writes a
        // byte this drain can no longer eat, so the next poll wakes
        // again; one whose swap lands before it pushed its token before
        // the take below. Clearing first would strand that later byte's
        // work: the drain eats the byte, the flag stays set, and every
        // following notify is deduped until the backstop tick.
        poll::drain_wakes(&mut self.wake_rx);
        let shared = &self.shared;
        // ordering: SeqCst — the store must order before this cycle's
        // dirty-list drain in the same total order as `wake()`'s swap,
        // or a racing notify could be deduped against a wake that
        // already consumed its work.
        shared.wake_pending.store(false, Ordering::SeqCst);
        let dirty = std::mem::take(&mut *shared.dirty.lock().expect("dirty list lock"));
        self.touched.extend(dirty);
    }

    /// Accepts until the listener would block.
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
                // Out of fds: the kernel keeps the connection queued, so
                // the level-triggered listener would wake this loop at
                // once, forever. Park it until a close frees an fd.
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => {
                    if self.poller.delete(listener.as_raw_fd()).is_ok() {
                        // ordering: Relaxed — a hint: any close since
                        // the pause may have freed an fd.
                        let open = self.shared.open.load(Ordering::Relaxed);
                        self.accept_paused = Some((Instant::now(), open));
                    }
                    return;
                }
                // Other transient accept errors (peer vanished between
                // SYN and accept) must not kill the loop;
                // level-triggered readiness retries anything pending.
                Err(_) => return,
            }
        }
    }

    /// Re-registers a parked listener once a connection closed since the
    /// pause, or a backstop tick has passed.
    fn resume_accept(&mut self) {
        let (Some((since, open)), Some(listener)) = (self.accept_paused, &self.listener) else {
            return;
        };
        // ordering: Relaxed — see the pause in `accept_burst`.
        let closed_since = self.shared.open.load(Ordering::Relaxed) < open;
        if (closed_since || since.elapsed() >= Duration::from_millis(LOOP_TICK_MS as u64))
            && self
                .poller
                .add(listener.as_raw_fd(), TOKEN_LISTENER, INTEREST_READ)
                .is_ok()
        {
            self.accept_paused = None;
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        // The connection cap bounds arenas and loop slots the way
        // admission bounds pool work; over-cap peers are dropped at
        // the door.
        // ordering: Relaxed — the open gauge is a cap check and a
        // stats reading; a close racing this accept only makes the
        // cap momentarily conservative.
        if self.shared.open.load(Ordering::Relaxed) >= self.shared.max_connections as u64 {
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Some(bytes) = self.shared.socket_send_buffer {
            let _ = poll::set_socket_buffers(stream.as_raw_fd(), Some(bytes), None);
        }
        // ordering: Relaxed — the open gauge (see above), the loop's
        // own accept tally, and a unique-id ticket (fetch_add is atomic
        // at any ordering).
        self.shared.open.fetch_add(1, Ordering::Relaxed);
        self.shared.tallies.accepted.fetch_add(1, Ordering::Relaxed);
        let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let cap = self.shared.admission_capacity + CONTROL_SLACK;
        let state = Arc::new(ConnShared::new(id, cap, self.shared.clone()));
        let token = self.next_token;
        self.next_token += 1;
        state.set_token(token);
        // Accepting stops before the drain begins, so a new connection
        // always reads.
        let registered = match self.poller.add(stream.as_raw_fd(), token, INTEREST_READ) {
            Ok(()) => Some(INTEREST_READ),
            Err(_) => {
                state.doom();
                None
            }
        };
        let conn = Connection::new(stream, state);
        self.conns.insert(token, Slot { conn, registered });
        // Immediate close check for a connection the poller refused.
        self.touched.push(token);
    }

    /// End-of-cycle per-connection service: write what the connection
    /// has queued, then close it or register the interest it asks for.
    fn service(&mut self, token: u64) {
        let Some(slot) = self.conns.get_mut(&token) else {
            return;
        };
        slot.conn.flush();
        if slot.conn.closable() {
            self.close_conn(token);
            return;
        }
        let fd = slot.conn.stream().as_raw_fd();
        let want = slot.conn.interest();
        let registered = match (slot.registered, want) {
            (Some(_), 0) => {
                let _ = self.poller.delete(fd);
                None
            }
            (Some(current), want) if current != want => {
                if self.poller.modify(fd, token, want).is_ok() {
                    Some(want)
                } else {
                    Some(current)
                }
            }
            (None, want) if want != 0 && self.poller.add(fd, token, want).is_ok() => Some(want),
            (current, _) => current,
        };
        slot.registered = registered;
    }

    fn close_conn(&mut self, token: u64) {
        let Some(slot) = self.conns.remove(&token) else {
            return;
        };
        let stream = slot.conn.close();
        if slot.registered.is_some() {
            let _ = self.poller.delete(stream.as_raw_fd());
        }
        let _ = stream.shutdown(Shutdown::Both);
        // ordering: Relaxed — the open gauge; see `admit`.
        self.shared.open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Shutdown entry: close the listener, serve frames already
    /// buffered, then stop reading everywhere. Replies drain before
    /// each close.
    fn begin_drain(&mut self) {
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        for (token, slot) in &mut self.conns {
            slot.conn
                .stop_reading(&mut Intake::new(&mut self.submit_buf, &mut self.scratch));
            self.touched.push(*token);
        }
    }
}
