//! Phase runners on top of the load client: every connection of a phase
//! starts at one barrier and runs on its own thread; results are folded
//! into the few numbers the reports print. Also the serial
//! nested-path sampler of the traced run.

use crate::client::{closed_loop, open_loop, ClosedLoop, Conn, ConnResult, Done, FrameSet};
use crate::metrics::Report;
use crate::stats::{summarize, Summary};
use crate::trace::{Trace, ROOT};
use std::io::Write as _;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use wqrtq_engine::{
    Engine, MetricsSnapshot, Request, Response, ServerCounters, Stage, StatsSnapshot,
};
use wqrtq_server::frame::write_frame;
use wqrtq_server::{ClientFrame, ServerFrame};

/// What all connections of one phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-connection results, in connection order.
    pub conns: Vec<ConnResult>,
}

impl Phase {
    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    /// Busy + `Response::Error` + lost to transport errors.
    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }

    /// Busy refusals.
    pub fn busy(&self) -> u64 {
        self.conns.iter().map(|c| c.busy).sum()
    }

    /// Successfully completed requests.
    pub fn completed(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.done.iter().filter(|d| d.ok).count() as u64)
            .sum()
    }

    /// Completed requests per second of the phase's wall time (the
    /// slowest connection's first send → last reply).
    pub fn throughput(&self) -> f64 {
        let wall = self
            .conns
            .iter()
            .map(|c| c.elapsed)
            .max()
            .unwrap_or_default()
            .as_secs_f64();
        if wall > 0.0 {
            self.completed() as f64 / wall
        } else {
            0.0
        }
    }

    /// Latency summary over the successful requests `select` accepts
    /// (`(connection, request)` → use it?).
    pub fn latency(&self, preferred_tail: f64, select: impl Fn(usize, &Done) -> bool) -> Summary {
        let mut samples: Vec<u64> = self
            .conns
            .iter()
            .enumerate()
            .flat_map(|(c, r)| r.done.iter().map(move |d| (c, d)))
            .filter(|(c, d)| d.ok && select(*c, d))
            .map(|(_, d)| d.latency_ns)
            .collect();
        summarize(&mut samples, preferred_tail)
    }

    /// Transport errors that cut a connection's phase short.
    pub fn transport_errors(&self) -> Vec<String> {
        self.conns
            .iter()
            .filter_map(|c| c.transport_error.clone())
            .collect()
    }
}

/// A phase cut into slices, each with freshly spawned generator threads.
///
/// On a small shared box the same load settles into different regimes
/// from one second to the next (thread placement, batching feedback
/// between generator and event loop), so one long window reports
/// whichever mix of regimes it happened to see. Each slice is summarised
/// on its own and the phase reports the **median over slices** of the
/// throughput, of the latency median and of the latency tail.
#[derive(Clone, Debug, Default)]
pub struct SliceAcc {
    throughput: Vec<f64>,
    p50_ns: Vec<f64>,
    tail_ns: Vec<f64>,
    samples: usize,
}

impl SliceAcc {
    /// Adds one slice; latency covers the successful requests `select`
    /// accepts.
    pub fn push(
        &mut self,
        phase: &Phase,
        preferred_tail: f64,
        select: impl Fn(usize, &Done) -> bool,
    ) {
        let latency = phase.latency(preferred_tail, select);
        self.throughput.push(phase.throughput());
        if latency.n > 0 {
            self.p50_ns.push(latency.p50 as f64);
            self.tail_ns.push(latency.tail as f64);
            self.samples += latency.n;
        }
    }

    /// Median slice throughput, requests per second.
    pub fn throughput(&self) -> f64 {
        crate::stats::median(&self.throughput)
    }

    /// Median over slices of the latency median and tail, as a summary
    /// over all samples.
    pub fn latency(&self) -> Summary {
        Summary {
            n: self.samples,
            p50: crate::stats::median(&self.p50_ns) as u64,
            tail: crate::stats::median(&self.tail_ns) as u64,
            ..Summary::default()
        }
    }
}

/// Moves each connection's start index past what `phase` sent.
pub fn advance(starts: &mut [usize], phase: &Phase, list_len: usize) {
    for (start, conn) in starts.iter_mut().zip(&phase.conns) {
        *start = (*start + conn.attempted as usize) % list_len;
    }
}

/// Shape of one closed-loop phase across all connections.
#[derive(Clone, Copy, Debug)]
pub struct ClosedSpec {
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// Length of the send window.
    pub duration: Duration,
    /// Requests each connection sends at least, whatever the duration.
    pub min_requests: usize,
    /// Retain every n-th reply for the oracle (0: none).
    pub keep_every: usize,
}

/// Runs one job per connection, each on its own thread, all released
/// from one barrier.
fn on_threads<J: Send>(jobs: Vec<J>, work: impl Fn(J) -> ConnResult + Sync) -> Phase {
    let barrier = Barrier::new(jobs.len());
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    work(job)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    Phase { conns }
}

/// Runs one closed-loop phase: connection `i` sends `sets[i]` starting
/// at `starts[i]`. With `traces`, connection `i` records its spans into
/// `traces[i]`.
pub fn run_closed(
    conns: &mut [Conn],
    sets: &[FrameSet],
    starts: &[usize],
    spec: ClosedSpec,
    traces: Option<&mut [Trace]>,
) -> Phase {
    let traces: Vec<Option<&mut Trace>> = match traces {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => conns.iter().map(|_| None).collect(),
    };
    let jobs = conns.iter_mut().zip(sets).zip(starts).zip(traces).collect();
    on_threads(jobs, |(((conn, frames), &start), trace)| {
        closed_loop(
            conn,
            ClosedLoop {
                frames,
                start,
                depth: spec.depth,
                deadline: Instant::now() + spec.duration,
                min_requests: spec.min_requests,
                keep_every: spec.keep_every,
                trace,
            },
        )
    })
}

/// Runs one open-loop step at `rate` requests per second in total,
/// split evenly over the connections.
pub fn run_open(
    conns: &mut [Conn],
    sets: &[FrameSet],
    starts: &[usize],
    rate: f64,
    duration: Duration,
) -> Phase {
    let per_conn = rate / conns.len() as f64;
    let jobs = conns.iter_mut().zip(sets).zip(starts).collect();
    on_threads(jobs, |((conn, frames), &start)| {
        open_loop(conn, frames, start, per_conn, duration)
    })
}

/// Runs `load` with allocation counting on and returns what it returned
/// with the allocations it caused (process-wide: generator and server).
pub fn counting_allocations<T>(load: impl FnOnce() -> T) -> (T, u64) {
    crate::env::count_allocations(true);
    let before = crate::env::allocations();
    let out = load();
    let allocations = crate::env::allocations() - before;
    crate::env::count_allocations(false);
    (out, allocations)
}

/// Records what the traced run's spans-off / spans-on load yields:
/// allocations per request (counted with spans off) and the throughput
/// ratio that is the tracing overhead.
pub fn report_trace_cost(
    report: &mut Report,
    (allocations, requests): (u64, u64),
    (plain_rps, traced_rps): (f64, f64),
) {
    report.value(
        "server.allocs_per_request",
        allocations as f64 / requests.max(1) as f64,
    );
    report.value("bench.trace_overhead", traced_rps / plain_rps.max(1e-9));
}

/// One serially executed nested-path sample of the traced run: the
/// request goes over the wire (`wire.rtt` ⊃ `client.encode`,
/// `client.wait`, `client.decode`), then its twin — the same request
/// with the last bits of one coordinate changed, so the engine's result
/// cache cannot answer it — goes through `Engine::submit` cold
/// (`engine.submit`, self time charged to `exec_layer`) and again as a
/// cache hit (`engine.dispatch`, charged to `engine`); `kernel` may
/// then record direct kernel calls under the `engine.submit` span.
/// Returns the wire response.
pub fn nested_sample(
    conn: &mut Conn,
    engine: &Engine,
    trace: &mut Trace,
    id: u64,
    (wire, twin): (&Request, &Request),
    exec_layer: &'static str,
    kernel: impl FnOnce(&mut Trace, u32),
) -> std::io::Result<Response> {
    let start = trace.now();
    let mut frame = Vec::new();
    write_frame(&mut frame, &ClientFrame::encode_submit(id, wire))?;
    let encoded = trace.now();
    conn.stream().write_all(&frame)?;
    let (complete, response) = loop {
        match conn.recv_timed()? {
            (got, ServerFrame::Reply(response), at) if got == id => {
                break (at.duration_since(trace.epoch()).as_nanos() as u64, response)
            }
            (_, ServerFrame::ReplyPart(_), _) => {}
            (_, other, _) => {
                return Err(std::io::Error::other(format!("unexpected frame {other:?}")));
            }
        }
    };
    let decoded = trace.now();
    let root = trace.push(ROOT, "bench", (start, decoded), None, id);
    trace.push("client.encode", "server", (start, encoded), Some(root), id);
    let wait = trace.push("client.wait", "server", (encoded, complete), Some(root), id);
    trace.push(
        "client.decode",
        "server",
        (complete, decoded),
        Some(root),
        id,
    );
    let (_, submit) = trace.span("engine.submit", exec_layer, Some(wait), id, || {
        std::hint::black_box(engine.submit(twin.clone()))
    });
    trace.span("engine.dispatch", "engine", Some(submit), id, || {
        std::hint::black_box(engine.submit(twin.clone()))
    });
    kernel(trace, submit);
    Ok(response)
}

/// Records what two wire `Stats` snapshots taken around a load say: the
/// server-counter deltas as per-request ratios, and the engine's stage
/// histograms and counters as of the second snapshot.
pub fn report_stats(report: &mut Report, before: &StatsSnapshot, after: &StatsSnapshot) {
    if let (Some(b), Some(a)) = (&before.server, &after.server) {
        report_server_counters(report, b, a);
    }
    report_engine_metrics(report, &after.metrics);
}

fn report_server_counters(report: &mut Report, before: &ServerCounters, after: &ServerCounters) {
    let d = |f: fn(&ServerCounters) -> u64| f(after).saturating_sub(f(before)) as f64;
    let frames_in = d(|c| c.frames_in);
    let frames_out = d(|c| c.frames_out);
    let reads = d(|c| c.read_syscalls);
    let writes = d(|c| c.write_syscalls);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.value("server.frames_per_read", ratio(frames_in, reads));
    report.value("server.frames_per_write", ratio(frames_out, writes));
    report.value(
        "server.syscalls_per_request",
        ratio(reads + writes, frames_in),
    );
    report.value(
        "server.busy_share",
        ratio(d(|c| c.busy_rejections), frames_in),
    );
}

/// The engine's stage histograms and counters, as per-layer metrics.
fn report_engine_metrics(report: &mut Report, m: &MetricsSnapshot) {
    let us = |stage: Stage, q: f64| m.stage_latency(stage).quantile(q) as f64 / 1e3;
    let n = |stage: Stage| m.stage_latency(stage).count as usize;
    report.timing(
        "server.admission_p50_us",
        us(Stage::Admission, 0.5),
        n(Stage::Admission),
    );
    report.timing(
        "server.serialize_p50_us",
        us(Stage::Serialize, 0.5),
        n(Stage::Serialize),
    );
    report.timing(
        "engine.queue_wait_p50_us",
        us(Stage::QueueWait, 0.5),
        n(Stage::QueueWait),
    );
    report.timing(
        "engine.queue_wait_p99_us",
        us(Stage::QueueWait, 0.99),
        n(Stage::QueueWait),
    );
    report.timing(
        "engine.cache_lookup_p50_us",
        us(Stage::CacheLookup, 0.5),
        n(Stage::CacheLookup),
    );
    report.timing(
        "engine.execute_p50_us",
        us(Stage::Execute, 0.5),
        n(Stage::Execute),
    );
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    report.value("engine.cache_hit_rate", m.cache.hit_rate());
    report.value(
        "engine.shards_per_rtopk",
        ratio(m.parallel_shards, m.sharded_requests),
    );
    let rtopk = m
        .per_kind
        .iter()
        .find(|k| k.kind == wqrtq_engine::RequestKind::ReverseTopKBi)
        .map_or(0, |k| k.requests - k.cache_hits);
    report.value("engine.scratch_reuse_ratio", ratio(m.scratch_reuses, rtopk));
    let c = &m.catalog;
    report.value("engine.compactions", c.compactions as f64);
    report.value(
        "engine.compactions_abandoned",
        c.compactions_abandoned as f64,
    );
    report.value(
        "engine.compaction_success_ratio",
        ratio(c.compactions, c.compactions + c.compactions_abandoned),
    );
    report.value("engine.index_builds", c.index_builds as f64);
    report.value("engine.mask_builds", c.mask_builds as f64);
}

/// Records the end-to-end metrics a load phase yields: throughput, the
/// depth-1 median of each of the workload's two request classes (see
/// [`crate::metrics::END_TO_END`]) and the peak resident set.
pub fn report_end_to_end(
    report: &mut Report,
    throughput: f64,
    class_a: &Summary,
    class_b: &Summary,
) {
    report.value("throughput_rps", throughput);
    report.timing("latency_p50_us", class_a.p50 as f64 / 1e3, class_a.n);
    report.timing("latency_b_p50_us", class_b.p50 as f64 / 1e3, class_b.n);
    report.value("peak_rss_mb", crate::env::peak_rss_mb());
}

/// Records the depth-1 latency tail of the traced run's load (a
/// per-layer metric: its run-to-run spread on a shared box is wider
/// than any bound the acceptance pipeline allows).
pub fn report_tail(report: &mut Report, latency: &Summary) {
    report.timing("latency_tail_us", latency.tail as f64 / 1e3, latency.n);
}
