//! Wire-serving throughput: the TCP front door vs in-process submission.
//!
//! A [`wqrtq_server::Server`] is started on a loopback ephemeral port
//! and driven by a load generator sweeping **connections ×
//! pipeline-depth**: each connection keeps up to `depth` requests in
//! flight (sliding window over `send`/`recv`), so the sweep separates
//! the cost of the wire (codec + TCP + session threads) from the win of
//! pipelining and multi-connection concurrency. The baseline serves an
//! identically distributed stream through `Engine::submit` in-process.
//!
//! Every sweep point uses a distinct request stream (unique weights per
//! point), so the engine's result cache cannot leak throughput between
//! points; and the first point's responses are replayed on a fresh
//! engine to verify the wire answers match in-process execution.
//!
//! The binary `server_bench` runs the comparison and emits a JSON
//! report (`scripts/bench.sh` writes it to `BENCH_server.json`).

use crate::engine_bench::{mqp_plan_request, throughput_json, Throughput};
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{
    Engine, Histogram, HistogramSnapshot, Request, Response, ServerCounters, Stage, WeightSet,
};
use wqrtq_geom::Weight;
use wqrtq_server::{Client, Server, ServerFrame};

/// Workload shape for the wire comparison.
#[derive(Clone, Copy, Debug)]
pub struct ServerBenchConfig {
    /// Dataset cardinality.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Engine worker threads (both sides).
    pub workers: usize,
    /// Maximum concurrent connections in the sweep.
    pub connections: usize,
    /// Maximum pipeline depth (in-flight frames per connection).
    pub depth: usize,
    /// Requests each connection sends per sweep point.
    pub requests_per_conn: usize,
    /// Dataset / workload seed.
    pub seed: u64,
}

impl Default for ServerBenchConfig {
    fn default() -> Self {
        Self {
            n: 20_000,
            dim: 3,
            workers: std::thread::available_parallelism().map_or(4, |p| p.get()),
            connections: 64,
            depth: 16,
            requests_per_conn: 500,
            seed: 2015,
        }
    }
}

/// One sweep point's measurement.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Concurrent connections.
    pub connections: usize,
    /// Pipeline window per connection.
    pub depth: usize,
    /// Requests served and wall-clock.
    pub throughput: Throughput,
    /// Busy rejections retried by the load generator.
    pub busy_retries: u64,
    /// Frames the server decoded per `read(2)` during this point (its
    /// pipelining amortisation; 0 when counters were unavailable).
    pub frames_per_read: f64,
    /// Reply frames the server flushed per `write(2)`/`writev(2)`
    /// during this point (its coalescing amortisation).
    pub frames_per_write: f64,
    /// Process-wide heap allocations per request during this point —
    /// generator and server combined (loopback bench); zero unless the
    /// binary registered [`crate::alloc_count::CountingAllocator`].
    pub allocs_per_request: f64,
}

/// The wire vs in-process report.
#[derive(Clone, Debug)]
pub struct ServerComparison {
    /// Configuration measured.
    pub config: ServerBenchConfig,
    /// Sequential `Engine::submit` on an identically loaded engine.
    pub in_process: Throughput,
    /// Wire throughput per (connections, depth) point.
    pub sweep: Vec<SweepPoint>,
    /// Whether the wire responses of the first sweep point matched an
    /// in-process replay bit for bit.
    pub wire_matches_inprocess: bool,
    /// Worker-side admission/validation time, accumulated over the
    /// whole sweep (the Admission stage histogram).
    pub admission: HistogramSnapshot,
    /// Time requests spent queued before a worker picked them up,
    /// accumulated over the whole sweep (the server engine's QueueWait
    /// stage histogram).
    pub queue_wait: HistogramSnapshot,
    /// Time workers spent executing, same scope (the Execute stage).
    pub execute: HistogramSnapshot,
    /// Reply-encode time on the completion path, same scope (the
    /// Serialize stage histogram the serving layer records).
    pub serialize: HistogramSnapshot,
    /// The server's wire counters at the end of the sweep — the
    /// syscall-amortisation numerators and denominators.
    pub counters: ServerCounters,
    /// The server's full observability snapshot at the end of the sweep
    /// (what a wire `Request::Stats` would have returned), rendered as
    /// JSON for `server_bench --stats-out`.
    pub stats_json: String,
}

impl ServerComparison {
    /// The fastest sweep point.
    pub fn best_wire(&self) -> &SweepPoint {
        self.sweep
            .iter()
            .max_by(|a, b| {
                a.throughput
                    .rps()
                    .partial_cmp(&b.throughput.rps())
                    .expect("rps is finite")
            })
            .expect("non-empty sweep")
    }

    /// Best wire throughput relative to in-process submission.
    pub fn wire_vs_inprocess(&self) -> f64 {
        self.best_wire().throughput.rps() / self.in_process.rps().max(1e-12)
    }

    /// Throughput gained by pipelining at the maximum connection count
    /// (depth `config.depth` vs depth 1).
    pub fn pipeline_scaling(&self) -> f64 {
        let at = |depth: usize| {
            self.sweep
                .iter()
                .find(|p| p.connections == self.config.connections && p.depth == depth)
                .map(|p| p.throughput.rps())
        };
        match (at(1), at(self.config.depth)) {
            (Some(serial), Some(pipelined)) => pipelined / serial.max(1e-12),
            _ => 1.0,
        }
    }

    /// The report as a JSON object (hand-rolled; std-only workspace).
    pub fn to_json(&self) -> String {
        let mut sweep = String::new();
        for (i, p) in self.sweep.iter().enumerate() {
            if i > 0 {
                sweep.push_str(",\n");
            }
            sweep.push_str(&format!(
                "    {{\"connections\": {}, \"depth\": {}, \"requests\": {}, \
                 \"seconds\": {:.6}, \"rps\": {:.1}, \"p50_us\": {:.3}, \
                 \"p99_us\": {:.3}, \"busy_retries\": {}, \
                 \"frames_per_read\": {:.3}, \"frames_per_write\": {:.3}, \
                 \"allocs_per_request\": {:.1}}}",
                p.connections,
                p.depth,
                p.throughput.requests,
                p.throughput.elapsed.as_secs_f64(),
                p.throughput.rps(),
                p.throughput.p50_us,
                p.throughput.p99_us,
                p.busy_retries,
                p.frames_per_read,
                p.frames_per_write,
                p.allocs_per_request,
            ));
        }
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"server_wire_vs_inprocess\",\n",
                "  \"config\": {{\"n\": {}, \"dim\": {}, \"workers\": {}, \"connections\": {}, ",
                "\"depth\": {}, \"requests_per_conn\": {}, \"seed\": {}}},\n",
                "  \"in_process\": {},\n",
                "  \"sweep\": [\n{}\n  ],\n",
                "  \"best_wire_rps\": {:.1},\n",
                "  \"wire_vs_inprocess\": {:.4},\n",
                "  \"pipeline_scaling\": {:.4},\n",
                "  \"stage_decomposition\": {{\"admission\": {}, \"queue_wait\": {}, ",
                "\"execute\": {}, \"serialize\": {}}},\n",
                "  \"syscall_amortization\": {{\"frames_in\": {}, \"read_syscalls\": {}, ",
                "\"frames_per_read\": {:.3}, \"frames_out\": {}, \"write_syscalls\": {}, ",
                "\"frames_per_write\": {:.3}}},\n",
                "  \"wire_matches_inprocess\": {}\n",
                "}}"
            ),
            self.config.n,
            self.config.dim,
            self.config.workers,
            self.config.connections,
            self.config.depth,
            self.config.requests_per_conn,
            self.config.seed,
            throughput_json(&self.in_process),
            sweep,
            self.best_wire().throughput.rps(),
            self.wire_vs_inprocess(),
            self.pipeline_scaling(),
            self.admission.to_json(),
            self.queue_wait.to_json(),
            self.execute.to_json(),
            self.serialize.to_json(),
            self.counters.frames_in,
            self.counters.read_syscalls,
            ratio(self.counters.frames_in, self.counters.read_syscalls),
            self.counters.frames_out,
            self.counters.write_syscalls,
            ratio(self.counters.frames_out, self.counters.write_syscalls),
            self.wire_matches_inprocess,
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The sweep ladder: connections in {1, 4, 16, 64} up to the
/// configured maximum (always including the maximum itself), each at
/// depth 1 and the configured depth.
fn sweep_grid(cfg: &ServerBenchConfig) -> Vec<(usize, usize)> {
    let mut conns: Vec<usize> = [1, 4, 16, 64]
        .into_iter()
        .filter(|c| *c <= cfg.connections)
        .collect();
    if !conns.contains(&cfg.connections) {
        conns.push(cfg.connections);
    }
    conns.sort_unstable();
    let mut points = Vec::new();
    for &connections in &conns {
        for depth in [1, cfg.depth] {
            if !points.contains(&(connections, depth)) {
                points.push((connections, depth));
            }
        }
    }
    points
}

/// Fetches the server's wire counters the way any client would: over
/// the wire. (The extra stats connection adds a frame and a few
/// syscalls to the totals — noise against a sweep point's hundreds.)
fn wire_counters(addr: std::net::SocketAddr) -> ServerCounters {
    let mut client = Client::connect_v2(addr).expect("connect stats probe");
    client
        .stats()
        .expect("stats over the wire")
        .server
        .expect("wire stats carry server counters")
}

fn stream_weight(dim: usize, t: f64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..dim)
        .map(|j| 0.15 + 0.7 * ((t * 9.1 + j as f64 * 2.3).sin() * 0.5 + 0.5))
        .collect();
    let s: f64 = w.iter().sum();
    for x in &mut w {
        *x /= s;
    }
    w
}

fn population(dim: usize) -> Vec<Vec<f64>> {
    (0..40)
        .map(|i| stream_weight(dim, 1000.0 + i as f64 / 40.0))
        .collect()
}

/// One connection's request stream for one sweep point. `tag` makes
/// every point's weights unique, so the result cache cannot carry
/// throughput from one sweep point into the next.
fn conn_stream(cfg: &ServerBenchConfig, tag: usize, conn: usize) -> Vec<Request> {
    (0..cfg.requests_per_conn)
        .map(|i| {
            let t =
                tag as f64 * 37.0 + conn as f64 * 11.0 + i as f64 / cfg.requests_per_conn as f64;
            let w = stream_weight(cfg.dim, t);
            match i % 16 {
                14 => mqp_plan_request(vec![0.35; cfg.dim], 10, w, 16),
                15 => Request::ReverseTopKBi {
                    dataset: "bench".into(),
                    weights: WeightSet::Named("population".into()),
                    q: vec![0.2; cfg.dim],
                    k: 10,
                },
                _ => Request::TopK {
                    dataset: "bench".into(),
                    weight: w,
                    k: 10,
                },
            }
        })
        .collect()
}

fn load_engine(cfg: &ServerBenchConfig, engine: &Engine, coords: &[f64]) {
    engine
        .register_dataset("bench", cfg.dim, coords.to_vec())
        .expect("register bench dataset");
    engine
        .register_weights(
            "population",
            population(cfg.dim).into_iter().map(Weight::new).collect(),
        )
        .expect("register population");
    engine.catalog().handle("bench").expect("warm index");
}

/// Drives one connection through its stream with a sliding pipeline
/// window, retrying busy rejections. Returns the responses in stream
/// order plus the retry count.
fn drive_connection(
    addr: std::net::SocketAddr,
    stream: &[Request],
    depth: usize,
    latency: &Histogram,
) -> (Vec<Response>, u64) {
    let mut client = Client::connect_v2(addr).expect("connect load generator");
    let mut outstanding: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut responses: Vec<Option<Response>> = vec![None; stream.len()];
    let mut busy_retries = 0u64;
    let mut next = 0usize;
    let mut done = 0usize;
    while done < stream.len() {
        // Top up the window in bursts — one flush per refill, so the
        // server sees (and batch-submits) runs of pipelined frames
        // instead of one frame per segment. Refilling only once the
        // window has half-drained keeps the bursts real in steady
        // state rather than degenerating to single sends.
        if next < stream.len() && outstanding.len() <= depth / 2 {
            let take = (depth - outstanding.len()).min(stream.len() - next);
            let burst: Vec<&Request> = stream[next..next + take].iter().collect();
            let sent = Instant::now();
            for id in client.send_request_batch(&burst).expect("burst send") {
                outstanding.insert(id, (next, sent));
                next += 1;
            }
        }
        let (id, frame) = client.recv().expect("pipelined recv");
        // A plan's streamed partials precede the reply they belong to.
        if matches!(frame, ServerFrame::ReplyPart(_)) {
            continue;
        }
        let (slot, sent) = outstanding.remove(&id).expect("response for in-flight id");
        match frame {
            ServerFrame::Reply(response) => {
                latency.record_duration(sent.elapsed());
                responses[slot] = Some(response);
                done += 1;
            }
            ServerFrame::Busy => {
                // Backpressure: the request was refused, not executed.
                // Re-send it (the admitted window has shrunk by one, so
                // this cannot livelock the generator). The latency clock
                // restarts: the retry is a new request on the wire.
                busy_retries += 1;
                let id = client.send_request(&stream[slot]).expect("busy retry");
                outstanding.insert(id, (slot, Instant::now()));
            }
            other => panic!("unexpected frame under load: {other:?}"),
        }
    }
    (
        responses
            .into_iter()
            .map(|r| r.expect("all served"))
            .collect(),
        busy_retries,
    )
}

/// Runs one sweep point: `connections` generator threads, each with a
/// `depth`-deep window. Returns the measurement and the first
/// connection's responses (for the in-process match check).
fn run_point(
    cfg: &ServerBenchConfig,
    server: &Server,
    tag: usize,
    connections: usize,
    depth: usize,
) -> (SweepPoint, Vec<Response>) {
    let streams: Vec<Vec<Request>> = (0..connections).map(|c| conn_stream(cfg, tag, c)).collect();
    let barrier = Arc::new(Barrier::new(connections + 1));
    let addr = server.local_addr();
    let latency = Arc::new(Histogram::new());
    let handles: Vec<_> = streams
        .iter()
        .map(|stream| {
            let stream = stream.clone();
            let barrier = barrier.clone();
            let latency = latency.clone();
            std::thread::spawn(move || {
                barrier.wait();
                drive_connection(addr, &stream, depth, &latency)
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let mut results: Vec<(Vec<Response>, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("generator thread"))
        .collect();
    let elapsed = start.elapsed();
    let busy_retries = results.iter().map(|(_, b)| *b).sum();
    let first = results.swap_remove(0).0;
    (
        SweepPoint {
            connections,
            depth,
            throughput: Throughput::with_latency(
                connections * cfg.requests_per_conn,
                elapsed,
                &latency.snapshot(),
            ),
            busy_retries,
            frames_per_read: 0.0,
            frames_per_write: 0.0,
            allocs_per_request: 0.0,
        },
        first,
    )
}

/// Runs the full comparison.
pub fn compare(cfg: &ServerBenchConfig) -> ServerComparison {
    let ds = independent(cfg.n, cfg.dim, cfg.seed);

    // In-process baseline: its own engine, a sequential submit loop,
    // serving the *identical* stream the first wire sweep point serves
    // (same tag ⇒ same weights ⇒ same per-request cost — the workload's
    // cost is strongly weight-dependent, so a baseline on a different
    // tag would compare against a different workload entirely).
    let baseline = Engine::builder().workers(cfg.workers).build();
    load_engine(cfg, &baseline, &ds.coords);
    let stream = conn_stream(cfg, 0, 0);
    let baseline_latency = Histogram::new();
    let start = Instant::now();
    for request in &stream {
        let began = Instant::now();
        let response = baseline.submit(request.clone());
        baseline_latency.record_duration(began.elapsed());
        assert!(!response.is_error(), "baseline stream must serve cleanly");
    }
    let in_process =
        Throughput::with_latency(stream.len(), start.elapsed(), &baseline_latency.snapshot());

    // The wire side: one server, one sweep.
    let server = Server::builder()
        .engine(Engine::builder().workers(cfg.workers).build())
        .admission_capacity(cfg.connections * cfg.depth + 32)
        .bind("127.0.0.1:0")
        .expect("bind loopback server");
    load_engine(cfg, server.engine(), &ds.coords);

    // The connection × depth grid: the {1, 4, 16, 64} ladder at serial
    // and full pipeline depth (grid points coincide and collapse when
    // --connections or --depth is small).
    let mut sweep = Vec::new();
    let mut wire_matches_inprocess = true;
    let mut prev = wire_counters(server.local_addr());
    let mut prev_allocs = crate::alloc_count::allocations();
    for (tag, (connections, depth)) in sweep_grid(cfg).into_iter().enumerate() {
        let (mut point, first_responses) = run_point(cfg, &server, tag, connections, depth);
        let counters = wire_counters(server.local_addr());
        let allocs = crate::alloc_count::allocations();
        point.frames_per_read = ratio(
            counters.frames_in - prev.frames_in,
            counters.read_syscalls - prev.read_syscalls,
        );
        point.frames_per_write = ratio(
            counters.frames_out - prev.frames_out,
            counters.write_syscalls - prev.write_syscalls,
        );
        point.allocs_per_request = ratio(allocs - prev_allocs, point.throughput.requests as u64);
        prev = counters;
        prev_allocs = allocs;
        if tag == 0 {
            // Replay the first point's stream on a fresh engine: the
            // wire answers must match in-process execution exactly.
            let oracle = Engine::builder().workers(cfg.workers).build();
            load_engine(cfg, &oracle, &ds.coords);
            let replay = conn_stream(cfg, 0, 0);
            wire_matches_inprocess = replay
                .into_iter()
                .zip(&first_responses)
                .all(|(request, wire)| &oracle.submit(request) == wire);
        }
        sweep.push(point);
    }

    // Capture the server-side view before shutdown: the stage
    // decomposition (admission/queue/execute/serialize) from the
    // engine's histograms, and the full stats snapshot exactly as a
    // wire `Request::Stats` returns it (counters included).
    let mut stats_client = Client::connect_v2(server.local_addr()).expect("connect stats probe");
    let snapshot = stats_client.stats().expect("final stats over the wire");
    let counters = snapshot.server.expect("wire stats carry server counters");
    let stats_json = snapshot.to_json();
    let metrics = server.engine().metrics();
    let admission = metrics.stage_latency(Stage::Admission).clone();
    let queue_wait = metrics.stage_latency(Stage::QueueWait).clone();
    let execute = metrics.stage_latency(Stage::Execute).clone();
    let serialize = metrics.stage_latency(Stage::Serialize).clone();
    server.shutdown();

    ServerComparison {
        config: *cfg,
        in_process,
        sweep,
        wire_matches_inprocess,
        admission,
        queue_wait,
        execute,
        serialize,
        counters,
        stats_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServerBenchConfig {
        ServerBenchConfig {
            n: 2_000,
            dim: 3,
            workers: 2,
            connections: 2,
            depth: 4,
            requests_per_conn: 48,
            seed: 7,
        }
    }

    #[test]
    fn wire_sweep_serves_and_matches_inprocess() {
        let c = compare(&tiny());
        assert_eq!(c.sweep.len(), 4);
        assert!(c.wire_matches_inprocess, "wire diverged from in-process");
        for p in &c.sweep {
            assert_eq!(p.throughput.requests, p.connections * 48);
            assert!(p.throughput.rps() > 0.0);
            assert!(p.throughput.p50_us > 0.0);
            assert!(p.throughput.p99_us >= p.throughput.p50_us);
        }
        // Every request waits in the queue; only cache misses execute.
        let served: u64 = c.sweep.iter().map(|p| p.throughput.requests as u64).sum();
        assert!(c.queue_wait.count >= served);
        assert!(c.execute.count > 0);
        assert!(c.execute.count <= c.queue_wait.count);
        // The serving layer records admission (worker-side validation)
        // and serialize (reply encode) for the same traffic.
        assert!(c.admission.count > 0);
        assert!(c.serialize.count >= served);
        // Syscall amortisation: counters are live and every frame took
        // at least one syscall-visible byte in each direction.
        assert!(c.counters.read_syscalls > 0);
        assert!(c.counters.write_syscalls > 0);
        assert!(c.counters.frames_in >= served);
        for p in &c.sweep {
            assert!(p.frames_per_read > 0.0);
            assert!(p.frames_per_write > 0.0);
        }
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"wire_vs_inprocess\""));
        assert!(json.contains("\"pipeline_scaling\""));
        assert!(json.contains("\"wire_matches_inprocess\": true"));
        assert!(json.contains("\"sweep\""));
        assert!(json.contains("\"p50_us\""));
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"stage_decomposition\""));
        assert!(json.contains("\"admission\""));
        assert!(json.contains("\"queue_wait\""));
        assert!(json.contains("\"execute\""));
        assert!(json.contains("\"serialize\""));
        assert!(json.contains("\"syscall_amortization\""));
        assert!(json.contains("\"frames_per_read\""));
        assert!(json.contains("\"frames_per_write\""));
        assert!(json.contains("\"allocs_per_request\""));
        let stats = &c.stats_json;
        assert!(stats.starts_with('{') && stats.ends_with('}'));
        assert!(stats.contains("\"engine\""));
        assert!(stats.contains("\"server\""));
    }

    #[test]
    fn sweep_points_cover_the_connection_and_depth_corners() {
        let c = compare(&ServerBenchConfig {
            requests_per_conn: 8,
            ..tiny()
        });
        let corners: Vec<(usize, usize)> =
            c.sweep.iter().map(|p| (p.connections, p.depth)).collect();
        assert_eq!(corners, vec![(1, 1), (1, 4), (2, 1), (2, 4)]);
    }
}
