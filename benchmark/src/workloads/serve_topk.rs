//! `serve_topk`: ~10 µs of index work per request, so the server
//! (codec, event loop, syscalls, allocations) and the engine's dispatch
//! and cache decide the numbers.
//!
//! IND 100k×3, in-memory engine; `TopK k=10`, half the requests with a
//! unique weight, half drawn Zipf from a 200-request hot set — the hot
//! set fits the 256-entry result cache, the unique misses pollute it.
//!
//! Untraced: closed loop 2 connections × depth 16 (throughput) and
//! 2 × depth 1 (latency), in alternating slices, a third of them on
//! each of the run's three engines (see `set_up_each`). Traced: short depth-1
//! phases with spans off and on, a depth-16 phase for the syscall
//! amortisation counters, the nested-path samples, the kernel calls,
//! and the open-loop ladder (latency from due time, generator lateness
//! recorded) that yields `max_rate_ok_rps`.

use super::{connect, set_up_each, Outcome, RunConfig, Tracing, K};
use crate::client::{Conn, FrameSet};
use crate::env::{self, CONNECTIONS};
use crate::kernels;
use crate::load::{self, ClosedSpec, SliceAcc};
use crate::metrics::Report;
use crate::oracle::Rows;
use crate::rng::{Rng, Zipf};
use crate::stats::summarize;
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{Request, Response};
use wqrtq_server::Server;

const N: usize = 100_000;
const DIM: usize = 3;
const DATASET: &str = "p";
const HOT_SET: usize = 200;
/// Requests pre-encoded per connection; the loops wrap around (a unique
/// weight comes round again long after the 256-entry cache forgot it).
const LIST_LEN: usize = 40_000;
/// Replies checked against the full scan, at most.
const ORACLE_CHECKS: usize = 600;
/// Slices each untraced phase is cut into.
const SLICES: usize = 20;
/// Nested-path samples of the traced run.
const NESTED_SAMPLES: u64 = 400;
/// Slice pairs (spans off, spans on) of the traced run's depth-1 load.
const TRACED_SLICES: usize = 5;
/// Offered rates of the open-loop ladder, requests per second in total.
pub const LADDER: [f64; 6] = [12e3, 18e3, 24e3, 30e3, 36e3, 42e3];
/// Latency limit on the ladder's p99, timed from each due time.
const LADDER_P99_LIMIT_US: f64 = 5_000.0;
/// Failed share a ladder step tolerates.
const LADDER_FAILED_LIMIT: f64 = 0.001;

fn topk(weight: Vec<f64>) -> Request {
    super::topk(DATASET, weight)
}

/// Per connection: the requests, and for each whether its weight comes
/// from the hot set (class B) or is unique (class A).
fn request_lists(seed: u64) -> (Vec<Vec<Request>>, Vec<Vec<bool>>) {
    let hot: Vec<Vec<f64>> = {
        let mut rng = Rng::new(seed, 100);
        (0..HOT_SET).map(|_| rng.simplex(DIM)).collect()
    };
    let zipf = Zipf::new(HOT_SET);
    (0..CONNECTIONS)
        .map(|c| {
            let mut rng = Rng::new(seed, 101 + c as u64);
            (0..LIST_LEN)
                .map(|_| {
                    if rng.f64() < 0.5 {
                        (topk(rng.simplex(DIM)), false)
                    } else {
                        (topk(hot[zipf.sample(&mut rng)].clone()), true)
                    }
                })
                .unzip()
        })
        .unzip()
}

/// One measured ladder step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// p99 latency from due time, microseconds.
    pub p99_us: f64,
    /// Failed (Busy, error, lost) share of the requests sent.
    pub failed_share: f64,
    /// Requests in flight at the middle of the send window.
    pub in_flight_mid: u64,
    /// Requests in flight when the send window closed.
    pub in_flight_end: u64,
}

impl LadderStep {
    /// Whether the step met the latency limit without failures beyond
    /// the tolerated share and without a backlog that kept growing over
    /// the window's second half.
    pub fn ok(&self) -> bool {
        let backlog_growing = self.in_flight_end > 2 * self.in_flight_mid + 64;
        self.p99_us <= LADDER_P99_LIMIT_US
            && self.failed_share <= LADDER_FAILED_LIMIT
            && !backlog_growing
    }
}

/// The highest ladder rate such that it and every lower step passed
/// (0 when the first step already fails).
pub fn max_rate_ok(steps: &[LadderStep]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.ok())
        .last()
        .map_or(0.0, |s| s.rate)
}

/// The closed-loop phase spec: `share` of the run's measuring time.
fn closed(cfg: &RunConfig, depth: usize, share: f64, keep_every: usize) -> ClosedSpec {
    ClosedSpec {
        depth,
        duration: cfg.share(share),
        min_requests: 0,
        keep_every,
    }
}

/// The traced run's load: depth 1 with client spans off and on, a
/// depth-16 phase for the syscall counters, the nested-path samples and
/// the open-loop ladder.
fn traced_load(
    cfg: &RunConfig,
    report: &mut Report,
    outcome: &mut Outcome,
    server: &Server,
    conns: &mut [Conn],
    (sets, lists): (&[FrameSet], &[Vec<Request>]),
) {
    let zeros = vec![0usize; CONNECTIONS];
    let closed = |depth, share, keep_every| closed(cfg, depth, share, keep_every);
    let mut tracing = Tracing::new();
    // Depth 1 with client spans off and on, in alternating slices.
    let (mut plain, mut traced) = (SliceAcc::default(), SliceAcc::default());
    let (mut allocs, mut counted) = (0u64, 0u64);
    let mut starts = zeros.clone();
    for _ in 0..TRACED_SLICES {
        let spec = closed(1, 0.1 / TRACED_SLICES as f64, 0);
        let (phase, counted_allocs) =
            load::counting_allocations(|| load::run_closed(conns, sets, &starts, spec, None));
        allocs += counted_allocs;
        counted += phase.completed();
        load::advance(&mut starts, &phase, LIST_LEN);
        outcome.absorb("depth-1 (spans off)", &phase);
        plain.push(&phase, 0.99, |_, _| true);
        let phase = load::run_closed(conns, sets, &starts, spec, Some(&mut tracing.load));
        load::advance(&mut starts, &phase, LIST_LEN);
        outcome.absorb("depth-1 (spans on)", &phase);
        traced.push(&phase, 0.99, |_, _| true);
    }
    load::report_tail(report, &plain.latency());
    load::report_trace_cost(
        report,
        (allocs, counted),
        (plain.throughput(), traced.throughput()),
    );
    // Syscall amortisation is a property of pipelined bursts.
    let before = env::wire_stats(server);
    let deep = load::run_closed(conns, sets, &zeros, closed(16, 0.1, 0), None);
    outcome.absorb("depth-16", &deep);
    let after = env::wire_stats(server);
    load::report_stats(report, &before, &after);

    // Nested-path samples: unique weights, so the wire path is cold.
    let mut rng = Rng::new(cfg.seed, 110);
    let engine = server.engine().clone();
    let handle = engine.catalog().handle(DATASET).expect("handle");
    for i in 0..NESTED_SAMPLES {
        let weight = rng.simplex(DIM);
        let mut twin_weight = weight.clone();
        twin_weight[0] *= 1.0 + 1e-9;
        let (wire, twin) = (topk(weight.clone()), topk(twin_weight));
        let id = 1_000_000 + i;
        let response = load::nested_sample(
            &mut conns[0],
            &engine,
            &mut tracing.nested,
            id,
            (&wire, &twin),
            "query",
            |trace, parent| {
                trace.span("rtree.best_first", "rtree", Some(parent), id, || {
                    std::hint::black_box(handle.index.best_first(&weight).take(K).count())
                });
            },
        );
        outcome.ok("nested sample", response);
    }
    tracing.finish(&cfg.workload, report);

    let sample_reply = server.engine().submit(lists[0][0].clone());
    kernels::codec(report, &lists[0][0], &sample_reply);

    // Open-loop ladder.
    let step = cfg.share(0.075);
    let mut steps = Vec::with_capacity(LADDER.len());
    let mut late: Vec<u64> = Vec::new();
    let mut starts = zeros.clone();
    for rate in LADDER {
        let phase = load::run_open(conns, sets, &starts, rate, step);
        load::advance(&mut starts, &phase, LIST_LEN);
        // Busy refusals are the ladder's verdict, not a defect of
        // the run: only lost replies and transport errors fail it.
        outcome.attempted += phase.attempted();
        let lost = phase.failed() - phase.busy();
        outcome.failed += lost;
        for e in phase.transport_errors() {
            outcome.problems.push(format!("ladder {rate}: {e}"));
        }
        let latency = phase.latency(0.99, |_, _| true);
        let measured = LadderStep {
            rate,
            p99_us: latency.tail as f64 / 1e3,
            failed_share: phase.failed() as f64 / phase.attempted().max(1) as f64,
            in_flight_mid: phase.conns.iter().map(|c| c.in_flight_mid).sum(),
            in_flight_end: phase.conns.iter().map(|c| c.in_flight_end).sum(),
        };
        if rate == 24e3 {
            report.timing("server.open_p99_us_r24000", measured.p99_us, latency.n);
        }
        if measured.ok() {
            late.extend(
                phase
                    .conns
                    .iter()
                    .flat_map(|c| c.send_late_ns.iter().copied()),
            );
        }
        steps.push(measured);
    }
    report.value("max_rate_ok_rps", max_rate_ok(&steps));
    let lateness = summarize(&mut late, 0.99);
    report.timing(
        "bench.send_late_p50_us",
        lateness.p50 as f64 / 1e3,
        lateness.n,
    );
    report.timing(
        "bench.send_late_p99_us",
        lateness.tail as f64 / 1e3,
        lateness.n,
    );
    for s in &steps {
        eprintln!(
            "ladder {:>6.0} req/s: p99 {:>9.1} us  failed {:.4}  in flight {} -> {}  {}",
            s.rate,
            s.p99_us,
            s.failed_share,
            s.in_flight_mid,
            s.in_flight_end,
            if s.ok() { "ok" } else { "over" }
        );
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Outcome {
    let mut outcome = Outcome::default();
    let data = independent(N, DIM, env::DATA_SEED);
    let (lists, hot) = request_lists(cfg.seed);
    let sets: Vec<FrameSet> = lists
        .iter()
        .map(|list| FrameSet::encode(list).replayable())
        .collect();
    let mut kept: Vec<(usize, u32, Response)> = Vec::new();
    let mut deep = SliceAcc::default();
    let (mut unique, mut hot_set) = (SliceAcc::default(), SliceAcc::default());
    let mut starts = vec![0usize; CONNECTIONS];
    set_up_each(
        cfg,
        &[DATASET],
        |_| env::engine_builder().build(),
        |engine| {
            engine
                .register_dataset(DATASET, DIM, data.coords.clone())
                .expect("register dataset");
        },
        |engine| {
            for request in &lists[0][..64] {
                std::hint::black_box(engine.submit(request.clone()));
            }
        },
        |turn, engine| {
            let server = env::serve(engine);
            let mut conns = connect(&server);
            if cfg.traced {
                traced_load(
                    cfg,
                    report,
                    &mut outcome,
                    &server,
                    &mut conns,
                    (&sets, &lists),
                );
            }
            // Throughput (depth 16) and latency (depth 1) slices
            // alternate, so a slow stretch of the host hits both alike.
            let slices = if cfg.traced { 0 } else { turn.part_of(SLICES) };
            for _ in 0..slices {
                for (depth, share) in [(16, 0.45), (1, 0.55)] {
                    let spec = closed(cfg, depth, share / SLICES as f64, 499);
                    let phase = load::run_closed(&mut conns, &sets, &starts, spec, None);
                    load::advance(&mut starts, &phase, LIST_LEN);
                    outcome.absorb("load", &phase);
                    if depth == 16 {
                        deep.push(&phase, 0.99, |_, _| true);
                    } else {
                        unique.push(&phase, 0.99, |c, d| !hot[c][d.idx as usize]);
                        hot_set.push(&phase, 0.99, |c, d| hot[c][d.idx as usize]);
                    }
                    for (c, conn) in phase.conns.into_iter().enumerate() {
                        kept.extend(conn.kept.into_iter().map(|(idx, r)| (c, idx, r)));
                    }
                }
            }
            drop(conns);
            server.shutdown();
        },
    )
    .record(report);
    if !cfg.traced {
        load::report_end_to_end(
            report,
            deep.throughput(),
            &unique.latency(),
            &hot_set.latency(),
        );
    }

    let rows = Rows {
        coords: &data.coords,
        dim: DIM,
        ids: None,
    };
    let stride = kept.len().div_ceil(ORACLE_CHECKS).max(1);
    for (c, idx, response) in kept.iter().step_by(stride) {
        let Request::TopK { weight, .. } = &lists[*c][*idx as usize] else {
            unreachable!("serve_topk sends only TopK");
        };
        let result = match response {
            Response::TopK(reply) => rows.check_topk(weight, K, reply),
            other => Err(format!("expected a TopK reply, got {other:?}")),
        };
        outcome.check("TopK vs full scan", result);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, p99_us: f64, failed_share: f64, mid: u64, end: u64) -> LadderStep {
        LadderStep {
            rate,
            p99_us,
            failed_share,
            in_flight_mid: mid,
            in_flight_end: end,
        }
    }

    #[test]
    fn ladder_verdict_applies_all_three_conditions() {
        assert!(step(12e3, 900.0, 0.0, 10, 12).ok());
        assert!(!step(12e3, 5_001.0, 0.0, 10, 12).ok(), "p99 over the limit");
        assert!(!step(12e3, 900.0, 0.002, 10, 12).ok(), "too many refused");
        assert!(!step(12e3, 900.0, 0.0, 100, 400).ok(), "backlog growing");
        assert!(step(12e3, 900.0, 0.001, 100, 264).ok(), "at the limits");
    }

    #[test]
    fn max_rate_is_the_last_step_of_the_passing_prefix() {
        let good = |r| step(r, 1_000.0, 0.0, 20, 20);
        let bad = |r| step(r, 9_000.0, 0.3, 20, 900);
        assert_eq!(
            max_rate_ok(&[good(12e3), good(18e3), bad(24e3), bad(30e3)]),
            18e3
        );
        // A fluke pass above a failed step does not count.
        assert_eq!(max_rate_ok(&[good(12e3), bad(18e3), good(24e3)]), 12e3);
        assert_eq!(max_rate_ok(&[bad(12e3)]), 0.0);
        assert_eq!(max_rate_ok(&[good(12e3), good(18e3)]), 18e3);
    }

    #[test]
    fn request_lists_are_a_function_of_the_seed() {
        let a = request_lists(5);
        assert_eq!(a, request_lists(5));
        assert_ne!(a, request_lists(6));
        assert_eq!((a.0.len(), a.0[0].len()), (CONNECTIONS, LIST_LEN));
        assert_eq!((a.1.len(), a.1[0].len()), (CONNECTIONS, LIST_LEN));
    }
}
