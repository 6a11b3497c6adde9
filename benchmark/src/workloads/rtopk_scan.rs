//! `rtopk_scan`: RTA, membership probes and block scans — `query`,
//! `rtree` and `geom` do the work, the server almost none.
//!
//! Two datasets, IND 100k×3 and ANTI 50k×5, each with a named
//! population of 1000 customers; `ReverseTopKBi k=10` with a unique
//! query point per request drawn near the skyline, alternating between
//! the datasets. d=3 is where the dominance mask wins and d=5 where it
//! loses, and set-up pays both mask builds. Closed loop, 2 connections
//! × depth 1, in slices, a third of them on each of the run's three
//! engines (see `set_up_each`).

use super::{connect, near_skyline_q, rtopk, set_up_each, Outcome, RunConfig, Tracing, K};
use crate::client::{Conn, FrameSet};
use crate::env::{self, CONNECTIONS};
use crate::kernels;
use crate::load::{self, ClosedSpec, Phase, SliceAcc};
use crate::metrics::Report;
use crate::oracle::Rows;
use crate::rng::Rng;
use crate::trace::Trace;
use std::time::Instant;
use wqrtq_data::synthetic::{anticorrelated, independent, Dataset};
use wqrtq_engine::{DatasetHandle, Engine, Request, Response};
use wqrtq_geom::Weight;
use wqrtq_server::Server;

const POPULATION: usize = 1000;
/// The two datasets: name, weight-set name, rows, dimensions, and how
/// deep under a random pivot preference query points are drawn (tuned
/// so a result typically holds 5–50 % of the population).
const SIDES: [Side; 2] = [
    Side {
        dataset: "p3",
        weights: "w3",
        n: 100_000,
        dim: 3,
        depth: (3, 12),
    },
    Side {
        dataset: "p5",
        weights: "w5",
        n: 50_000,
        dim: 5,
        depth: (5, 20),
    },
];
/// Requests pre-encoded per connection (even index: d=3, odd: d=5).
const LIST_LEN: usize = 8_000;
const SLICES: usize = 20;
/// Replies checked by per-weight rank counting, per dataset.
const ORACLE_CHECKS_PER_SIDE: usize = 3;
/// Nested-path samples, at most.
const NESTED_SAMPLES: u64 = 400;

#[derive(Clone, Copy, Debug)]
struct Side {
    dataset: &'static str,
    weights: &'static str,
    n: usize,
    dim: usize,
    depth: (usize, usize),
}

struct Inputs {
    data: Vec<Dataset>,
    populations: Vec<Vec<Vec<f64>>>,
}

fn inputs(seed: u64) -> Inputs {
    let data = vec![
        independent(SIDES[0].n, SIDES[0].dim, env::DATA_SEED),
        anticorrelated(SIDES[1].n, SIDES[1].dim, env::DATA_SEED + 1),
    ];
    let populations = SIDES
        .iter()
        .enumerate()
        .map(|(i, side)| {
            let mut rng = Rng::new(seed, 200 + i as u64);
            (0..POPULATION).map(|_| rng.simplex(side.dim)).collect()
        })
        .collect();
    Inputs { data, populations }
}

fn request(side: &Side, q: Vec<f64>) -> Request {
    rtopk(side.dataset, side.weights, q)
}

fn register(engine: &Engine, inputs: &Inputs) {
    for ((side, data), population) in SIDES.iter().zip(&inputs.data).zip(&inputs.populations) {
        engine
            .register_dataset(side.dataset, side.dim, data.coords.clone())
            .expect("register dataset");
        let weights = population.iter().map(|w| Weight::new(w.clone())).collect();
        engine
            .register_weights(side.weights, weights)
            .expect("register weights");
    }
}

fn handles(engine: &Engine) -> Vec<DatasetHandle> {
    SIDES
        .iter()
        .map(|side| engine.catalog().handle(side.dataset).expect("index + mask"))
        .collect()
}

fn warm(engine: &Engine, seed: u64) {
    let handles = handles(engine);
    let mut rng = Rng::new(seed, 210);
    for _ in 0..8 {
        for (side, handle) in SIDES.iter().zip(&handles) {
            let q = near_skyline_q(handle, side.depth, &mut rng);
            std::hint::black_box(engine.submit(request(side, q)));
        }
    }
}

fn q_of(request: &Request) -> &[f64] {
    match request {
        Request::ReverseTopKBi { q, .. } => q,
        _ => unreachable!("rtopk_scan sends only ReverseTopKBi"),
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The request list of every connection (even index: d=3, odd: d=5)
/// and its encoded frames. The data sets are fixed, so any engine's
/// handles draw the same query points.
fn request_lists(seed: u64, handles: &[DatasetHandle]) -> (Vec<Vec<Request>>, Vec<FrameSet>) {
    let lists: Vec<Vec<Request>> = (0..CONNECTIONS)
        .map(|c| {
            let mut rng = Rng::new(seed, 220 + c as u64);
            (0..LIST_LEN)
                .map(|i| {
                    let s = i % 2;
                    request(
                        &SIDES[s],
                        near_skyline_q(&handles[s], SIDES[s].depth, &mut rng),
                    )
                })
                .collect()
        })
        .collect();
    let sets = lists
        .iter()
        .map(|list| FrameSet::encode(list).replayable())
        .collect();
    (lists, sets)
}

/// One depth-1 slice lasting `share` of the run's measuring time.
fn slice(cfg: &RunConfig, share: f64) -> ClosedSpec {
    ClosedSpec {
        depth: 1,
        duration: cfg.share(share),
        min_requests: 0,
        keep_every: 997,
    }
}

/// The connections, their frames and positions, and what a slice leaves
/// behind for the run.
struct Load<'a> {
    conns: &'a mut [Conn],
    sets: &'a [FrameSet],
    starts: &'a mut [usize],
    outcome: &'a mut Outcome,
    kept: &'a mut Vec<(usize, u32, Response)>,
}

impl Load<'_> {
    fn run_slice(&mut self, spec: ClosedSpec, traces: Option<&mut [Trace]>) -> Phase {
        let mut phase = load::run_closed(self.conns, self.sets, self.starts, spec, traces);
        load::advance(self.starts, &phase, LIST_LEN);
        self.outcome.absorb("load", &phase);
        for (c, conn) in phase.conns.iter_mut().enumerate() {
            self.kept
                .extend(conn.kept.drain(..).map(|(idx, r)| (c, idx, r)));
        }
        phase
    }
}

/// The traced run's load: slices with client spans off and on, then the
/// nested-path samples.
fn traced_load(
    cfg: &RunConfig,
    report: &mut Report,
    server: &Server,
    handles: &[DatasetHandle],
    sample: &Request,
    mut load: Load,
) {
    let mut tracing = Tracing::new();
    let (mut plain, mut traced) = (SliceAcc::default(), SliceAcc::default());
    let (mut d3, mut d5) = (SliceAcc::default(), SliceAcc::default());
    let before = env::wire_stats(server);
    let (mut allocs, mut counted) = (0u64, 0u64);
    for _ in 0..5 {
        let (phase, counted_allocs) =
            load::counting_allocations(|| load.run_slice(slice(cfg, 0.05), None));
        allocs += counted_allocs;
        counted += phase.completed();
        plain.push(&phase, 0.99, |_, _| true);
        d3.push(&phase, 0.99, |_, d| d.idx % 2 == 0);
        d5.push(&phase, 0.99, |_, d| d.idx % 2 == 1);
        let phase = load.run_slice(slice(cfg, 0.05), Some(&mut tracing.load));
        traced.push(&phase, 0.99, |_, _| true);
    }
    let after = env::wire_stats(server);
    load::report_trace_cost(
        report,
        (allocs, counted),
        (plain.throughput(), traced.throughput()),
    );
    load::report_tail(report, &plain.latency());
    let (l3, l5) = (d3.latency(), d5.latency());
    report.timing("rtopk_d3_p50_us", us(l3.p50), l3.n);
    report.timing("rtopk_d5_p50_us", us(l5.p50), l5.n);
    load::report_stats(report, &before, &after);

    // Nested-path samples, alternating datasets, within a time box.
    let mut rng = Rng::new(cfg.seed, 230);
    let engine = server.engine().clone();
    let deadline = Instant::now() + cfg.share(0.2);
    for i in 0..NESTED_SAMPLES {
        if Instant::now() > deadline {
            break;
        }
        let s = (i % 2) as usize;
        let (side, handle) = (&SIDES[s], &handles[s]);
        let q = near_skyline_q(handle, side.depth, &mut rng);
        let mut twin_q = q.clone();
        twin_q[0] *= 1.0 + 1e-12;
        let (wire, twin) = (request(side, q), request(side, twin_q));
        let response = load::nested_sample(
            &mut load.conns[0],
            &engine,
            &mut tracing.nested,
            1_000_000 + i,
            (&wire, &twin),
            "query",
            |_, _| {},
        );
        load.outcome.ok("nested sample", response);
    }
    tracing.finish(&cfg.workload, report);

    let sample_reply = server.engine().submit(sample.clone());
    kernels::codec(report, sample, &sample_reply);
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Outcome {
    let mut outcome = Outcome::default();
    let inputs = inputs(cfg.seed);
    let mut requests = None;
    let mut starts = vec![0usize; CONNECTIONS];
    let mut kept: Vec<(usize, u32, Response)> = Vec::new();
    // One median per dataset: the requests alternate, so a median over
    // both would sit between the d=3 and d=5 modes.
    let (mut d3, mut d5) = (SliceAcc::default(), SliceAcc::default());
    set_up_each(
        cfg,
        &[SIDES[0].dataset, SIDES[1].dataset],
        |_| env::engine_builder().build(),
        |engine| register(engine, &inputs),
        |engine| warm(engine, cfg.seed),
        |turn, engine| {
            let handles = handles(&engine);
            let (lists, sets) = requests.get_or_insert_with(|| request_lists(cfg.seed, &handles));
            let server = env::serve(engine);
            let mut conns = connect(&server);
            let mut load = Load {
                conns: &mut conns,
                sets,
                starts: &mut starts,
                outcome: &mut outcome,
                kept: &mut kept,
            };
            if cfg.traced {
                traced_load(cfg, report, &server, &handles, &lists[0][0], load);
            } else {
                for _ in 0..turn.part_of(SLICES) {
                    let phase = load.run_slice(slice(cfg, 1.0 / SLICES as f64), None);
                    d3.push(&phase, 0.99, |_, d| d.idx % 2 == 0);
                    d5.push(&phase, 0.99, |_, d| d.idx % 2 == 1);
                }
            }
            drop(conns);
            server.shutdown();
        },
    )
    .record(report);
    if !cfg.traced {
        load::report_end_to_end(report, d3.throughput(), &d3.latency(), &d5.latency());
    }
    let (lists, _) = requests.expect("at least one set-up");

    // Oracle: per-weight rank counting on a few replies per dataset.
    for (s, side) in SIDES.iter().enumerate() {
        let rows = Rows {
            coords: &inputs.data[s].coords,
            dim: side.dim,
            ids: None,
        };
        let of_side: Vec<_> = kept
            .iter()
            .filter(|(_, idx, _)| *idx as usize % 2 == s)
            .collect();
        let stride = of_side.len().div_ceil(ORACLE_CHECKS_PER_SIDE).max(1);
        for (c, idx, response) in of_side.into_iter().step_by(stride) {
            let q = q_of(&lists[*c][*idx as usize]);
            let result = match response {
                Response::ReverseTopKBi(members) => {
                    rows.check_reverse_topk(&inputs.populations[s], q, K, members)
                }
                other => Err(format!("expected a ReverseTopKBi reply, got {other:?}")),
            };
            outcome.check("ReverseTopKBi vs rank counting", result);
        }
    }
    outcome
}
