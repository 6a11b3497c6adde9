//! `mutate_mix`: the same `engine`/`geom`/`query` layers used
//! differently — writes beside reads, reads through a growing overlay,
//! background compaction and mask rebuild, WAL + snapshot + recovery.
//!
//! IND 40k×3 in a durable engine (`FsyncPolicy::EveryN(64)`, default
//! overlay policy). Connection A runs a mixed list — 25 % `Append`
//! (4 rows), 5 % `Delete` (2 ids), 50 % `TopK`, 20 % `ReverseTopKBi`
//! (named population of 200) — while connection B issues reads (80/20).
//! Deleted ids are drawn without replacement from `[0, 20 000)`:
//! compaction renumbers ids densely, so only ids that are always live
//! and never repeated are safe under asynchronous compaction. Closed
//! loop, 2 connections × depth 1, one continuous phase (the overlay and
//! the compaction cycle are the state being measured).
//!
//! After the load: quiescence checks against the materialised rows, a
//! manual compact + checkpoint, and the durability probe
//! (`probes::durability`: a fresh durable engine takes appends and
//! deletes in-process, is dropped gracefully and reopened under the
//! clock; rows, epoch and probe answers must come back bit-equal).

use super::{connect, near_skyline_q, set_up, Outcome, RunConfig, Tracing, K};
use crate::client::{Conn, FrameSet};
use crate::env::{self, ScratchDir};
use crate::kernels;
use crate::load::{self, ClosedSpec, Phase};
use crate::metrics::Report;
use crate::oracle::Rows;
use crate::rng::Rng;
use crate::stats::summarize;
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{DatasetHandle, FsyncPolicy, Request, Response};
use wqrtq_geom::Weight;

const N: usize = 40_000;
const DIM: usize = 3;
const DATASET: &str = "p";
const WEIGHTS: &str = "w";
const POPULATION: usize = 200;
/// Ids below this are the only ones deletes draw from.
const DELETABLE: usize = 20_000;
const ROWS_PER_APPEND: usize = 4;
const IDS_PER_DELETE: usize = 2;
/// Operations generated per second of run time for the mixed
/// connection (about twice what this box completes).
const MIX_OPS_PER_SECOND: f64 = 5_000.0;
/// Reads pre-encoded for the read-only connection (it wraps around).
const READ_LIST_LEN: usize = 20_000;
/// Depth under the pivot preference `ReverseTopKBi` query points come
/// from (see `near_skyline_q`).
const Q_DEPTH: (usize, usize) = (3, 12);
/// Probe weights checked against a full scan at quiescence.
const PROBES: usize = 200;

fn topk(weight: Vec<f64>) -> Request {
    super::topk(DATASET, weight)
}

fn rtopk(q: Vec<f64>) -> Request {
    super::rtopk(DATASET, WEIGHTS, q)
}

fn is_read(request: &Request) -> bool {
    matches!(
        request,
        Request::TopK { .. } | Request::ReverseTopKBi { .. }
    )
}

fn read(handle: &DatasetHandle, rtopk_share: f64, rng: &mut Rng) -> Request {
    if rng.f64() < rtopk_share {
        rtopk(near_skyline_q(handle, Q_DEPTH, rng))
    } else {
        topk(rng.simplex(DIM))
    }
}

/// The mixed connection's operations: 25 % append, 5 % delete, the rest
/// reads with 2 in 7 of them reverse top-k (50 % / 20 % overall).
fn mixed_list(handle: &DatasetHandle, seed: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, 400);
    let mut deletable: Vec<u32> = (0..DELETABLE as u32).collect();
    rng.shuffle(&mut deletable);
    (0..count)
        .map(|_| {
            let u = rng.f64();
            if u < 0.25 {
                Request::Append {
                    dataset: DATASET.into(),
                    points: (0..ROWS_PER_APPEND * DIM).map(|_| rng.f64()).collect(),
                }
            } else if u < 0.30 && deletable.len() >= IDS_PER_DELETE {
                Request::Delete {
                    dataset: DATASET.into(),
                    ids: deletable.split_off(deletable.len() - IDS_PER_DELETE),
                }
            } else {
                read(handle, 2.0 / 7.0, &mut rng)
            }
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Outcome {
    let mut outcome = Outcome::default();
    let data = independent(N, DIM, env::DATA_SEED);
    let population: Vec<Vec<f64>> = {
        let mut rng = Rng::new(cfg.seed, 410);
        (0..POPULATION).map(|_| rng.simplex(DIM)).collect()
    };
    // The data directory of the engine in use; the previous repeat's
    // engine is dropped before the next set-up, so its directory can go.
    let mut dir = None;
    let engine = set_up(
        cfg,
        report,
        &[DATASET],
        |rep| {
            let fresh = dir.insert(ScratchDir::new(&format!("mix-{rep}")));
            env::engine_builder()
                .data_dir(fresh.path())
                .fsync(FsyncPolicy::EveryN(64))
                .build()
        },
        |engine| {
            engine
                .register_dataset(DATASET, DIM, data.coords.clone())
                .expect("register dataset");
            let weights = population.iter().map(|w| Weight::new(w.clone())).collect();
            engine
                .register_weights(WEIGHTS, weights)
                .expect("register weights");
        },
        |engine| {
            let handle = engine.catalog().handle(DATASET).expect("handle");
            let mut rng = Rng::new(cfg.seed, 420);
            for _ in 0..16 {
                std::hint::black_box(engine.submit(read(&handle, 0.2, &mut rng)));
            }
        },
    );
    let handle = engine.catalog().handle(DATASET).expect("handle");
    let mix_len = (cfg.seconds * MIX_OPS_PER_SECOND).ceil() as usize;
    let lists = [mixed_list(&handle, cfg.seed, mix_len), {
        let mut rng = Rng::new(cfg.seed, 430);
        (0..READ_LIST_LEN)
            .map(|_| read(&handle, 0.2, &mut rng))
            .collect::<Vec<Request>>()
    }];
    drop(handle);
    // The mixed list is sent once (a delete may run only once); the
    // read-only list wraps around.
    let sets = vec![
        FrameSet::encode(&lists[0]),
        FrameSet::encode(&lists[1]).replayable(),
    ];
    let server = env::serve(engine);
    let mut conns = connect(&server);
    let spec = |share: f64| ClosedSpec {
        depth: 1,
        duration: cfg.share(share),
        min_requests: 0,
        keep_every: 0,
    };

    let mut tracing = cfg.traced.then(Tracing::new);
    let phases: Vec<Phase> = if let Some(tracing) = tracing.as_mut() {
        let mut starts = vec![0usize; conns.len()];
        let before = env::wire_stats(&server);
        let (plain, allocs) = load::counting_allocations(|| {
            load::run_closed(&mut conns, &sets, &starts, spec(0.3), None)
        });
        load::advance(&mut starts, &plain, usize::MAX);
        let traced = load::run_closed(
            &mut conns,
            &sets,
            &starts,
            spec(0.3),
            Some(&mut tracing.load),
        );
        load::report_stats(report, &before, &env::wire_stats(&server));
        load::report_trace_cost(
            report,
            (allocs, plain.completed()),
            (plain.throughput(), traced.throughput()),
        );
        vec![plain, traced]
    } else {
        vec![load::run_closed(
            &mut conns,
            &sets,
            &[0, 0],
            spec(1.0),
            None,
        )]
    };
    let (mut acked_appends, mut acked_deletes) = (0usize, 0usize);
    let mut write_acks: Vec<u64> = Vec::new();
    let mut read_max = 0u64;
    for phase in &phases {
        outcome.absorb("mixed load", phase);
        for (c, conn) in phase.conns.iter().enumerate() {
            for d in conn.done.iter().filter(|d| d.ok) {
                match &lists[c][d.idx as usize] {
                    Request::Append { .. } => {
                        acked_appends += 1;
                        write_acks.push(d.latency_ns);
                    }
                    Request::Delete { .. } => {
                        acked_deletes += 1;
                        write_acks.push(d.latency_ns);
                    }
                    _ => read_max = read_max.max(d.latency_ns),
                }
            }
        }
    }
    let acks = summarize(&mut write_acks, 0.99);
    report.timing("write_ack_p50_us", acks.p50 as f64 / 1e3, acks.n);
    report.value("read_stall_max_ms", read_max as f64 / 1e6);
    if cfg.traced {
        let mut reads: Vec<u64> = phases
            .iter()
            .flat_map(|p| p.conns.iter().enumerate())
            .flat_map(|(c, conn)| conn.done.iter().map(move |d| (c, d)))
            .filter(|(c, d)| d.ok && is_read(&lists[*c][d.idx as usize]))
            .map(|(_, d)| d.latency_ns)
            .collect();
        load::report_tail(report, &summarize(&mut reads, 0.99));
    } else {
        let phase = &phases[0];
        let latency = phase.latency(0.99, |c, d| is_read(&lists[c][d.idx as usize]));
        load::report_end_to_end(report, phase.throughput(), &latency, &acks);
    }

    // Quiescence: nothing in flight; reads now go through whatever
    // overlay the last compaction left behind.
    let engine = server.engine().clone();
    if let Some(tracing) = tracing.as_mut() {
        let mut rng = Rng::new(cfg.seed, 440);
        for i in 0..300u64 {
            let weight = rng.simplex(DIM);
            let mut twin = weight.clone();
            twin[0] *= 1.0 + 1e-9;
            let result = load::nested_sample(
                &mut conns[0],
                &engine,
                &mut tracing.nested,
                1_000_000 + i,
                (&topk(weight), &topk(twin)),
                "query",
                |_, _| {},
            );
            outcome.ok("nested sample", result);
        }
    }
    let expected_live = N + ROWS_PER_APPEND * acked_appends - IDS_PER_DELETE * acked_deletes;
    let mut handle = engine.catalog().handle(DATASET).expect("handle");
    outcome.check(
        "live count at quiescence",
        (handle.live_len() == expected_live)
            .then_some(())
            .ok_or_else(|| format!("{} live, expected {expected_live}", handle.live_len())),
    );
    // A compaction scheduled by the last writes may still install while
    // the probes run; it renumbers ids. A probe whose epoch moved under
    // it is repeated against a fresh snapshot.
    let mut snapshot = handle.view.materialize_row_major();
    let mut rng = Rng::new(cfg.seed, 445);
    let control: &mut Conn = &mut conns[0];
    for i in 0..PROBES + 3 {
        let request = if i < PROBES {
            topk(rng.simplex(DIM))
        } else {
            rtopk(near_skyline_q(&handle, Q_DEPTH, &mut rng))
        };
        let check = loop {
            let reply = control.call(2_000_000 + i as u64, &request);
            if engine.catalog().epoch(DATASET).ok() != Some(handle.epoch) {
                handle = engine.catalog().handle(DATASET).expect("handle");
                snapshot = handle.view.materialize_row_major();
                continue;
            }
            let live = Rows {
                coords: &snapshot.0,
                dim: DIM,
                ids: Some(&snapshot.1),
            };
            break match (&request, reply) {
                (Request::TopK { weight, .. }, Ok(Response::TopK(reply))) => {
                    live.check_topk(weight, K, &reply)
                }
                (Request::ReverseTopKBi { q, .. }, Ok(Response::ReverseTopKBi(reply))) => {
                    live.check_reverse_topk(&population, q, K, &reply)
                }
                (_, Ok(other)) => Err(format!("unexpected reply {other:?}")),
                (_, Err(e)) => Err(e.to_string()),
            };
        };
        outcome.check("read at quiescence vs full scan", check);
    }

    // The manual merge and checkpoint an operator would run at shutdown
    // must succeed on whatever state the load left behind.
    outcome.check(
        "final compact",
        engine
            .compact(DATASET)
            .map(|_| ())
            .map_err(|e| e.to_string()),
    );
    outcome.check(
        "final checkpoint",
        engine.checkpoint().map(|_| ()).map_err(|e| e.to_string()),
    );
    drop(handle);
    drop(conns);
    server.shutdown();
    drop(engine);
    drop(server);

    if let Some(tracing) = tracing {
        tracing.finish(&cfg.workload, report);
        let request = lists[0]
            .iter()
            .find(|r| matches!(r, Request::Append { .. }))
            .expect("the mix holds appends");
        kernels::codec(report, request, &Response::Mutated { live_len: N });
    } else {
        // The durability oracle (every acknowledged write readable after
        // a restart) belongs to this workload's correctness; the traced
        // run gets it with the layer probes.
        crate::probes::durability(&mut Report::default(), &mut outcome, cfg.seed);
    }
    outcome
}
