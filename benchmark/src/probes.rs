//! Layer probes: the per-layer costs that do not depend on a workload's
//! traffic, measured the same way in every traced run — direct calls
//! into `rtree`/`geom`/`qp`/`codec`/`obs` ([`crate::kernels`]), serial
//! in-process `Engine::submit` for `query` and `core`, and a durable
//! engine for the write path (WAL append, fsync, checkpoint, compaction,
//! recovery). The inputs are standard: IND 100k×3 and ANTI 50k×5 with
//! 1000 customers each, IND 40k×3 for the durable engine, requests drawn
//! from the seed — so a number means the same on every workload and a
//! change to one layer shows in its own rows whatever the traffic was.

use crate::env::{self, ScratchDir};
use crate::kernels;
use crate::metrics::Report;
use crate::rng::Rng;
use crate::stats::{median, summarize};
use crate::workloads::{near_skyline_q, rtopk, topk, whynot_plan, Outcome, K};
use std::time::Instant;
use wqrtq_data::synthetic::{anticorrelated, independent};
use wqrtq_engine::{
    DatasetHandle, Engine, EngineBuilder, FsyncPolicy, Request, Response, Stage, StrategyKind,
};
use wqrtq_geom::Weight;

const POPULATION: usize = 1000;
/// In-process requests timed per query metric.
const QUERY_SAMPLES: usize = 200;
/// Why-not cases run one strategy at a time.
const CORE_CASES: usize = 4;
/// Rows of the overlay reverse top-k is re-timed through.
const OVERLAY_ROWS: usize = 10_000;
/// The durable engine's dataset and the mutations it recovers.
const DURABLE_ROWS: usize = 40_000;
const RECOVERY_APPENDS: usize = 15_000;
const RECOVERY_DELETES: usize = 2_500;

/// Median microseconds of a cold `Engine::submit` minus the same request
/// again as a cache hit, over `requests`; also the responses.
fn net_submit_us(engine: &Engine, requests: &[Request]) -> (f64, Vec<Response>) {
    let mut net = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    for request in requests {
        let start = Instant::now();
        let response = engine.submit(request.clone());
        let cold = start.elapsed();
        let start = Instant::now();
        std::hint::black_box(engine.submit(request.clone()));
        let hit = start.elapsed();
        net.push((cold.as_nanos() as f64 - hit.as_nanos() as f64) / 1e3);
        responses.push(response);
    }
    (median(&net), responses)
}

/// `query` and `core` through a serial in-process engine.
fn in_process(
    report: &mut Report,
    outcome: &mut Outcome,
    seed: u64,
) -> (DatasetHandle, DatasetHandle) {
    let engine = env::engine_builder().overlay_limit(usize::MAX).build();
    let d3 = independent(100_000, 3, env::DATA_SEED + 7);
    let d5 = anticorrelated(50_000, 5, env::DATA_SEED + 8);
    for (dataset, weights, data, stream) in [("p3", "w3", &d3, 500), ("p5", "w5", &d5, 501)] {
        engine
            .register_dataset(dataset, data.dim, data.coords.clone())
            .expect("register dataset");
        let mut rng = Rng::new(seed, stream);
        let population = (0..POPULATION)
            .map(|_| Weight::new(rng.simplex(data.dim)))
            .collect();
        engine
            .register_weights(weights, population)
            .expect("register weights");
    }
    let h3 = engine.catalog().handle("p3").expect("index + mask");
    let h5 = engine.catalog().handle("p5").expect("index + mask");

    let mut rng = Rng::new(seed, 510);
    let requests: Vec<Request> = (0..QUERY_SAMPLES)
        .map(|_| topk("p3", rng.simplex(3)))
        .collect();
    let (us, _) = net_submit_us(&engine, &requests);
    report.timing("query.topk_us", us, requests.len());
    let nodes = engine.metrics();
    let topk_kind = nodes
        .per_kind
        .iter()
        .find(|k| k.kind == wqrtq_engine::RequestKind::TopK)
        .expect("TopK kind");
    report.value(
        "query.topk_nodes_per_request",
        topk_kind.index_nodes as f64 / (topk_kind.requests - topk_kind.cache_hits).max(1) as f64,
    );

    let d3_points: Vec<Vec<f64>> = (0..QUERY_SAMPLES)
        .map(|_| near_skyline_q(&h3, (3, 12), &mut rng))
        .collect();
    let as_requests = |points: &[Vec<f64>], jitter: f64| -> Vec<Request> {
        points
            .iter()
            .map(|q| rtopk("p3", "w3", q.iter().map(|x| x * jitter).collect()))
            .collect()
    };
    let (d3_us, replies) = net_submit_us(&engine, &as_requests(&d3_points, 1.0));
    report.timing("query.rtopk_d3_us", d3_us, QUERY_SAMPLES);
    report.timing(
        "query.rtopk_weights_per_s",
        POPULATION as f64 / (d3_us.max(1e-3) / 1e6),
        QUERY_SAMPLES,
    );
    let members: usize = replies
        .iter()
        .map(|r| match r {
            Response::ReverseTopKBi(m) => m.len(),
            _ => 0,
        })
        .sum();
    report.timing(
        "query.rtopk_result_share",
        members as f64 / (QUERY_SAMPLES * POPULATION) as f64,
        QUERY_SAMPLES,
    );
    let d5_requests: Vec<Request> = (0..QUERY_SAMPLES)
        .map(|_| rtopk("p5", "w5", near_skyline_q(&h5, (5, 20), &mut rng)))
        .collect();
    let (d5_us, _) = net_submit_us(&engine, &d5_requests);
    report.timing("query.rtopk_d5_us", d5_us, QUERY_SAMPLES);

    // The paper's Fig. 7–12 pair: one strategy at a time.
    let mut per_strategy: [(Vec<f64>, Vec<f64>); 3] = Default::default();
    let (mut steps, mut verified) = (0usize, 0usize);
    for case in whynot_plan::cases("p3", &h3, seed, 520, (CORE_CASES, 0)) {
        for (slot, strategy) in StrategyKind::ALL.into_iter().enumerate() {
            let start = Instant::now();
            let response = engine.submit(case.request(&[strategy]));
            let took = start.elapsed().as_secs_f64() * 1e3;
            match &response {
                Response::Plan(plan) => {
                    per_strategy[slot].0.push(took);
                    per_strategy[slot]
                        .1
                        .push(plan.recommended().refinement.penalty);
                    steps += plan.steps.len();
                    verified += plan.steps.iter().filter(|s| s.verified).count();
                }
                other => outcome.check("single-strategy plan", Err(format!("{other:?}"))),
            }
        }
    }
    for (slot, (ms, penalty)) in [
        ("core.mqp_ms", "core.mqp_penalty"),
        ("core.mwk_ms", "core.mwk_penalty"),
        ("core.mqwk_ms", "core.mqwk_penalty"),
    ]
    .into_iter()
    .enumerate()
    {
        let (times, penalties) = &per_strategy[slot];
        report.timing(ms, median(times), times.len());
        report.timing(
            penalty,
            penalties.iter().sum::<f64>() / penalties.len().max(1) as f64,
            penalties.len(),
        );
    }
    report.timing(
        "core.verified_share",
        verified as f64 / steps.max(1) as f64,
        steps,
    );
    let advisor = engine.metrics();
    let advisor = advisor.stage_latency(Stage::AdvisorStep);
    report.timing(
        "core.advisor_step_p50_ms",
        advisor.quantile(0.5) as f64 / 1e6,
        advisor.count as usize,
    );

    // The same reverse top-k requests through a 10k-row overlay.
    let overlay: Vec<f64> = (0..OVERLAY_ROWS * 3).map(|_| rng.f64()).collect();
    engine.append_points("p3", &overlay).expect("append");
    let (through, _) = net_submit_us(&engine, &as_requests(&d3_points, 1.0 + 1e-12));
    report.timing("query.rtopk_overlay_us", through, QUERY_SAMPLES);
    report.timing(
        "query.overlay_slowdown",
        through / d3_us.max(1e-9),
        QUERY_SAMPLES,
    );
    (h3, h5)
}

/// The answers a recovered engine must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    rows: Vec<u64>,
    ids: Vec<u32>,
    epoch: (u64, u64, u64),
    probes: Vec<Response>,
}

fn fingerprint(engine: &Engine, probes: &[Vec<f64>]) -> Fingerprint {
    let handle = engine.catalog().handle("p").expect("handle");
    let (rows, ids) = handle.view.materialize_row_major();
    Fingerprint {
        rows: rows.iter().map(|x| x.to_bits()).collect(),
        ids,
        epoch: (
            handle.epoch.base,
            handle.epoch.delta,
            handle.epoch.tombstones,
        ),
        probes: probes
            .iter()
            .map(|w| engine.submit(topk("p", w.clone())))
            .collect(),
    }
}

/// Times `calls` single-row `append_points` calls on a fresh engine.
fn append_us(builder: EngineBuilder, coords: &[f64], calls: usize, rng: &mut Rng) -> (f64, usize) {
    let engine = builder.overlay_limit(usize::MAX).build();
    engine
        .register_dataset("p", 3, coords.to_vec())
        .expect("register dataset");
    let mut took: Vec<u64> = (0..calls)
        .map(|_| {
            let row = [rng.f64(), rng.f64(), rng.f64()];
            let start = Instant::now();
            engine.append_points("p", &row).expect("append");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    let s = summarize(&mut took, 0.99);
    (s.p50 as f64 / 1e3, s.n)
}

/// The write path on a durable engine (IND 40k×3, `EveryN(64)`,
/// automatic compaction off): appends and deletes in-process, graceful
/// drop, **timed reopen** — every acknowledged write must be readable
/// after the restart, bit for bit — then compaction, checkpoint and the
/// size of the data directory. Also the durability oracle of
/// `mutate_mix`'s untraced run.
pub fn durability(report: &mut Report, outcome: &mut Outcome, seed: u64) {
    let coords = independent(DURABLE_ROWS, 3, env::DATA_SEED + 9).coords;
    let mut rng = Rng::new(seed, 530);
    let (us, n) = append_us(env::engine_builder(), &coords, 2000, &mut rng);
    report.timing("engine.append_us", us, n);
    let dir = ScratchDir::new("append-fsync");
    let always = env::engine_builder()
        .data_dir(dir.path())
        .fsync(FsyncPolicy::Always);
    let (us, n) = append_us(always, &coords, 200, &mut rng);
    report.timing("engine.append_fsync_us", us, n);
    drop(dir);

    let dir = ScratchDir::new("recovery");
    let builder = || {
        env::engine_builder()
            .data_dir(dir.path())
            .fsync(FsyncPolicy::EveryN(64))
            .overlay_limit(usize::MAX)
    };
    let probes: Vec<Vec<f64>> = (0..20).map(|_| rng.simplex(3)).collect();
    let engine = builder().build();
    engine
        .register_dataset("p", 3, coords.clone())
        .expect("register dataset");
    let before_bytes = dir.disk_bytes();
    let mut took: Vec<u64> = (0..RECOVERY_APPENDS)
        .map(|_| {
            let row = [rng.f64(), rng.f64(), rng.f64()];
            let start = Instant::now();
            engine.append_points("p", &row).expect("append");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    // The copy-on-write delta makes an append O(Δ): the first 2000
    // calls are comparable with the in-memory and fsync-always engines.
    let s = summarize(&mut took[..2000], 0.99);
    report.timing("engine.append_wal_us", s.p50 as f64 / 1e3, s.n);
    report.value(
        "engine.wal_bytes_per_append",
        (dir.disk_bytes() - before_bytes) as f64 / RECOVERY_APPENDS as f64,
    );
    let mut victims: Vec<u32> = (0..DURABLE_ROWS as u32 / 2).collect();
    rng.shuffle(&mut victims);
    for id in victims.into_iter().take(RECOVERY_DELETES) {
        engine.delete_points("p", &[id]).expect("delete");
    }
    let want = fingerprint(&engine, &probes);
    drop(engine);

    let start = Instant::now();
    let reopened = builder().try_build();
    let recovery_s = start.elapsed().as_secs_f64();
    let engine = match reopened {
        Ok(engine) => engine,
        Err(e) => {
            outcome.check("recovery", Err(e.to_string()));
            return;
        }
    };
    let replayed = engine.metrics().catalog.wal_replayed;
    report.timing("recovery_s", recovery_s, 1);
    report.timing(
        "engine.replay_records_per_s",
        replayed as f64 / recovery_s,
        1,
    );
    let got = fingerprint(&engine, &probes);
    let live = DURABLE_ROWS + RECOVERY_APPENDS - RECOVERY_DELETES;
    outcome.check(
        "recovered live count",
        (got.ids.len() == live)
            .then_some(())
            .ok_or_else(|| format!("{} rows, expected {live}", got.ids.len())),
    );
    outcome.check(
        "recovered rows, epoch and probe answers bit-equal",
        (got == want)
            .then_some(())
            .ok_or_else(|| "state after reopen differs from the state before shutdown".into()),
    );

    let start = Instant::now();
    let compacted = engine.compact("p");
    report.timing("engine.compact_s", start.elapsed().as_secs_f64(), 1);
    let start = Instant::now();
    let checkpointed = engine.checkpoint();
    report.timing("engine.checkpoint_s", start.elapsed().as_secs_f64(), 1);
    outcome.check("compact", compacted.map(|_| ()).map_err(|e| e.to_string()));
    outcome.check(
        "checkpoint",
        checkpointed.map(|_| ()).map_err(|e| e.to_string()),
    );
    report.value(
        "disk_bytes_per_live_byte",
        dir.disk_bytes() as f64 / (live * 3 * 8) as f64,
    );
}

/// Runs every probe.
pub fn run(report: &mut Report, outcome: &mut Outcome, seed: u64) {
    let (h3, h5) = in_process(report, outcome, seed);
    let mut rng = Rng::new(seed, 540);
    for (handle, depth) in [(&h3, (3, 12)), (&h5, (5, 20))] {
        kernels::builds(report, handle);
        let q = near_skyline_q(handle, depth, &mut rng);
        kernels::probes(report, handle, &q, K, &mut rng);
    }
    kernels::small_layers(report, 3, &mut rng);
    durability(report, outcome, seed);
}
