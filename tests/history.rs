//! Seeded histories: a reply is a function of the live rows and the
//! request, whatever sequence of mutations produced them.
//!
//! Each round runs random register, append, delete, compact, checkpoint
//! and reopen steps on one dataset whose rows sit on a 6 × 6 integer
//! grid (its cube at d = 3) with zeros of both signs, so exact score
//! ties — `−0.0` against `+0.0` among them — are everywhere. After every
//! step three engines answer the same battery:
//!
//! * the engine under test: durable, reopened only at its own reopen
//!   steps;
//! * a twin compacted at that step: in memory, its overlay merged after
//!   every step;
//! * a twin reopened from disk at that step: durable, mirroring every
//!   step of the engine under test, then dropped and reopened.
//!
//! A compaction renumbers point ids in ascending-id order, so the
//! compacted twin's ids are mapped back through the live ids before its
//! reply is compared. Replies are compared as `ServerFrame` reply bytes,
//! which carry every `f64` by its bits.
//!
//! The battery covers `TopK` (ties at every `k`), `ReverseTopKBi` (named,
//! so served from a score table or RTA, and inline), `ReverseTopKMono`
//! (exact at d = 2, sampled at d = 3) and `WhyNot` plans: MQP, and the
//! sampled MWK and MQWK at a fixed seed.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the rounds (default 4, alternating
//! d = 2 and d = 3; the nightly soak raises it).

use std::path::{Path, PathBuf};
use wqrtq::engine::FsyncPolicy;
use wqrtq::prelude::*;
use wqrtq::server::ServerFrame;

const STEPS: usize = 24;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn rounds() -> u64 {
    std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// `n` rows on the integer grid `0..6` per coordinate, one in twenty
/// of them a zero row; a zero coordinate is `−0.0` half the time.
fn grid_rows(rng: &mut Rng, n: usize, dim: usize) -> Vec<f64> {
    let mut rows = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let zero_row = rng.below(20) == 0;
        for _ in 0..dim {
            let c = if zero_row { 0 } else { rng.below(6) };
            rows.push(match c {
                0 if rng.below(2) == 0 => -0.0,
                c => c as f64,
            });
        }
    }
    rows
}

/// A throwaway data directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "wqrtq-history-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn builder() -> EngineBuilder {
    // Automatic compaction would renumber ids behind the model's back.
    Engine::builder().workers(1).overlay_limit(usize::MAX)
}

fn durable(dir: &Path) -> Engine {
    builder().data_dir(dir).fsync(FsyncPolicy::Never).build()
}

/// One step of a history, as the engine under test takes it (ids are
/// its own).
#[derive(Clone, Debug)]
enum Step {
    Register(Vec<f64>),
    Append(Vec<f64>),
    Delete(Vec<u32>),
    Compact,
    Checkpoint,
    Reopen,
}

/// The live ids of the engine under test, ascending — the order a
/// compaction numbers rows in — and the id its next append gets.
struct Model {
    live: Vec<u32>,
    next: u32,
}

impl Model {
    fn renumber(&mut self, n: usize) {
        self.live = (0..n as u32).collect();
        self.next = n as u32;
    }

    /// The compacted twin's id of a live id.
    fn dense(&self, id: u32) -> u32 {
        self.live.binary_search(&id).expect("a live id") as u32
    }
}

fn random_step(rng: &mut Rng, model: &Model, dim: usize) -> Step {
    match rng.below(20) {
        0 => {
            let n = 40 + rng.below(200);
            Step::Register(grid_rows(rng, n, dim))
        }
        1..=7 => {
            let n = 1 + rng.below(12);
            Step::Append(grid_rows(rng, n, dim))
        }
        8..=12 if !model.live.is_empty() => {
            let mut ids: Vec<u32> = (0..1 + rng.below(8))
                .map(|_| model.live[rng.below(model.live.len())])
                .collect();
            ids.sort_unstable();
            ids.dedup();
            Step::Delete(ids)
        }
        13..=15 => Step::Compact,
        16..=17 => Step::Checkpoint,
        18..=19 => Step::Reopen,
        _ => Step::Append(grid_rows(rng, 2, dim)),
    }
}

/// Weights on a grid of quarters, zero entries first.
fn population(dim: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for first in 0..=4 {
        let a = f64::from(first) / 4.0;
        let mut w = vec![0.0; dim];
        w[0] = a;
        w[dim - 1] += 1.0 - a;
        out.push(w);
    }
    out.push(vec![1.0 / dim as f64; dim]);
    out
}

fn battery(dim: usize) -> Vec<Request> {
    let dataset = || "d".to_string();
    let q = |x: f64| {
        let mut q = vec![x; dim];
        q[0] = -0.0;
        q
    };
    let mut out = Vec::new();
    for w in population(dim) {
        for k in [1, 3, 7, 40, 1000] {
            out.push(Request::TopK {
                dataset: dataset(),
                weight: w.clone(),
                k,
            });
        }
    }
    for k in [8, 60] {
        for weights in [
            WeightSet::Named("pop".into()),
            WeightSet::Inline(population(dim)),
        ] {
            out.push(Request::ReverseTopKBi {
                dataset: dataset(),
                weights,
                q: q(1.0),
                k,
            });
        }
    }
    out.push(Request::ReverseTopKMono {
        dataset: dataset(),
        q: q(1.0),
        k: 40,
        samples: 64,
        seed: 7,
    });
    out.push(Request::WhyNot {
        dataset: dataset(),
        q: q(2.0),
        k: 8,
        why_not: vec![population(dim)[1].clone(), population(dim)[5].clone()],
        options: WhyNotOptions {
            strategies: vec![StrategyKind::Mqp],
            culprit_limit: 5,
            ..WhyNotOptions::default()
        },
    });
    // The sampled strategies: MWK draws weights from the frontier, MQWK
    // query points and weights, each from a fixed seed.
    for (strategy, seed) in [(StrategyKind::Mwk, 11), (StrategyKind::Mqwk, 13)] {
        out.push(Request::WhyNot {
            dataset: dataset(),
            q: q(2.0),
            k: 8,
            why_not: vec![population(dim)[1].clone(), population(dim)[5].clone()],
            options: WhyNotOptions {
                strategies: vec![strategy],
                culprit_limit: 5,
                exact_2d: false,
                sample_size: 32,
                query_samples: 8,
                seed,
                ..WhyNotOptions::default()
            },
        });
    }
    out
}

/// The compacted twin's reply with its point ids mapped to the engine
/// under test's.
fn map_ids(reply: Response, model: &Model) -> Response {
    let map = |top: Vec<(u32, f64)>| -> Vec<(u32, f64)> {
        top.into_iter()
            .map(|(id, s)| (model.live[id as usize], s))
            .collect()
    };
    match reply {
        Response::TopK(top) => Response::TopK(map(top)),
        Response::Plan(mut plan) => {
            for e in &mut plan.explanations {
                e.culprits = map(std::mem::take(&mut e.culprits));
            }
            Response::Plan(plan)
        }
        other => other,
    }
}

fn bytes(reply: &Response) -> Vec<u8> {
    ServerFrame::Reply(reply.clone()).encode(0)
}

fn run_round(seed: u64) {
    let dim = 2 + (seed % 2) as usize;
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let (dir_e, dir_r) = (TempDir::new("e"), TempDir::new("r"));
    let mut engine = durable(&dir_e.0);
    let mut reopened = durable(&dir_r.0);
    let compacted = builder().build();

    let pop: Vec<Weight> = population(dim).into_iter().map(Weight::new).collect();
    // Past the index's fanout of 64: ties span leaves.
    let n = 150 + rng.below(100);
    let first = grid_rows(&mut rng, n, dim);
    let mut model = Model {
        live: Vec::new(),
        next: 0,
    };
    for e in [&engine, &reopened, &compacted] {
        e.register_weights("pop", pop.clone()).unwrap();
    }
    let mut step = Step::Register(first);
    for at in 0..STEPS {
        if at > 0 {
            step = random_step(&mut rng, &model, dim);
        }
        match &step {
            Step::Register(rows) => {
                for e in [&engine, &reopened, &compacted] {
                    e.register_dataset("d", dim, rows.clone()).unwrap();
                }
                model.renumber(rows.len() / dim);
            }
            Step::Append(rows) => {
                for e in [&engine, &reopened, &compacted] {
                    e.append_points("d", rows).unwrap();
                }
                let n = (rows.len() / dim) as u32;
                model.live.extend(model.next..model.next + n);
                model.next += n;
            }
            Step::Delete(ids) => {
                let dense: Vec<u32> = ids.iter().map(|&id| model.dense(id)).collect();
                engine.delete_points("d", ids).unwrap();
                reopened.delete_points("d", ids).unwrap();
                compacted.delete_points("d", &dense).unwrap();
                model.live.retain(|id| !ids.contains(id));
            }
            Step::Compact => {
                let ran = engine.compact("d").unwrap();
                assert_eq!(reopened.compact("d").unwrap(), ran, "seed {seed}");
                if ran {
                    model.renumber(model.live.len());
                }
            }
            Step::Checkpoint => {
                assert!(engine.checkpoint().unwrap());
                assert!(reopened.checkpoint().unwrap());
            }
            Step::Reopen => {
                drop(engine);
                engine = durable(&dir_e.0);
            }
        }
        compacted.compact("d").unwrap();
        drop(reopened);
        reopened = durable(&dir_r.0);

        let at = format!("seed {seed} step {at} {step:?}");
        for request in battery(dim) {
            let want = engine.submit(request.clone());
            if let Response::Error(msg) = &want {
                assert!(!msg.contains("panicked"), "{at}: {request:?}: {msg}");
            }
            let twin = map_ids(compacted.submit(request.clone()), &model);
            assert!(
                bytes(&twin) == bytes(&want),
                "{at}: {request:?}\n  under test: {want:?}\n  compacted:  {twin:?}"
            );
            let twin = reopened.submit(request.clone());
            assert!(
                bytes(&twin) == bytes(&want),
                "{at}: {request:?}\n  under test: {want:?}\n  reopened:   {twin:?}"
            );
        }
    }
}

#[test]
fn every_history_answers_as_its_live_rows() {
    for seed in 0..rounds() {
        run_round(seed);
    }
}
