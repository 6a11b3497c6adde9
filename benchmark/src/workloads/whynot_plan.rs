//! `whynot_plan`: the paper's own experiment — `core` (MQP/MWK/MQWK,
//! sampling, safe region) and `qp` dominate at a few tenths of a second
//! per plan.
//!
//! IND 100k×3; `WhyNot` plans (all three strategies, |S| = |Q| = 200,
//! culprit limit 16) over distinct cases built the way
//! `data::workload::build_case` builds them: a competitive query point
//! (5th under a pivot preference) and why-not vectors walked away from
//! the pivot until the point ranks near the target. Target rank cycles
//! through {11, 101, 501}, |Wm| through {1, 2, 3}; every case has its own
//! sampling seed. Wire v2 streaming, closed loop 2 connections × depth 1.
//! The questions are a fixed log (see [`cases`]); `--seed` draws the
//! sampling seeds, except for the first [`PENALTY_HEAD`] cases of every
//! connection: their sampling seeds are fixed too and every run
//! completes them, so the mean penalty of their recommended steps — the
//! paper's quality metric — is one number for one version of the
//! program, whatever the seed, the clock or the host. A run whose
//! `plan_penalty_mean` is worse than [`REFERENCE_PENALTY_MEAN`] by more
//! than [`PENALTY_TOLERANCE`] is incorrect: a faster sampler that
//! returns worse refinements fails here.

use super::{connect, set_up, Outcome, RunConfig, Tracing, K};
use crate::client::{ConnResult, FrameSet};
use crate::env::{self, CONNECTIONS};
use crate::kernels;
use crate::load::{self, ClosedSpec};
use crate::metrics::Report;
use crate::oracle::Rows;
use crate::rng::Rng;
use crate::stats::summarize;
use std::time::Instant;
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{DatasetHandle, Request, Response, StrategyKind, WhyNotOptions};

const N: usize = 100_000;
const DIM: usize = 3;
const DATASET: &str = "p";
const TARGET_RANKS: [usize; 3] = [11, 101, 501];
const SAMPLES: usize = 200;
/// The tail percentile: a 20 s run completes 100–130 plans, so p75 is
/// the highest rung that always has ten samples beyond it (p90 would
/// flip to p75 whenever a run completes fewer than 100).
const TAIL: f64 = 0.75;
/// Cases generated per connection and second of run time (about twice
/// what this box completes; a connection stops early if it runs out).
const CASES_PER_SECOND: f64 = 6.0;
/// Of those, the head every untraced run completes whatever the clock
/// says (about three quarters of what this box completes).
const HEAD_PER_SECOND: f64 = 1.5;
/// Cases at the start of every connection's list whose sampling seeds do
/// not depend on `--seed`; every run, traced or not, completes them.
const PENALTY_HEAD: usize = 8;
/// Mean penalty of the recommended step over the penalty head, as
/// measured when the benchmark was defined. A change to the benchmark
/// alone re-measures it.
const REFERENCE_PENALTY_MEAN: f64 = 0.049_952_482_193_276;
/// Share of the reference by which the penalty mean may be worse.
const PENALTY_TOLERANCE: f64 = 0.005;

/// One why-not question.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    dataset: &'static str,
    q: Vec<f64>,
    why_not: Vec<Vec<f64>>,
    seed: u64,
}

impl Case {
    /// The plan request running `strategies` on this case.
    pub fn request(&self, strategies: &[StrategyKind]) -> Request {
        Request::WhyNot {
            dataset: self.dataset.into(),
            q: self.q.clone(),
            k: K,
            why_not: self.why_not.clone(),
            options: WhyNotOptions {
                strategies: strategies.to_vec(),
                culprit_limit: 16,
                sample_size: SAMPLES,
                query_samples: SAMPLES,
                seed: self.seed,
                ..WhyNotOptions::default()
            },
        }
    }
}

fn lerp_simplex(a: &[f64], b: &[f64], t: f64) -> Vec<f64> {
    let mut w: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| ((1.0 - t) * x + t * y).max(1e-6))
        .collect();
    let total: f64 = w.iter().sum();
    w.iter_mut().for_each(|x| *x /= total);
    w
}

/// Builds one case whose why-not vectors rank `q` within ±50 % of
/// `target_rank` (and never within the top `K`).
fn build_case(
    dataset: &'static str,
    handle: &DatasetHandle,
    num_why_not: usize,
    target_rank: usize,
    rng: &mut Rng,
) -> Case {
    let rank = |w: &[f64], q: &[f64]| {
        let threshold: f64 = w.iter().zip(q).map(|(a, b)| a * b).sum();
        handle.flat.count_better_than(w, threshold) + 1
    };
    let lo = (target_rank.div_ceil(2)).max(K + 1);
    let hi = (target_rank * 3).div_ceil(2);
    for _pivot in 0..64 {
        let w_good = rng.simplex(DIM);
        let Some((id, _)) = handle.index.best_first(&w_good).nth(4) else {
            continue;
        };
        let mut q = vec![0.0; DIM];
        handle.flat.point_into(id as usize, &mut q);
        q.iter_mut().for_each(|c| *c *= 1.0 + 1e-6);
        let mut why_not = Vec::with_capacity(num_why_not);
        for _try in 0..600 {
            if why_not.len() == num_why_not {
                break;
            }
            let w_far = rng.simplex(DIM);
            let far_rank = rank(&w_far, &q);
            if far_rank < lo {
                continue;
            }
            if far_rank <= hi {
                why_not.push(w_far);
                continue;
            }
            // rank(w(0)) ≤ 5 < lo ≤ hi < rank(w(1)): bisect along the ray.
            let (mut t_lo, mut t_hi) = (0.0f64, 1.0f64);
            for _ in 0..40 {
                let t = 0.5 * (t_lo + t_hi);
                let w = lerp_simplex(&w_good, &w_far, t);
                let r = rank(&w, &q);
                if (lo..=hi).contains(&r) {
                    why_not.push(w);
                    break;
                }
                if r < lo {
                    t_lo = t;
                } else {
                    t_hi = t;
                }
            }
        }
        if why_not.len() == num_why_not {
            return Case {
                dataset,
                q,
                why_not,
                seed: 0,
            };
        }
    }
    panic!("no why-not case in the rank window of {target_rank} after 64 pivots");
}

/// `count` cases on an indexed 3-d dataset: target rank cycles through
/// {11, 101, 501}, |Wm| through {1, 2, 3}.
///
/// The questions (query point and why-not vectors) are a fixed log, like
/// the data sets: `stream` selects the log, `seed` draws every case's
/// sampling seed past the first `fixed_head` cases (theirs are part of
/// the log). A run completes only ~120 plans whose cost spans 4×, so a
/// per-seed log moved throughput by ±9 % and peak RSS by ±16 % — the
/// case mix, not the program.
pub fn cases(
    dataset: &'static str,
    handle: &DatasetHandle,
    seed: u64,
    stream: u64,
    (count, fixed_head): (usize, usize),
) -> Vec<Case> {
    let mut questions = Rng::new(env::DATA_SEED, stream);
    let mut fixed = Rng::new(env::DATA_SEED, stream + 1_000);
    let mut sampling = Rng::new(seed, stream);
    (0..count)
        .map(|i| {
            let (num_why_not, target) = (1 + (i / 3) % 3, TARGET_RANKS[i % 3]);
            let mut case = build_case(dataset, handle, num_why_not, target, &mut questions);
            case.seed = if i < fixed_head {
                fixed.next_u64()
            } else {
                sampling.next_u64()
            };
            case
        })
        .collect()
}

fn plan_of(response: &Response) -> Option<&wqrtq_engine::Plan> {
    match response {
        Response::Plan(plan) => Some(plan),
        _ => None,
    }
}

/// Records `plan_penalty_mean` over the penalty head of `results` and
/// checks it against the reference.
fn check_penalty(report: &mut Report, outcome: &mut Outcome, results: &[(usize, ConnResult)]) {
    let penalties: Vec<f64> = results
        .iter()
        .flat_map(|(_, r)| r.kept.iter())
        .filter(|(idx, _)| (*idx as usize) < PENALTY_HEAD)
        .filter_map(|(_, r)| plan_of(r).map(|p| p.recommended().refinement.penalty))
        .collect();
    let mean = penalties.iter().sum::<f64>() / penalties.len().max(1) as f64;
    report.timing("plan_penalty_mean", mean, penalties.len());
    let limit = REFERENCE_PENALTY_MEAN * (1.0 + PENALTY_TOLERANCE);
    outcome.check(
        "plan_penalty_mean vs reference",
        if penalties.len() != PENALTY_HEAD * CONNECTIONS {
            Err(format!(
                "{} of {} penalty-head plans completed",
                penalties.len(),
                PENALTY_HEAD * CONNECTIONS
            ))
        } else if mean > limit {
            Err(format!(
                "mean penalty {mean} is worse than the reference {REFERENCE_PENALTY_MEAN} by more than {PENALTY_TOLERANCE}"
            ))
        } else {
            Ok(())
        },
    );
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Outcome {
    let mut outcome = Outcome::default();
    let data = independent(N, DIM, env::DATA_SEED);
    let engine = set_up(
        cfg,
        report,
        &[DATASET],
        |_| env::engine_builder().build(),
        |engine| {
            engine
                .register_dataset(DATASET, DIM, data.coords.clone())
                .expect("register dataset");
        },
        |engine| {
            // One small plan pages the advisor path in.
            let handle = engine.catalog().handle(DATASET).expect("handle");
            let warm = build_case(DATASET, &handle, 1, 11, &mut Rng::new(0, 300));
            std::hint::black_box(engine.submit(warm.request(&[StrategyKind::Mqp])));
        },
    );
    let handle = engine.catalog().handle(DATASET).expect("handle");
    let head = ((cfg.seconds * HEAD_PER_SECOND).ceil() as usize).max(PENALTY_HEAD);
    let per_conn = ((cfg.seconds * CASES_PER_SECOND).ceil() as usize).max(head);
    let lists: Vec<Vec<Case>> = (0..CONNECTIONS)
        .map(|c| {
            let stream = 310 + c as u64;
            cases(DATASET, &handle, cfg.seed, stream, (per_conn, PENALTY_HEAD))
        })
        .collect();
    let sets: Vec<FrameSet> = lists
        .iter()
        .map(|list| {
            let requests: Vec<Request> =
                list.iter().map(|c| c.request(&StrategyKind::ALL)).collect();
            FrameSet::encode(&requests)
        })
        .collect();
    let server = env::serve(engine);
    let mut conns = connect(&server);
    let spec = |share: f64, min_requests: usize| ClosedSpec {
        depth: 1,
        duration: cfg.share(share),
        min_requests,
        keep_every: 1,
    };
    let mut results: Vec<(usize, ConnResult)> = Vec::new();

    if cfg.traced {
        let mut tracing = Tracing::new();
        let mut starts = vec![0usize; CONNECTIONS];
        let before = env::wire_stats(&server);
        let (plain, allocs) = load::counting_allocations(|| {
            load::run_closed(&mut conns, &sets, &starts, spec(0.25, PENALTY_HEAD), None)
        });
        load::advance(&mut starts, &plain, usize::MAX);
        outcome.absorb("plans (spans off)", &plain);
        let traced = load::run_closed(
            &mut conns,
            &sets,
            &starts,
            spec(0.25, 0),
            Some(&mut tracing.load),
        );
        load::advance(&mut starts, &traced, usize::MAX);
        outcome.absorb("plans (spans on)", &traced);
        load::report_trace_cost(
            report,
            (allocs, plain.completed()),
            (plain.throughput(), traced.throughput()),
        );
        let after = env::wire_stats(&server);
        load::report_stats(report, &before, &after);

        let mut first_parts: Vec<u64> = [&plain, &traced]
            .iter()
            .flat_map(|p| p.conns.iter())
            .flat_map(|c| c.done.iter())
            .filter(|d| d.ok && d.first_part_ns > 0)
            .map(|d| d.first_part_ns)
            .collect();
        let mut latencies: Vec<u64> = [&plain, &traced]
            .iter()
            .flat_map(|p| p.conns.iter())
            .flat_map(|c| c.done.iter())
            .filter(|d| d.ok)
            .map(|d| d.latency_ns)
            .collect();
        load::report_tail(report, &summarize(&mut latencies, TAIL));
        let first = summarize(&mut first_parts, TAIL);
        report.timing("plan_first_part_ms", first.p50 as f64 / 1e6, first.n);
        for phase in [plain, traced] {
            results.extend(phase.conns.into_iter().enumerate());
        }

        // Nested-path samples on fresh cases, within a time box.
        let engine = server.engine().clone();
        let fresh = cases(DATASET, &handle, cfg.seed, 320, (64, 0));
        let deadline = Instant::now() + cfg.share(0.2);
        for (i, case) in fresh.iter().enumerate() {
            if Instant::now() > deadline {
                break;
            }
            let mut twin = case.clone();
            twin.q[0] *= 1.0 + 1e-12;
            let wire = case.request(&StrategyKind::ALL);
            let id = 1_000_000 + i as u64;
            let response = load::nested_sample(
                &mut conns[0],
                &engine,
                &mut tracing.nested,
                id,
                (&wire, &twin.request(&StrategyKind::ALL)),
                "core",
                |_, _| {},
            );
            outcome.ok("nested sample", response);
        }
        tracing.finish(&cfg.workload, report);

        let request = lists[0][0].request(&StrategyKind::ALL);
        let reply = results
            .iter()
            .flat_map(|(_, r)| r.kept.iter())
            .map(|(_, r)| r)
            .find(|r| plan_of(r).is_some())
            .cloned();
        if let Some(reply) = reply {
            kernels::codec(report, &request, &reply);
        }
    } else {
        let phase = load::run_closed(&mut conns, &sets, &[0, 0], spec(1.0, head), None);
        outcome.absorb("plans", &phase);
        let latency = phase.latency(TAIL, |_, _| true);
        let mut first_parts: Vec<u64> = phase
            .conns
            .iter()
            .flat_map(|c| c.done.iter())
            .filter(|d| d.ok && d.first_part_ns > 0)
            .map(|d| d.first_part_ns)
            .collect();
        let first = summarize(&mut first_parts, TAIL);
        load::report_end_to_end(report, phase.throughput(), &latency, &first);
        results.extend(phase.conns.into_iter().enumerate());
    }
    drop(conns);
    server.shutdown();
    check_penalty(report, &mut outcome, &results);

    let rows = Rows {
        coords: &data.coords,
        dim: DIM,
        ids: None,
    };
    for (c, result) in &results {
        for (idx, response) in &result.kept {
            let case = &lists[*c][*idx as usize];
            let check = match plan_of(response) {
                Some(plan) => rows.check_plan(&case.q, K, &case.why_not, plan),
                None => Err(format!("expected a plan, got {response:?}")),
            };
            outcome.check("plan vs rank counting", check);
        }
    }
    outcome
}
