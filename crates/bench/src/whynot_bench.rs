//! Why-not advisor benchmark: [`Request::WhyNot`] plans through the
//! engine.
//!
//! Two things are measured (distinct query points per round, so the
//! result cache never flatters the numbers):
//!
//! * **throughput** — plans per second, with the exact-2D path pinned
//!   off so every round runs the sampled MWK/MQWK algorithms;
//! * **streaming latency** — how much sooner the first progressive
//!   partial (an explanation) lands than the full plan
//!   (`streaming_headstart` = full-plan time / first-partial time).
//!
//! Correctness anchor: every plan step must carry `verified = true`
//! (that the recommendation is the minimum-penalty step is a proptest in
//! `tests/advisor.rs`). The binary `whynot_bench` emits the JSON report
//! `scripts/bench.sh` writes to `BENCH_whynot.json`.

use std::time::{Duration, Instant};
use wqrtq_core::advisor::WhyNotOptions;
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{Engine, Histogram, PlanDelta, Request, Response};
use wqrtq_geom::Weight;
use wqrtq_query::rank::rank_of_point_scan;

/// Workload shape for the advisor benchmark.
#[derive(Clone, Copy, Debug)]
pub struct WhyNotBenchConfig {
    /// Dataset cardinality.
    pub n: usize,
    /// Why-not cases measured (each a distinct query point).
    pub rounds: usize,
    /// Why-not vectors per case.
    pub why_not: usize,
    /// The reverse top-k parameter.
    pub k: usize,
    /// Weight samples `|S|` for the sampled MWK/MQWK paths.
    pub sample_size: usize,
    /// Query-point samples `|Q|` for MQWK.
    pub query_samples: usize,
    /// Worker threads.
    pub workers: usize,
    /// Dataset and workload seed.
    pub seed: u64,
}

impl Default for WhyNotBenchConfig {
    fn default() -> Self {
        Self {
            n: 20_000,
            rounds: 24,
            why_not: 2,
            k: 10,
            sample_size: 200,
            query_samples: 100,
            workers: 4,
            seed: 2015,
        }
    }
}

/// The timed plan run.
#[derive(Clone, Copy, Debug)]
pub struct WhyNotTiming {
    /// Cases served (one plan request each).
    pub rounds: usize,
    /// Total wall-clock.
    pub elapsed: Duration,
    /// Median per-case latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-case latency in microseconds.
    pub p99_us: f64,
}

impl WhyNotTiming {
    /// Cases per second.
    pub fn cases_per_sec(&self) -> f64 {
        self.rounds as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// The full report.
#[derive(Clone, Debug)]
pub struct WhyNotReport {
    /// Configuration measured.
    pub config: WhyNotBenchConfig,
    /// One-request plan timing.
    pub plan: WhyNotTiming,
    /// Full-plan time / first-partial time on an uncached streamed case.
    pub streaming_headstart: f64,
    /// Every plan step carried `verified = true`.
    pub plan_steps_verified: bool,
}

impl WhyNotReport {
    /// The report as a JSON object (hand-rolled; std-only workspace).
    pub fn to_json(&self) -> String {
        let t = &self.plan;
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"whynot_plan\",\n",
                "  \"config\": {{\"n\": {}, \"rounds\": {}, \"why_not\": {}, \"k\": {}, ",
                "\"sample_size\": {}, \"query_samples\": {}, \"workers\": {}, \"seed\": {}}},\n",
                "  \"plan\": {{\"rounds\": {}, \"seconds\": {:.6}, ",
                "\"cases_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}},\n",
                "  \"streaming_headstart\": {:.2},\n",
                "  \"plan_steps_verified\": {}\n",
                "}}"
            ),
            self.config.n,
            self.config.rounds,
            self.config.why_not,
            self.config.k,
            self.config.sample_size,
            self.config.query_samples,
            self.config.workers,
            self.config.seed,
            t.rounds,
            t.elapsed.as_secs_f64(),
            t.cases_per_sec(),
            t.p50_us,
            t.p99_us,
            self.streaming_headstart,
            self.plan_steps_verified,
        )
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One why-not case: a query point and vectors under which it genuinely
/// ranks below `k` (checked against the dataset during setup, outside
/// every timed region).
struct Case {
    q: Vec<f64>,
    why_not: Vec<Vec<f64>>,
}

/// Generates `rounds + extras` valid why-not cases over `coords`.
fn cases(cfg: &WhyNotBenchConfig, coords: &[f64], extras: usize) -> Vec<Case> {
    let mut state = cfg.seed ^ 0x5151_a0a0_c3c3_7e7e;
    let mut out = Vec::with_capacity(cfg.rounds + extras);
    let mut attempts = 0usize;
    while out.len() < cfg.rounds + extras {
        attempts += 1;
        assert!(
            attempts < 100_000,
            "could not find enough why-not cases — workload too easy?"
        );
        // A mid-field query point: competitive enough to be plausible,
        // weak enough that skewed weights rank it below k.
        let q: Vec<f64> = (0..2).map(|_| 0.25 + 0.35 * unit(&mut state)).collect();
        let mut why_not = Vec::with_capacity(cfg.why_not);
        for _ in 0..cfg.why_not * 8 {
            if why_not.len() == cfg.why_not {
                break;
            }
            // Skewed weights are the ones that exclude mid-field points.
            let x = if unit(&mut state) < 0.5 {
                0.02 + 0.1 * unit(&mut state)
            } else {
                0.88 + 0.1 * unit(&mut state)
            };
            let w = Weight::from_first_2d(x);
            if rank_of_point_scan(coords, &w, &q) > cfg.k {
                why_not.push(vec![w[0], w[1]]);
            }
        }
        if why_not.len() == cfg.why_not {
            out.push(Case { q, why_not });
        }
    }
    out
}

fn plan_options(cfg: &WhyNotBenchConfig) -> WhyNotOptions {
    WhyNotOptions {
        sample_size: cfg.sample_size,
        query_samples: cfg.query_samples,
        seed: cfg.seed,
        // Pinned off so the sampled MWK path is what gets measured, not
        // the exact 2-D sweep this 2-D workload would auto-select.
        exact_2d: false,
        ..WhyNotOptions::default()
    }
}

fn plan_request(cfg: &WhyNotBenchConfig, case: &Case) -> Request {
    Request::WhyNot {
        dataset: "bench".into(),
        q: case.q.clone(),
        k: cfg.k,
        why_not: case.why_not.clone(),
        options: plan_options(cfg),
    }
}

/// Runs the benchmark.
pub fn run(cfg: &WhyNotBenchConfig) -> WhyNotReport {
    let ds = independent(cfg.n, 2, cfg.seed);
    let all_cases = cases(cfg, &ds.coords, 1);
    let (timed_cases, streamed_case) = all_cases.split_at(cfg.rounds);

    let engine = Engine::builder().workers(cfg.workers).build();
    engine
        .register_dataset("bench", 2, ds.coords.clone())
        .expect("register");
    engine.catalog().handle("bench").expect("warm index");

    // One plan request per case.
    let mut verified = true;
    let plan_latency = Histogram::new();
    let plan_start = Instant::now();
    for case in timed_cases {
        let case_began = Instant::now();
        match engine.submit(plan_request(cfg, case)) {
            Response::Plan(plan) => verified &= plan.steps.iter().all(|s| s.verified),
            other => panic!("plan request failed: {other:?}"),
        }
        plan_latency.record_duration(case_began.elapsed());
    }
    let plan_snap = plan_latency.snapshot();
    let plan = WhyNotTiming {
        rounds: cfg.rounds,
        elapsed: plan_start.elapsed(),
        p50_us: plan_snap.quantile_micros(0.50),
        p99_us: plan_snap.quantile_micros(0.99),
    };

    // Streaming latency: on a fresh (uncached) case, how much sooner
    // does the first partial land than the full plan?
    let (tx, rx) = std::sync::mpsc::channel();
    let first_tx = tx.clone();
    let streamed_start = Instant::now();
    engine.submit_with_progress(
        plan_request(cfg, &streamed_case[0]),
        move |delta| {
            if matches!(delta, PlanDelta::Explained { index: 0, .. }) {
                let _ = first_tx.send(None);
            }
        },
        move |response| tx.send(Some(response)).unwrap(),
    );
    let mut first_partial = None;
    let mut full_plan = None;
    for event in rx.iter() {
        match event {
            None => first_partial.get_or_insert(streamed_start.elapsed()),
            Some(response) => {
                assert!(matches!(response, Response::Plan(_)));
                full_plan.get_or_insert(streamed_start.elapsed())
            }
        };
        if full_plan.is_some() {
            break;
        }
    }
    let first = first_partial.expect("first partial observed").as_secs_f64();
    let full = full_plan.expect("plan completed").as_secs_f64();
    let streaming_headstart = full / first.max(1e-9);

    WhyNotReport {
        config: *cfg,
        plan,
        streaming_headstart,
        plan_steps_verified: verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WhyNotBenchConfig {
        WhyNotBenchConfig {
            n: 1_500,
            rounds: 4,
            why_not: 2,
            k: 5,
            sample_size: 48,
            query_samples: 16,
            workers: 2,
            seed: 7,
        }
    }

    #[test]
    fn bench_runs_and_report_is_json_shaped() {
        let c = run(&tiny());
        assert_eq!(c.plan.rounds, 4);
        assert!(c.plan_steps_verified, "every step must verify");
        assert!(c.streaming_headstart >= 1.0);
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"streaming_headstart\""));
        assert!(json.contains("\"plan_steps_verified\": true"));
        assert!(json.contains("\"p50_us\""));
        assert!(json.contains("\"p99_us\""));
        assert!(c.plan.p99_us >= c.plan.p50_us);
        assert!(c.plan.p50_us > 0.0);
    }
}
