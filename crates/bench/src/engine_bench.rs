//! Batched-engine vs sequential-naive serving comparison.
//!
//! Three ways to serve the same mixed request stream:
//!
//! * **sequential naive** — the one-shot library pattern: every call
//!   rebuilds the R-tree index before querying (what ad-hoc invocations
//!   of the pre-engine entry points amounted to);
//! * **sequential shared** — direct library calls against one pre-built
//!   index (isolates the index-reuse win from pooling/caching);
//! * **batched engine** — `Engine::submit_batch` over the worker pool
//!   with the epoch-keyed result cache.
//!
//! The binary `engine_bench` runs the comparison and emits a JSON report
//! (`scripts/bench.sh` writes it to `BENCH_engine.json`).

use std::time::{Duration, Instant};
use wqrtq_core::advisor::{StrategyKind, WhyNotOptions};
use wqrtq_core::framework::Wqrtq;
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{Engine, Histogram, HistogramSnapshot, Request, Response};
use wqrtq_geom::Weight;
use wqrtq_query::brtopk::bichromatic_reverse_topk_rta;
use wqrtq_query::topk::topk;
use wqrtq_rtree::RTree;

/// Workload shape for the comparison.
#[derive(Clone, Copy, Debug)]
pub struct EngineBenchConfig {
    /// Dataset cardinality.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Requests per batch.
    pub batch: usize,
    /// Batches served (distinct request streams, then one repeat pass).
    pub rounds: usize,
    /// Worker threads for the engine side.
    pub workers: usize,
    /// Dataset / workload seed.
    pub seed: u64,
}

impl Default for EngineBenchConfig {
    fn default() -> Self {
        Self {
            n: 20_000,
            dim: 3,
            batch: 64,
            rounds: 4,
            workers: std::thread::available_parallelism().map_or(4, |p| p.get()),
            seed: 2015,
        }
    }
}

/// One serving strategy's measurement.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Requests served.
    pub requests: usize,
    /// Wall-clock for the whole stream.
    pub elapsed: Duration,
    /// Median per-request latency (microseconds).
    pub p50_us: f64,
    /// 99th-percentile per-request latency (microseconds).
    pub p99_us: f64,
}

impl Throughput {
    /// A measurement whose tail latencies come from a recorded
    /// histogram (the workspace's log-linear scheme: ~3% relative
    /// error, so a p99 of 100µs may report as 103µs, never 130µs).
    pub fn with_latency(requests: usize, elapsed: Duration, latency: &HistogramSnapshot) -> Self {
        Throughput {
            requests,
            elapsed,
            p50_us: latency.quantile_micros(0.50),
            p99_us: latency.quantile_micros(0.99),
        }
    }

    /// Requests per second.
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Renders one [`Throughput`] as a JSON object (shared by the engine
/// and server reports).
pub fn throughput_json(t: &Throughput) -> String {
    format!(
        "{{\"requests\": {}, \"seconds\": {:.6}, \"rps\": {:.1}, \
         \"p50_us\": {:.3}, \"p99_us\": {:.3}}}",
        t.requests,
        t.elapsed.as_secs_f64(),
        t.rps(),
        t.p50_us,
        t.p99_us,
    )
}

/// The comparison report.
#[derive(Clone, Debug)]
pub struct EngineComparison {
    /// Configuration measured.
    pub config: EngineBenchConfig,
    /// One-shot calls, index rebuilt per request.
    pub sequential_naive: Throughput,
    /// One-shot calls against a pre-built index.
    pub sequential_shared: Throughput,
    /// `Engine::submit_batch` with a single worker (pool + cache, no
    /// parallelism) — the scaling baseline.
    pub batched_engine_workers_1: Throughput,
    /// `Engine::submit_batch` over `config.workers` workers with caching.
    pub batched_engine: Throughput,
    /// The multi-worker workload with tracing disabled — the
    /// observability-overhead baseline. Measured on the stretched
    /// overhead workload (see [`compare`]), so compare it against
    /// `obs_overhead`, not against `batched_engine`.
    pub untraced_engine: Throughput,
    /// traced / untraced throughput, median of the interleaved pairs
    /// (see [`compare`]) — what histogram and span recording costs on
    /// the hot path. Guarded at >= 0.95 by `scripts/check_bench.sh`.
    pub obs_overhead: f64,
    /// Cache hit rate observed on the single-worker engine.
    pub cache_hit_rate_workers_1: f64,
    /// Cache hit rate observed on the multi-worker engine.
    pub cache_hit_rate: f64,
}

impl EngineComparison {
    /// batched / naive speedup.
    pub fn speedup_vs_naive(&self) -> f64 {
        self.batched_engine.rps() / self.sequential_naive.rps().max(1e-12)
    }

    /// multi-worker / single-worker engine throughput ratio.
    pub fn worker_scaling(&self) -> f64 {
        self.batched_engine.rps() / self.batched_engine_workers_1.rps().max(1e-12)
    }

    /// The report as a JSON object (hand-rolled; std-only workspace).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"engine_batched_vs_sequential\",\n",
                "  \"config\": {{\"n\": {}, \"dim\": {}, \"batch\": {}, \"rounds\": {}, \"workers\": {}, \"seed\": {}}},\n",
                "  \"sequential_naive\": {},\n",
                "  \"sequential_shared\": {},\n",
                "  \"batched_engine_workers_1\": {},\n",
                "  \"batched_engine\": {},\n",
                "  \"untraced_engine\": {},\n",
                "  \"cache_hit_rate_workers_1\": {:.4},\n",
                "  \"cache_hit_rate\": {:.4},\n",
                "  \"speedup_vs_naive\": {:.2},\n",
                "  \"worker_scaling\": {:.2},\n",
                "  \"obs_overhead\": {:.4}\n",
                "}}"
            ),
            self.config.n,
            self.config.dim,
            self.config.batch,
            self.config.rounds,
            self.config.workers,
            self.config.seed,
            throughput_json(&self.sequential_naive),
            throughput_json(&self.sequential_shared),
            throughput_json(&self.batched_engine_workers_1),
            throughput_json(&self.batched_engine),
            throughput_json(&self.untraced_engine),
            self.cache_hit_rate_workers_1,
            self.cache_hit_rate,
            self.speedup_vs_naive(),
            self.worker_scaling(),
            self.obs_overhead,
        )
    }
}

/// The why-not slot of the serving benches' request mixes: one
/// single-strategy plan (explanation capped at `culprit_limit`, then MQP)
/// against the `"bench"` dataset.
pub fn mqp_plan_request(q: Vec<f64>, k: usize, w: Vec<f64>, culprit_limit: usize) -> Request {
    Request::WhyNot {
        dataset: "bench".into(),
        q,
        k,
        why_not: vec![w],
        options: WhyNotOptions {
            strategies: vec![StrategyKind::Mqp],
            culprit_limit,
            exact_2d: false,
            ..WhyNotOptions::default()
        },
    }
}

/// The mixed request stream: mostly top-k probes with periodic
/// single-strategy why-not plans and bichromatic reverse top-k calls,
/// `rounds` distinct batches followed by one repeated batch (the cache's
/// best case — and a no-op for the baselines, which recompute it).
pub fn request_stream(cfg: &EngineBenchConfig) -> Vec<Vec<Request>> {
    let mut batches: Vec<Vec<Request>> = (0..cfg.rounds)
        .map(|round| {
            (0..cfg.batch)
                .map(|i| {
                    let t = (round * cfg.batch + i) as f64 / (cfg.rounds * cfg.batch) as f64;
                    let w = stream_weight(cfg.dim, t);
                    match i % 8 {
                        6 => mqp_plan_request(vec![0.35; cfg.dim], 10, w, 16),
                        7 => Request::ReverseTopKBi {
                            dataset: "bench".into(),
                            weights: wqrtq_engine::WeightSet::Named("population".into()),
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
        })
        .collect();
    batches.push(batches[0].clone()); // repeat pass
    batches
}

fn stream_weight(dim: usize, t: f64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..dim)
        .map(|j| 0.15 + 0.7 * ((t * 7.3 + j as f64 * 1.7).sin() * 0.5 + 0.5))
        .collect();
    let s: f64 = w.iter().sum();
    for x in &mut w {
        *x /= s;
    }
    w
}

fn population(dim: usize) -> Vec<Weight> {
    (0..40)
        .map(|i| Weight::normalized(stream_weight(dim, i as f64 / 40.0)))
        .collect()
}

/// Serves the stream with direct library calls. `rebuild_per_call`
/// selects the naive (rebuild) or shared (pre-built) baseline.
fn run_sequential(cfg: &EngineBenchConfig, coords: &[f64], rebuild_per_call: bool) -> Throughput {
    let prebuilt = if rebuild_per_call {
        None
    } else {
        Some(RTree::bulk_load(cfg.dim, coords))
    };
    let pop = population(cfg.dim);
    let mut served = 0usize;
    let mut sink = 0usize; // keep results observable
    let latency = Histogram::new();
    let start = Instant::now();
    for batch in request_stream(cfg) {
        for request in batch {
            let began = Instant::now();
            let rebuilt;
            let tree = match &prebuilt {
                Some(t) => t,
                None => {
                    rebuilt = RTree::bulk_load(cfg.dim, coords);
                    &rebuilt
                }
            };
            match request {
                Request::TopK { weight, k, .. } => sink += topk(tree, &weight, k).len(),
                Request::WhyNot {
                    q,
                    k,
                    why_not,
                    options,
                    ..
                } => {
                    let why_not: Vec<Weight> = why_not.into_iter().map(Weight::new).collect();
                    let plan = Wqrtq::new(tree, &q, k)
                        .and_then(|w| w.advise(&why_not, &options))
                        .expect("stream only emits genuine why-not vectors");
                    sink += plan.explanations[0].rank;
                }
                Request::ReverseTopKBi { q, k, .. } => {
                    sink += bichromatic_reverse_topk_rta(tree, &pop, &q, k).len()
                }
                other => unreachable!("stream only emits 3 kinds, got {other:?}"),
            }
            latency.record_duration(began.elapsed());
            served += 1;
        }
    }
    let elapsed = start.elapsed();
    std::hint::black_box(sink);
    Throughput::with_latency(served, elapsed, &latency.snapshot())
}

/// Serves the stream through an engine with `workers` threads.
/// `tracing` toggles the observability pipeline (histograms stay on —
/// they feed the report's percentiles — but span recording obeys it).
fn run_batched(
    cfg: &EngineBenchConfig,
    coords: &[f64],
    workers: usize,
    tracing: bool,
) -> (Throughput, f64) {
    let engine = Engine::builder()
        .workers(workers)
        .cache_capacity(2 * cfg.batch * cfg.rounds)
        .tracing(tracing)
        .build();
    engine
        .register_dataset("bench", cfg.dim, coords.to_vec())
        .expect("register bench dataset");
    engine
        .register_weights("population", population(cfg.dim))
        .expect("register population");
    // Warm the lazy index outside the timed region, as the baselines'
    // pre-built variant does (the naive baseline pays it per call).
    engine.catalog().handle("bench").expect("warm index");
    let mut served = 0usize;
    let start = Instant::now();
    for batch in request_stream(cfg) {
        let responses = engine.submit_batch(batch);
        assert!(
            responses.iter().all(|r| !matches!(r, Response::Error(_))),
            "bench stream must serve cleanly"
        );
        served += responses.len();
    }
    let elapsed = start.elapsed();
    let metrics = engine.metrics();
    let hit_rate = metrics.cache.hit_rate();
    (
        // Engine-side latency: what the workers measured per request
        // (queue wait excluded — that is a stage histogram of its own).
        Throughput::with_latency(served, elapsed, &metrics.merged_latency()),
        hit_rate,
    )
}

/// Runs the full comparison.
pub fn compare(cfg: &EngineBenchConfig) -> EngineComparison {
    let ds = independent(cfg.n, cfg.dim, cfg.seed);
    let sequential_naive = run_sequential(cfg, &ds.coords, true);
    let sequential_shared = run_sequential(cfg, &ds.coords, false);
    let (batched_engine_workers_1, cache_hit_rate_workers_1) =
        run_batched(cfg, &ds.coords, 1, true);
    let (batched_engine, cache_hit_rate) = run_batched(cfg, &ds.coords, cfg.workers, true);

    // The guarded obs_overhead ratio needs more care than the headline
    // throughput: at smoke scale a timed side lasts ~25 ms, where
    // scheduler noise dwarfs a few-percent effect. Four defences: the
    // workload is stretched to >= 12 rounds so each side runs long
    // enough to average over hiccups; a discarded warm-up run eats the
    // one-time costs (page faults, allocator growth) that would
    // otherwise always land on the side that runs first; traced and
    // untraced runs are interleaved in back-to-back pairs with
    // alternating order, so slow common-mode drift cancels in each
    // ratio instead of biasing one side; and the median of five
    // per-pair ratios throws away the pairs a hiccup hit.
    let mut ov_cfg = *cfg;
    ov_cfg.rounds = cfg.rounds.max(12);
    let _ = run_batched(&ov_cfg, &ds.coords, cfg.workers, true);
    let mut traced_runs: Vec<Throughput> = Vec::new();
    let mut untraced_runs: Vec<Throughput> = Vec::new();
    for i in 0..5 {
        if i % 2 == 0 {
            traced_runs.push(run_batched(&ov_cfg, &ds.coords, cfg.workers, true).0);
            untraced_runs.push(run_batched(&ov_cfg, &ds.coords, cfg.workers, false).0);
        } else {
            untraced_runs.push(run_batched(&ov_cfg, &ds.coords, cfg.workers, false).0);
            traced_runs.push(run_batched(&ov_cfg, &ds.coords, cfg.workers, true).0);
        }
    }
    let mut ratios: Vec<f64> = traced_runs
        .iter()
        .zip(&untraced_runs)
        .map(|(t, u)| t.rps() / u.rps().max(1e-12))
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let obs_overhead = ratios[ratios.len() / 2];
    let untraced_engine = untraced_runs
        .into_iter()
        .max_by(|a, b| a.rps().partial_cmp(&b.rps()).expect("finite rps"))
        .expect("at least one run");
    EngineComparison {
        config: *cfg,
        sequential_naive,
        sequential_shared,
        batched_engine_workers_1,
        batched_engine,
        untraced_engine,
        obs_overhead,
        cache_hit_rate_workers_1,
        cache_hit_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EngineBenchConfig {
        EngineBenchConfig {
            n: 2_000,
            dim: 3,
            batch: 16,
            rounds: 2,
            workers: 2,
            seed: 7,
        }
    }

    #[test]
    fn stream_shape_and_repeat_pass() {
        let cfg = tiny();
        let batches = request_stream(&cfg);
        assert_eq!(batches.len(), cfg.rounds + 1);
        assert!(batches.iter().all(|b| b.len() == cfg.batch));
        assert_eq!(
            batches[0], batches[cfg.rounds],
            "last batch repeats the first"
        );
    }

    #[test]
    fn batched_engine_beats_naive_and_report_is_json_shaped() {
        let c = compare(&tiny());
        assert_eq!(c.sequential_naive.requests, c.batched_engine.requests);
        assert!(
            c.speedup_vs_naive() > 1.0,
            "engine must out-serve per-call index rebuilds: {:?}",
            c
        );
        assert!(c.cache_hit_rate > 0.0, "repeat pass must hit the cache");
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"speedup_vs_naive\""));
        assert!(json.contains("\"batched_engine\""));
        assert!(json.contains("\"batched_engine_workers_1\""));
        assert!(json.contains("\"worker_scaling\""));
        assert!(json.contains("\"untraced_engine\""));
        assert!(json.contains("\"obs_overhead\""));
        assert!(json.contains("\"p50_us\"") && json.contains("\"p99_us\""));
        assert!(
            c.batched_engine.p99_us >= c.batched_engine.p50_us,
            "p99 below p50: {:?}",
            c.batched_engine
        );
        assert!(c.batched_engine.p50_us > 0.0, "engine recorded latencies");
        assert!(c.obs_overhead > 0.0);
    }
}
