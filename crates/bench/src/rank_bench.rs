//! Single-request bichromatic reverse top-k latency: the RTA hot path
//! (flat SoA kernels + early-exit probe + culprit-pool RTA) against the
//! naive oracle, plus engine-level scaling across worker counts.
//!
//! Three ways to answer one `BRTOPk(q)` request over `n` points and
//! `|W|` customer weights:
//!
//! * **naive scan** — an independent full rank scan per weight (the
//!   correctness oracle every other path is checked against, bit for
//!   bit);
//! * **flat RTA** — the hot path with a steady-state reused
//!   [`ProbeCtx`], as a serving worker runs it;
//! * **engine** — the same single request through `Engine::submit`, at
//!   1 worker and at `workers` workers (the pool shards the weight set
//!   for a single request). Queries are jittered per repeat so the
//!   result cache never short-circuits the measurement.
//!
//! The binary `rank_bench` emits the JSON report `scripts/bench.sh`
//! writes to `BENCH_rank.json`.

use std::time::{Duration, Instant};
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{Engine, Histogram, Request, Response, WeightSet};
use wqrtq_geom::{Point, Weight};
use wqrtq_query::{bichromatic_reverse_topk_naive, rta_over_order, rta_sorted_order, ProbeCtx};
use wqrtq_rtree::RTree;

/// Workload shape for the rank-path comparison.
#[derive(Clone, Copy, Debug)]
pub struct RankBenchConfig {
    /// Dataset cardinality.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Customer population size `|W|`.
    pub num_weights: usize,
    /// The reverse top-k parameter.
    pub k: usize,
    /// Timed repetitions per path.
    pub repeats: usize,
    /// Engine worker count for the scaling measurement.
    pub workers: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for RankBenchConfig {
    fn default() -> Self {
        Self {
            n: 20_000,
            dim: 3,
            num_weights: 500,
            k: 10,
            repeats: 30,
            workers: 4,
            seed: 2015,
        }
    }
}

/// One measured path.
#[derive(Clone, Copy, Debug)]
pub struct PathTiming {
    /// Requests timed.
    pub requests: usize,
    /// Total wall-clock.
    pub elapsed: Duration,
    /// Median per-request latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency in microseconds.
    pub p99_us: f64,
}

impl PathTiming {
    /// Requests per second.
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Mean seconds per request.
    pub fn seconds_per_request(&self) -> f64 {
        self.elapsed.as_secs_f64() / self.requests.max(1) as f64
    }
}

/// The full comparison report.
#[derive(Clone, Debug)]
pub struct RankComparison {
    /// Configuration measured.
    pub config: RankBenchConfig,
    /// Result-set size of the benchmark request (sanity anchor).
    pub result_size: usize,
    /// Oracle full scans.
    pub naive_scan: PathTiming,
    /// The RTA hot path (steady-state context reuse).
    pub flat_rta: PathTiming,
    /// Engine single-request throughput at 1 worker.
    pub engine_workers_1: PathTiming,
    /// Engine single-request throughput at `config.workers` workers with
    /// the adaptive shard limit (never oversubscribes physical cores).
    pub engine_workers_n: PathTiming,
    /// Same, with sharding forced to `config.workers` shards — exercises
    /// the parallel-RTA path even when the adaptive limit would stay
    /// sequential (e.g. single-core CI), exposing oversubscription cost.
    pub engine_workers_n_forced: PathTiming,
    /// CPU cores visible to the process (scaling context).
    pub cores: usize,
}

impl RankComparison {
    /// flat / naive single-request speedup.
    pub fn speedup_flat_vs_naive(&self) -> f64 {
        self.flat_rta.rps() / self.naive_scan.rps().max(1e-12)
    }

    /// multi-worker / single-worker engine scaling for one request.
    pub fn engine_scaling(&self) -> f64 {
        self.engine_workers_n.rps() / self.engine_workers_1.rps().max(1e-12)
    }

    /// The report as a JSON object (hand-rolled; std-only workspace).
    pub fn to_json(&self) -> String {
        let path = |t: &PathTiming| {
            format!(
                concat!(
                    "{{\"requests\": {}, \"seconds_per_request\": {:.9}, \"rps\": {:.1}, ",
                    "\"p50_us\": {:.3}, \"p99_us\": {:.3}}}"
                ),
                t.requests,
                t.seconds_per_request(),
                t.rps(),
                t.p50_us,
                t.p99_us,
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"rank_kernels_single_bichromatic\",\n",
                "  \"config\": {{\"n\": {}, \"dim\": {}, \"num_weights\": {}, \"k\": {}, ",
                "\"repeats\": {}, \"workers\": {}, \"seed\": {}}},\n",
                "  \"cores\": {},\n",
                "  \"result_size\": {},\n",
                "  \"naive_scan\": {},\n",
                "  \"flat_rta\": {},\n",
                "  \"engine_workers_1\": {},\n",
                "  \"engine_workers_n\": {{\"workers\": {}, \"timing\": {}}},\n",
                "  \"engine_workers_n_forced_shards\": {{\"workers\": {}, \"timing\": {}}},\n",
                "  \"speedup_flat_vs_naive\": {:.2},\n",
                "  \"engine_scaling_nv1\": {:.2},\n",
                "  \"results_bit_identical_to_naive\": true\n",
                "}}"
            ),
            self.config.n,
            self.config.dim,
            self.config.num_weights,
            self.config.k,
            self.config.repeats,
            self.config.workers,
            self.config.seed,
            self.cores,
            self.result_size,
            path(&self.naive_scan),
            path(&self.flat_rta),
            path(&self.engine_workers_1),
            self.config.workers,
            path(&self.engine_workers_n),
            self.config.workers,
            path(&self.engine_workers_n_forced),
            self.speedup_flat_vs_naive(),
            self.engine_scaling(),
        )
    }
}

/// A deterministic fan of `m` customer weights on the simplex, spread
/// enough that the request mixes buffer prunes with index probes.
pub fn population(dim: usize, m: usize) -> Vec<Weight> {
    (0..m)
        .map(|i| {
            let t = i as f64 / m as f64;
            let raw: Vec<f64> = (0..dim)
                .map(|d| 0.1 + 0.9 * ((t * 9.7 + d as f64 * 2.3).sin() * 0.5 + 0.5))
                .collect();
            Weight::normalized(raw)
        })
        .collect()
}

/// The benchmark query point: coordinates scaled so `q` sits near the
/// top-k boundary — some weights admit it, most need real pruning or
/// verification work (the regime the why-not pipeline lives in). For
/// uniform data the score threshold of rank `r` scales as
/// `(r/n)^(1/d)`; the 0.5 factor lands `q` just outside the average
/// weight's top-k with a solid member minority.
pub fn query_point(dim: usize, n: usize, k: usize) -> Vec<f64> {
    let c = 0.5 * (k.max(1) as f64 / n.max(1) as f64).powf(1.0 / dim as f64);
    vec![c; dim]
}

fn time_requests(repeats: usize, mut f: impl FnMut(usize)) -> PathTiming {
    let latency = Histogram::new();
    let start = Instant::now();
    for i in 0..repeats {
        let began = Instant::now();
        f(i);
        latency.record_duration(began.elapsed());
    }
    let snap = latency.snapshot();
    PathTiming {
        requests: repeats,
        elapsed: start.elapsed(),
        p50_us: snap.quantile_micros(0.50),
        p99_us: snap.quantile_micros(0.99),
    }
}

/// Serves `repeats` single-request submissions through an engine with
/// `workers` threads, jittering `q` per repeat so the result cache never
/// answers. Panics if any response errors or disagrees with `expected`
/// on the un-jittered repeat.
fn run_engine(
    cfg: &RankBenchConfig,
    coords: &[f64],
    weights: &[Weight],
    workers: usize,
    force_shards: bool,
    expected: &[usize],
) -> PathTiming {
    let mut builder = Engine::builder().workers(workers).cache_capacity(16);
    if force_shards {
        builder = builder.shard_limit(workers);
    }
    let engine = builder.build();
    engine
        .register_dataset("bench", cfg.dim, coords.to_vec())
        .expect("register dataset");
    engine
        .register_weights("population", weights.to_vec())
        .expect("register population");
    engine.catalog().handle("bench").expect("warm index");
    let base_q = query_point(cfg.dim, cfg.n, cfg.k);

    // Warm-up + correctness: the un-jittered request must reproduce the
    // library result exactly.
    let warm = engine.submit(Request::ReverseTopKBi {
        dataset: "bench".into(),
        weights: WeightSet::Named("population".into()),
        q: base_q.clone(),
        k: cfg.k,
    });
    assert_eq!(
        warm,
        Response::ReverseTopKBi(expected.to_vec()),
        "engine single request must match the library paths"
    );

    time_requests(cfg.repeats, |i| {
        let mut q = base_q.clone();
        // Sub-nanometre jitter: distinct cache fingerprints, identical
        // work (coordinates shift by ≤ repeats × 1e-12).
        q[0] += (i + 1) as f64 * 1e-12;
        let response = engine.submit(Request::ReverseTopKBi {
            dataset: "bench".into(),
            weights: WeightSet::Named("population".into()),
            q,
            k: cfg.k,
        });
        assert!(
            matches!(response, Response::ReverseTopKBi(_)),
            "bench request must serve cleanly"
        );
    })
}

/// Runs the full comparison.
pub fn compare(cfg: &RankBenchConfig) -> RankComparison {
    let ds = independent(cfg.n, cfg.dim, cfg.seed);
    let tree = RTree::bulk_load(cfg.dim, &ds.coords);
    let weights = population(cfg.dim, cfg.num_weights);
    let q = query_point(cfg.dim, cfg.n, cfg.k);
    let points: Vec<Point> = ds
        .coords
        .chunks_exact(cfg.dim)
        .map(|p| Point::new(p.to_vec()))
        .collect();

    // Correctness first: all paths must agree bit-for-bit.
    let oracle = bichromatic_reverse_topk_naive(&points, &weights, &q, cfg.k);
    let order = rta_sorted_order(&weights);
    let mut scratch = ProbeCtx::new();
    let mut flat = rta_over_order(&tree, &weights, &order, &q, cfg.k, &mut scratch);
    flat.sort_unstable();
    assert_eq!(oracle, flat, "flat RTA diverged from the naive scan");

    // Naive gets fewer repeats — it is orders of magnitude slower and
    // only anchors the chart.
    let naive_repeats = cfg.repeats.clamp(1, 3);
    let naive_scan = time_requests(naive_repeats, |_| {
        std::hint::black_box(bichromatic_reverse_topk_naive(&points, &weights, &q, cfg.k));
    });
    let flat_rta = time_requests(cfg.repeats, |_| {
        // Steady-state serving shape: similarity order per request, the
        // worker's context reused across requests.
        let order = rta_sorted_order(&weights);
        let mut members = rta_over_order(&tree, &weights, &order, &q, cfg.k, &mut scratch);
        members.sort_unstable();
        std::hint::black_box(members);
    });

    let engine_workers_1 = run_engine(cfg, &ds.coords, &weights, 1, false, &oracle);
    let engine_workers_n = run_engine(cfg, &ds.coords, &weights, cfg.workers, false, &oracle);
    let engine_workers_n_forced = run_engine(cfg, &ds.coords, &weights, cfg.workers, true, &oracle);

    RankComparison {
        config: *cfg,
        result_size: oracle.len(),
        naive_scan,
        flat_rta,
        engine_workers_1,
        engine_workers_n,
        engine_workers_n_forced,
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RankBenchConfig {
        RankBenchConfig {
            n: 2_000,
            dim: 3,
            num_weights: 150,
            k: 5,
            repeats: 2,
            workers: 2,
            seed: 7,
        }
    }

    #[test]
    fn comparison_runs_and_report_is_json_shaped() {
        let c = compare(&tiny());
        assert_eq!(c.naive_scan.requests, 2);
        assert!(c.flat_rta.rps() > 0.0);
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"speedup_flat_vs_naive\""));
        assert!(json.contains("\"engine_workers_1\""));
        assert!(json.contains("\"engine_workers_n\": {\"workers\": 2,"));
        assert!(json.contains("\"engine_workers_n_forced_shards\""));
        assert!(json.contains("\"results_bit_identical_to_naive\": true"));
        assert!(json.contains("\"p50_us\""));
        assert!(json.contains("\"p99_us\""));
        assert!(c.flat_rta.p99_us >= c.flat_rta.p50_us);
        assert!(c.flat_rta.p50_us > 0.0);
    }

    #[test]
    fn benchmark_query_sits_near_the_boundary() {
        // The workload must mix members and non-members — an all-or-
        // nothing result would make the RTA comparison degenerate.
        let cfg = tiny();
        let c = compare(&cfg);
        assert!(c.result_size > 0, "no weight admits q: too deep");
        assert!(
            c.result_size < cfg.num_weights,
            "every weight admits q: too shallow"
        );
    }
}
