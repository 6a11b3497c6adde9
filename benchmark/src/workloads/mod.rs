//! The four workloads. Each runs in a fresh process against a real
//! in-process `wqrtq_server::Server` over loopback, checks its answers
//! against the brute-force oracles and fills a [`Report`].

pub mod mutate_mix;
pub mod rtopk_scan;
pub mod serve_topk;
pub mod whynot_plan;

use crate::client::Conn;
use crate::env::CONNECTIONS;
use crate::load::Phase;
use crate::metrics::Report;
use crate::trace::{self, Trace};
use std::time::{Duration, Instant};
use wqrtq_engine::{Engine, Request, WeightSet};
use wqrtq_server::Server;

/// What one `run` invocation asked for.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the run measures; every phase is a fixed share of it.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Set-ups the untraced run times (`--setups`; the median is
    /// reported). The traced run always sets up once.
    pub setups: usize,
}

impl RunConfig {
    /// `share` of the run's measuring time.
    pub fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Operation counts of one run; any failure makes the run incorrect.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent plus oracle checks made).
    pub attempted: u64,
    /// Busy + `Response::Error` + transport errors + oracle mismatches.
    pub failed: u64,
    /// What went wrong, for the human-readable report.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Folds a load phase's counts in.
    pub fn absorb(&mut self, name: &str, phase: &Phase) {
        self.attempted += phase.attempted();
        self.failed += phase.failed();
        if phase.failed() > 0 {
            self.problems.push(format!(
                "{name}: {} of {} requests failed ({} busy)",
                phase.failed(),
                phase.attempted(),
                phase.busy()
            ));
        }
        for e in phase.transport_errors() {
            self.problems.push(format!("{name}: transport error: {e}"));
        }
    }

    /// Counts a benchmark-side operation (a nested sample, a probe):
    /// passes the value through, records the error.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.check(what, Err(e.to_string()));
                None
            }
        }
    }

    /// Counts one oracle check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(format!("{what}: {e}"));
            }
        }
    }
}

/// Runs the named workload.
///
/// # Errors
/// An unknown workload name.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<Outcome, String> {
    let mut outcome = match cfg.workload.as_str() {
        "serve_topk" => serve_topk::run(cfg, report),
        "rtopk_scan" => rtopk_scan::run(cfg, report),
        "whynot_plan" => whynot_plan::run(cfg, report),
        "mutate_mix" => mutate_mix::run(cfg, report),
        other => return Err(format!("unknown workload {other:?}")),
    };
    if cfg.traced {
        crate::probes::run(report, &mut outcome, cfg.seed);
        report.value(
            "failed_share",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
    }
    Ok(outcome)
}

/// `k` of every `TopK` and `ReverseTopKBi` request.
pub const K: usize = 10;

/// A `TopK k=10` request.
pub fn topk(dataset: &str, weight: Vec<f64>) -> Request {
    Request::TopK {
        dataset: dataset.into(),
        weight,
        k: K,
    }
}

/// A `ReverseTopKBi k=10` request over a named population.
pub fn rtopk(dataset: &str, weights: &str, q: Vec<f64>) -> Request {
    Request::ReverseTopKBi {
        dataset: dataset.into(),
        weights: WeightSet::Named(weights.into()),
        q,
        k: K,
    }
}

/// Which of a run's set-ups an engine came from.
#[derive(Clone, Copy, Debug)]
pub struct Turn {
    /// This set-up's number, from 0.
    pub rep: usize,
    /// Set-ups the run makes.
    pub repeats: usize,
}

impl Turn {
    /// This turn's part of `total` units of load (slices), so that the
    /// parts of all turns add up to `total`.
    pub fn part_of(&self, total: usize) -> usize {
        total * (self.rep + 1) / self.repeats - total * self.rep / self.repeats
    }

    fn is_last(&self) -> bool {
        self.rep + 1 == self.repeats
    }
}

/// The wall times of a run's set-ups.
#[derive(Debug, Default)]
pub struct SetUpTimes {
    total: Vec<f64>,
    registering: Vec<f64>,
    indexing: Vec<f64>,
}

impl SetUpTimes {
    /// Records the medians over the set-ups as `setup_s`,
    /// `engine.register_s` and `engine.index_build_s`.
    pub fn record(&self, report: &mut Report) {
        let median = crate::stats::median;
        let n = self.total.len();
        report.timing("setup_s", median(&self.total), n);
        report.timing("engine.register_s", median(&self.registering), n);
        report.timing("engine.index_build_s", median(&self.indexing), n);
    }
}

/// Sets the workload's engine up, engine construction → ready to serve:
/// `build` (repeat number → empty engine), `register` (datasets and
/// weights), the index + mask build of every dataset in `datasets`
/// (`Catalog::handle`), `warm`. The untraced run does so `cfg.setups`
/// times, the traced run once; every engine is handed to `serve`, which
/// is done with it before the next one is built.
///
/// The stateless workloads let every engine serve its part of the
/// load. Which threads of an engine and its server share a core with
/// which generator is settled when they start and then sticks: the same
/// load ran 30 % faster on one engine than on the next one of the same
/// process. A run that measures three engines reads the middle one.
pub fn set_up_each(
    cfg: &RunConfig,
    datasets: &[&str],
    mut build: impl FnMut(usize) -> Engine,
    register: impl Fn(&Engine),
    warm: impl Fn(&Engine),
    mut serve: impl FnMut(Turn, Engine),
) -> SetUpTimes {
    let repeats = if cfg.traced { 1 } else { cfg.setups.max(1) };
    let mut times = SetUpTimes::default();
    for rep in 0..repeats {
        let start = Instant::now();
        let engine = build(rep);
        let built = start.elapsed();
        register(&engine);
        let registered = start.elapsed();
        for dataset in datasets {
            engine
                .catalog()
                .handle(dataset)
                .expect("index + mask build");
        }
        let indexed = start.elapsed();
        warm(&engine);
        times.total.push(start.elapsed().as_secs_f64());
        times.registering.push((registered - built).as_secs_f64());
        times.indexing.push((indexed - registered).as_secs_f64());
        serve(Turn { rep, repeats }, engine);
    }
    times
}

/// [`set_up_each`] for a workload whose load is one continuous phase:
/// keeps the last engine and drops the others unused.
pub fn set_up(
    cfg: &RunConfig,
    report: &mut Report,
    datasets: &[&str],
    build: impl FnMut(usize) -> Engine,
    register: impl Fn(&Engine),
    warm: impl Fn(&Engine),
) -> Engine {
    let mut last = None;
    set_up_each(cfg, datasets, build, register, warm, |turn, engine| {
        if turn.is_last() {
            last = Some(engine);
        }
    })
    .record(report);
    last.expect("at least one set-up")
}

/// Opens the load connections (one per generator thread).
pub fn connect(server: &Server) -> Vec<Conn> {
    (0..CONNECTIONS)
        .map(|_| Conn::connect(server.local_addr()).expect("connect to the loopback server"))
        .collect()
}

/// The span buffers of a traced run: one per load connection plus the
/// serial nested-path samples, all on one clock.
#[derive(Debug)]
pub struct Tracing {
    /// Per-connection spans of the traced load phase.
    pub load: Vec<Trace>,
    /// Spans of the nested-path samples.
    pub nested: Trace,
}

impl Tracing {
    /// Empty buffers sharing one epoch.
    pub fn new() -> Self {
        let epoch = Instant::now();
        Self {
            load: (0..CONNECTIONS).map(|_| Trace::new(epoch)).collect(),
            nested: Trace::new(epoch),
        }
    }

    /// Attributes the nested samples' `wire.rtt` to layers, reports the
    /// shares and writes `benchmark/out/<workload>.trace.json`.
    pub fn finish(self, workload: &str, report: &mut Report) {
        let b = trace::breakdown(&self.nested.spans);
        let share = |layer: &str| b.shares.get(layer).copied().unwrap_or(0.0);
        report.timing("share.server", share("server"), b.kept);
        report.timing("share.engine", share("engine"), b.kept);
        // Execution below the engine: `query` or `core` with the kernels
        // they call. The per-crate split exists where the kernel work
        // could be replicated by direct call.
        report.timing(
            "share.exec",
            share("query") + share("core") + share("rtree"),
            b.kept,
        );
        for (layer, metric) in [
            ("query", "share.query"),
            ("core", "share.core"),
            ("rtree", "share.rtree"),
        ] {
            if b.shares.contains_key(layer) {
                report.timing(metric, share(layer), b.kept);
            }
        }
        report.value("share.unresolved_layers", b.unresolved.len() as f64);
        report.timing("wire.rtt_p50_us", b.rtt_p50_ns as f64 / 1e3, b.requests);
        report.value("bench.traced_requests", b.requests as f64);
        let p50 = |name: &str| {
            b.span_p50_ns
                .get(name)
                .map_or((0.0, 0), |(v, n)| (*v as f64, *n))
        };
        let (rtt, n) = p50(trace::ROOT);
        let (submit, _) = p50("engine.submit");
        let (dispatch, _) = p50("engine.dispatch");
        report.timing("server.wire_overhead_us", (rtt - submit) / 1e3, n);
        report.timing("engine.dispatch_us", dispatch / 1e3, n);
        let mut all = self.nested;
        for t in self.load {
            all.merge(t);
        }
        let path = crate::env::out_dir().join(format!("{workload}.trace.json"));
        let doc = trace::to_json(workload, &all.spans, &b);
        if let Err(e) = std::fs::write(&path, doc.render()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
}

impl Default for Tracing {
    fn default() -> Self {
        Self::new()
    }
}

/// A query point near the skyline of an indexed dataset: the point
/// ranked `depth.0 ..= depth.1` (drawn uniformly) under a random pivot
/// preference, jittered so no two draws are equal. The deeper the rank,
/// the fewer customers of a uniform population still see it in their
/// top-k.
pub fn near_skyline_q(
    handle: &wqrtq_engine::DatasetHandle,
    depth: (usize, usize),
    rng: &mut crate::rng::Rng,
) -> Vec<f64> {
    let pivot = rng.simplex(handle.dim);
    let rank = depth.0 + rng.below(depth.1 - depth.0 + 1);
    let (id, _) = handle
        .index
        .best_first(&pivot)
        .nth(rank - 1)
        .expect("dataset holds more points than the deepest rank");
    let mut q = vec![0.0; handle.dim];
    handle.flat.point_into(id as usize, &mut q);
    // Few points sit this close to the skyline, so the same one is
    // drawn again and again: a relative jitter of 1e-6 makes every
    // query point unique (no result-cache hits) without moving it.
    for x in &mut q {
        *x *= 1.0 + 1e-6 * (rng.f64() - 0.5);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::Turn;

    #[test]
    fn the_parts_of_all_turns_add_up_to_the_total() {
        for repeats in 1..=4 {
            for total in [0, 1, 20, 21] {
                let parts: Vec<usize> = (0..repeats)
                    .map(|rep| Turn { rep, repeats }.part_of(total))
                    .collect();
                assert_eq!(parts.iter().sum::<usize>(), total);
                let (min, max) = (parts.iter().min().unwrap(), parts.iter().max().unwrap());
                assert!(max - min <= 1, "{parts:?}");
            }
        }
    }
}
