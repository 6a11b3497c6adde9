//! Mutation-throughput benchmark: the delta-overlay engine against the
//! rebuild-per-mutation baseline, on an append-heavy interleaved
//! workload.
//!
//! The workload alternates appends (a few rows each, some deletes mixed
//! in) with queries (`TopK` and why-not explanations) against one `n`-
//! point dataset — the live-traffic shape the overlay exists for. Two
//! engines serve the identical operation sequence:
//!
//! * **overlay** — appends/deletes flow through [`Request::Append`] /
//!   [`Request::Delete`] into the delta memtable (`O(Δ)` each); queries
//!   fold the overlay corrections into the still-valid base index, and
//!   compaction (left on its adaptive policy) re-bulk-loads off the
//!   request path only when the overlay outgrows `base/4`;
//! * **rebuild** — the pre-overlay behaviour, reproduced faithfully:
//!   every mutation re-registers the grown coordinate buffer, so the
//!   next query pays a full `bulk_load` of all `n` points.
//!
//! Both engines must agree on the final top-k scores (ids differ by
//! design — the overlay keeps stable ids), which anchors the speedup
//! claim to equivalent answers. The binary `mutation_bench` emits the
//! JSON report `scripts/bench.sh` writes to `BENCH_mutation.json`.

use crate::engine_bench::mqp_plan_request;
use std::time::{Duration, Instant};
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{Engine, Histogram, Request, Response};

/// Workload shape for the mutation comparison.
#[derive(Clone, Copy, Debug)]
pub struct MutationBenchConfig {
    /// Initial dataset cardinality.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Interleaved operations (half mutations, half queries).
    pub ops: usize,
    /// Rows per append.
    pub append_rows: usize,
    /// The top-k parameter of the query side.
    pub k: usize,
    /// Worker threads per engine.
    pub workers: usize,
    /// Dataset seed.
    pub seed: u64,
}

impl Default for MutationBenchConfig {
    fn default() -> Self {
        Self {
            n: 100_000,
            dim: 3,
            ops: 400,
            append_rows: 4,
            k: 10,
            workers: 4,
            seed: 2015,
        }
    }
}

/// One engine's timed run.
#[derive(Clone, Copy, Debug)]
pub struct MutationTiming {
    /// Operations executed (mutations + queries).
    pub ops: usize,
    /// Total wall-clock.
    pub elapsed: Duration,
    /// Median per-operation latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-operation latency in microseconds (on this
    /// mixed workload the tail is where rebuild stalls live).
    pub p99_us: f64,
}

impl MutationTiming {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// The full comparison report.
#[derive(Clone, Debug)]
pub struct MutationComparison {
    /// Configuration measured.
    pub config: MutationBenchConfig,
    /// Delta-overlay engine timing.
    pub overlay: MutationTiming,
    /// Rebuild-per-mutation baseline timing.
    pub rebuild: MutationTiming,
    /// Overlay requests that consulted a non-empty delta.
    pub delta_hits: u64,
    /// Mutations the overlay absorbed with a built index intact.
    pub rebuilds_avoided: u64,
    /// Background compactions the overlay ran.
    pub compactions: u64,
    /// Bulk loads the overlay engine executed in total.
    pub overlay_index_builds: u64,
    /// Bulk loads the rebuild baseline executed in total.
    pub rebuild_index_builds: u64,
}

impl MutationComparison {
    /// overlay / rebuild throughput.
    pub fn speedup(&self) -> f64 {
        self.overlay.ops_per_sec() / self.rebuild.ops_per_sec().max(1e-12)
    }

    /// The report as a JSON object (hand-rolled; std-only workspace).
    pub fn to_json(&self) -> String {
        let timing = |t: &MutationTiming| {
            format!(
                concat!(
                    "{{\"ops\": {}, \"seconds\": {:.6}, \"ops_per_sec\": {:.1}, ",
                    "\"p50_us\": {:.3}, \"p99_us\": {:.3}}}"
                ),
                t.ops,
                t.elapsed.as_secs_f64(),
                t.ops_per_sec(),
                t.p50_us,
                t.p99_us,
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"mutation_overlay_vs_rebuild\",\n",
                "  \"config\": {{\"n\": {}, \"dim\": {}, \"ops\": {}, ",
                "\"append_rows\": {}, \"k\": {}, \"workers\": {}, \"seed\": {}}},\n",
                "  \"overlay\": {},\n",
                "  \"rebuild_per_mutation\": {},\n",
                "  \"speedup_overlay_vs_rebuild\": {:.2},\n",
                "  \"overlay_metrics\": {{\"delta_hits\": {}, \"rebuilds_avoided\": {}, ",
                "\"compactions\": {}, \"index_builds\": {}}},\n",
                "  \"rebuild_index_builds\": {},\n",
                "  \"final_topk_scores_identical\": true\n",
                "}}"
            ),
            self.config.n,
            self.config.dim,
            self.config.ops,
            self.config.append_rows,
            self.config.k,
            self.config.workers,
            self.config.seed,
            timing(&self.overlay),
            timing(&self.rebuild),
            self.speedup(),
            self.delta_hits,
            self.rebuilds_avoided,
            self.compactions,
            self.overlay_index_builds,
            self.rebuild_index_builds,
        )
    }
}

/// One operation of the interleaved workload.
enum Op {
    Append(Vec<f64>),
    Delete(Vec<u32>),
    TopK(Vec<f64>),
    Explain(Vec<f64>, Vec<f64>),
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

/// The deterministic interleaved op sequence both engines serve.
fn workload(cfg: &MutationBenchConfig) -> Vec<Op> {
    let mut state = cfg.seed ^ 0xabcd_1234_5678_9e3f;
    let mut ops = Vec::with_capacity(cfg.ops);
    let mut next_id = cfg.n as u32;
    let mut appended: Vec<u32> = Vec::new();
    for i in 0..cfg.ops {
        if i % 2 == 0 {
            // Mutation side: mostly appends, every 8th a delete of a
            // previously appended row (keeps the id space modellable for
            // both engines without tracking compaction).
            if i % 16 == 8 && !appended.is_empty() {
                let victim = appended.remove((splitmix(&mut state) as usize) % appended.len());
                ops.push(Op::Delete(vec![victim]));
            } else {
                let rows: Vec<f64> = (0..cfg.append_rows * cfg.dim)
                    .map(|_| unit(&mut state))
                    .collect();
                for r in 0..cfg.append_rows {
                    appended.push(next_id + r as u32);
                }
                next_id += cfg.append_rows as u32;
                ops.push(Op::Append(rows));
            }
        } else if i % 6 == 1 {
            let w: Vec<f64> = (0..cfg.dim).map(|_| 0.05 + unit(&mut state)).collect();
            // Kept off the origin so `q` ranks well past `k` and the
            // vector is a genuine why-not vector.
            let q: Vec<f64> = (0..cfg.dim).map(|_| 0.2 + 0.3 * unit(&mut state)).collect();
            ops.push(Op::Explain(normalize(w), q));
        } else {
            let w: Vec<f64> = (0..cfg.dim).map(|_| 0.05 + unit(&mut state)).collect();
            ops.push(Op::TopK(normalize(w)));
        }
    }
    ops
}

fn normalize(raw: Vec<f64>) -> Vec<f64> {
    let s: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / s).collect()
}

/// Deletions in the rebuild baseline remove the row from its coordinate
/// buffer; ids there are positional, so the baseline tracks (id → row)
/// itself. The overlay engine handles ids natively.
struct RebuildBaseline {
    engine: Engine,
    coords: Vec<f64>,
    ids: Vec<u32>,
    dim: usize,
    next_id: u32,
}

impl RebuildBaseline {
    fn apply(&mut self, op: &Op, k: usize) {
        match op {
            Op::Append(rows) => {
                self.coords.extend_from_slice(rows);
                for _ in 0..rows.len() / self.dim {
                    self.ids.push(self.next_id);
                    self.next_id += 1;
                }
                // Pre-overlay semantics: re-register, dropping the index.
                self.engine
                    .register_dataset("bench", self.dim, self.coords.clone())
                    .expect("register");
            }
            Op::Delete(ids) => {
                for id in ids {
                    if let Some(pos) = self.ids.iter().position(|i| i == id) {
                        self.ids.remove(pos);
                        self.coords.drain(pos * self.dim..(pos + 1) * self.dim);
                    }
                }
                self.engine
                    .register_dataset("bench", self.dim, self.coords.clone())
                    .expect("register");
            }
            Op::TopK(w) => {
                let r = self.engine.submit(Request::TopK {
                    dataset: "bench".into(),
                    weight: w.clone(),
                    k,
                });
                assert!(!r.is_error(), "baseline TopK failed");
            }
            Op::Explain(w, q) => {
                let r = self
                    .engine
                    .submit(mqp_plan_request(q.clone(), k, w.clone(), k));
                assert!(!r.is_error(), "baseline explain failed");
            }
        }
    }
}

fn run_overlay(cfg: &MutationBenchConfig, coords: &[f64], ops: &[Op]) -> (MutationTiming, Engine) {
    let engine = Engine::builder().workers(cfg.workers).build();
    engine
        .register_dataset("bench", cfg.dim, coords.to_vec())
        .expect("register");
    engine.catalog().handle("bench").expect("warm index");
    let latency = Histogram::new();
    let start = Instant::now();
    for op in ops {
        let began = Instant::now();
        match op {
            Op::Append(rows) => {
                let r = engine.submit(Request::Append {
                    dataset: "bench".into(),
                    points: rows.clone(),
                });
                assert!(matches!(r, Response::Mutated { .. }), "append failed");
            }
            Op::Delete(ids) => {
                let r = engine.submit(Request::Delete {
                    dataset: "bench".into(),
                    ids: ids.clone(),
                });
                assert!(matches!(r, Response::Mutated { .. }), "delete failed");
            }
            Op::TopK(w) => {
                let r = engine.submit(Request::TopK {
                    dataset: "bench".into(),
                    weight: w.clone(),
                    k: cfg.k,
                });
                assert!(!r.is_error(), "overlay TopK failed");
            }
            Op::Explain(w, q) => {
                let r = engine.submit(mqp_plan_request(q.clone(), cfg.k, w.clone(), cfg.k));
                assert!(!r.is_error(), "overlay explain failed");
            }
        }
        latency.record_duration(began.elapsed());
    }
    let snap = latency.snapshot();
    (
        MutationTiming {
            ops: ops.len(),
            elapsed: start.elapsed(),
            p50_us: snap.quantile_micros(0.50),
            p99_us: snap.quantile_micros(0.99),
        },
        engine,
    )
}

/// Runs the full comparison.
pub fn compare(cfg: &MutationBenchConfig) -> MutationComparison {
    let ds = independent(cfg.n, cfg.dim, cfg.seed);
    let ops = workload(cfg);

    let (overlay_timing, overlay_engine) = run_overlay(cfg, &ds.coords, &ops);

    let mut baseline = RebuildBaseline {
        engine: Engine::builder().workers(cfg.workers).build(),
        coords: ds.coords.clone(),
        ids: (0..cfg.n as u32).collect(),
        dim: cfg.dim,
        next_id: cfg.n as u32,
    };
    baseline
        .engine
        .register_dataset("bench", cfg.dim, ds.coords.clone())
        .expect("register");
    baseline.engine.catalog().handle("bench").expect("warm");
    let rebuild_latency = Histogram::new();
    let start = Instant::now();
    for op in &ops {
        let began = Instant::now();
        baseline.apply(op, cfg.k);
        rebuild_latency.record_duration(began.elapsed());
    }
    let rebuild_snap = rebuild_latency.snapshot();
    let rebuild_timing = MutationTiming {
        ops: ops.len(),
        elapsed: start.elapsed(),
        p50_us: rebuild_snap.quantile_micros(0.50),
        p99_us: rebuild_snap.quantile_micros(0.99),
    };

    // Equivalence anchor: the final top-k *scores* must be identical
    // (ids differ — the overlay keeps stable ids, the baseline renumbers
    // on every rebuild).
    let w = normalize(vec![1.0; cfg.dim]);
    let final_scores = |engine: &Engine| -> Vec<u64> {
        match engine.submit(Request::TopK {
            dataset: "bench".into(),
            weight: w.clone(),
            k: cfg.k,
        }) {
            Response::TopK(points) => points.iter().map(|(_, s)| s.to_bits()).collect(),
            other => panic!("final TopK failed: {other:?}"),
        }
    };
    assert_eq!(
        final_scores(&overlay_engine),
        final_scores(&baseline.engine),
        "overlay and rebuild engines diverged on the final top-k"
    );

    let m = overlay_engine.metrics();
    let bm = baseline.engine.metrics();
    MutationComparison {
        config: *cfg,
        overlay: overlay_timing,
        rebuild: rebuild_timing,
        delta_hits: m.delta_hits,
        rebuilds_avoided: m.catalog.rebuilds_avoided,
        compactions: m.catalog.compactions,
        overlay_index_builds: m.catalog.index_builds,
        rebuild_index_builds: bm.catalog.index_builds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MutationBenchConfig {
        MutationBenchConfig {
            n: 2_000,
            dim: 3,
            ops: 40,
            append_rows: 2,
            k: 5,
            workers: 2,
            seed: 7,
        }
    }

    #[test]
    fn comparison_runs_and_report_is_json_shaped() {
        let c = compare(&tiny());
        assert_eq!(c.overlay.ops, 40);
        assert_eq!(c.rebuild.ops, 40);
        assert!(c.delta_hits > 0, "queries must see the overlay");
        assert!(
            c.rebuild_index_builds > c.overlay_index_builds,
            "the baseline must actually rebuild: {} vs {}",
            c.rebuild_index_builds,
            c.overlay_index_builds
        );
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"speedup_overlay_vs_rebuild\""));
        assert!(json.contains("\"rebuilds_avoided\""));
        assert!(json.contains("\"final_topk_scores_identical\": true"));
        assert!(json.contains("\"p50_us\""));
        assert!(json.contains("\"p99_us\""));
        assert!(c.overlay.p99_us >= c.overlay.p50_us);
        assert!(c.overlay.p50_us > 0.0);
    }

    #[test]
    fn overlay_beats_rebuild_even_at_toy_scale() {
        // The acceptance gate demands ≥10x at the full 100k scale; even
        // a 2k-point smoke run must show a clear win.
        let c = compare(&tiny());
        assert!(
            c.speedup() > 1.5,
            "expected a clear overlay win, got {:.2}x",
            c.speedup()
        );
    }
}
