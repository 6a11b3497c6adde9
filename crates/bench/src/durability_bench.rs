//! Durability-overhead benchmark: WAL-logged mutations against the
//! in-memory engine, plus recovery replay speed.
//!
//! Three engines serve the identical append/delete stream against one
//! `n`-point dataset:
//!
//! * **in-memory** — no data directory; mutations touch only the delta
//!   overlay (the zero-cost path the durability layer must not tax);
//! * **wal-buffered** — a data directory with [`FsyncPolicy::Never`]:
//!   every mutation appends a CRC-framed record to `wal.log` through
//!   the OS page cache, isolating the *logging* overhead (encode +
//!   write syscall) from device sync latency;
//! * **wal-fsync** — [`FsyncPolicy::Always`]: the full durable cost,
//!   one `fsync` per mutation. Reported for honesty but not gated —
//!   sync latency is a property of the machine, not the code.
//!
//! Compaction is disabled (`overlay_limit = MAX`) in every engine so
//! the comparison measures WAL appends, not snapshot writes.
//!
//! The second half measures recovery: a durable engine logs
//! `replay_records` mutations (no checkpoint, so all of them land in
//! the WAL), is dropped, and the reopen is timed — the metric is
//! milliseconds per 100 k replayed records. A never-restarted oracle
//! replays the same logical stream and the recovered engine must
//! answer a query battery **bit-identically** (`recovered_bit_identical`,
//! a truth guard in `scripts/bench_baselines.json`).
//!
//! The binary `durability_bench` emits the JSON report
//! `scripts/bench.sh` writes to `BENCH_durability.json`.

use crate::engine_bench::mqp_plan_request;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use wqrtq_data::synthetic::independent;
use wqrtq_engine::{Engine, FsyncPolicy, Request, Response, WeightSet};

/// Workload shape for the durability comparison.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityBenchConfig {
    /// Initial dataset cardinality.
    pub n: usize,
    /// Dimensionality.
    pub dim: usize,
    /// Mutations in the throughput phase (each logs one WAL record).
    pub ops: usize,
    /// Rows per append.
    pub append_rows: usize,
    /// Worker threads per engine.
    pub workers: usize,
    /// WAL records accumulated for the recovery-replay measurement.
    pub replay_records: usize,
    /// Dataset and workload seed.
    pub seed: u64,
}

impl Default for DurabilityBenchConfig {
    fn default() -> Self {
        Self {
            n: 20_000,
            dim: 3,
            ops: 2_000,
            append_rows: 4,
            workers: 4,
            replay_records: 100_000,
            seed: 2015,
        }
    }
}

/// One engine's timed mutation run.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityTiming {
    /// Mutations executed.
    pub ops: usize,
    /// Total wall-clock.
    pub elapsed: Duration,
}

impl DurabilityTiming {
    /// Mutations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// The timed recovery replay.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryTiming {
    /// WAL records the reopen replayed.
    pub records_replayed: u64,
    /// Wall-clock of the reopening `build()` (open + replay + attach).
    pub elapsed: Duration,
}

impl RecoveryTiming {
    /// Milliseconds of recovery per 100 k replayed records.
    pub fn ms_per_100k(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3 * 100_000.0 / (self.records_replayed as f64).max(1.0)
    }
}

/// The full comparison report.
#[derive(Clone, Debug)]
pub struct DurabilityComparison {
    /// Configuration measured.
    pub config: DurabilityBenchConfig,
    /// No data directory: the overlay-only mutation path.
    pub in_memory: DurabilityTiming,
    /// WAL appends through the page cache (`FsyncPolicy::Never`).
    pub wal_buffered: DurabilityTiming,
    /// WAL appends with one `fsync` per record (`FsyncPolicy::Always`).
    pub wal_fsync: DurabilityTiming,
    /// The timed reopen over `replay_records` logged mutations.
    pub recovery: RecoveryTiming,
    /// The recovered engine answered the query battery bit-identically
    /// to a never-restarted oracle and resumed the same epoch triple.
    pub recovered_bit_identical: bool,
}

impl DurabilityComparison {
    /// wal-buffered / in-memory throughput (the gated logging overhead).
    pub fn wal_vs_inmemory(&self) -> f64 {
        self.wal_buffered.ops_per_sec() / self.in_memory.ops_per_sec().max(1e-12)
    }

    /// wal-fsync / in-memory throughput (informational).
    pub fn wal_fsync_vs_inmemory(&self) -> f64 {
        self.wal_fsync.ops_per_sec() / self.in_memory.ops_per_sec().max(1e-12)
    }

    /// The report as a JSON object (hand-rolled; std-only workspace).
    pub fn to_json(&self) -> String {
        let timing = |t: &DurabilityTiming| {
            format!(
                "{{\"ops\": {}, \"seconds\": {:.6}, \"ops_per_sec\": {:.1}}}",
                t.ops,
                t.elapsed.as_secs_f64(),
                t.ops_per_sec(),
            )
        };
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"durability_wal_vs_inmemory\",\n",
                "  \"config\": {{\"n\": {}, \"dim\": {}, \"ops\": {}, ",
                "\"append_rows\": {}, \"workers\": {}, \"replay_records\": {}, \"seed\": {}}},\n",
                "  \"in_memory\": {},\n",
                "  \"wal_buffered\": {},\n",
                "  \"wal_fsync\": {},\n",
                "  \"wal_vs_inmemory\": {:.4},\n",
                "  \"wal_fsync_vs_inmemory\": {:.4},\n",
                "  \"recovery\": {{\"records_replayed\": {}, \"seconds\": {:.6}}},\n",
                "  \"recovery_ms_per_100k\": {:.2},\n",
                "  \"recovered_bit_identical\": {}\n",
                "}}"
            ),
            self.config.n,
            self.config.dim,
            self.config.ops,
            self.config.append_rows,
            self.config.workers,
            self.config.replay_records,
            self.config.seed,
            timing(&self.in_memory),
            timing(&self.wal_buffered),
            timing(&self.wal_fsync),
            self.wal_vs_inmemory(),
            self.wal_fsync_vs_inmemory(),
            self.recovery.records_replayed,
            self.recovery.elapsed.as_secs_f64(),
            self.recovery.ms_per_100k(),
            self.recovered_bit_identical,
        )
    }
}

/// One mutation of the workload (each logs exactly one WAL record).
enum Op {
    Register(Vec<f64>),
    Append(Vec<f64>),
    Delete(Vec<u32>),
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

/// How many records the recovery stream accumulates before a register
/// record resets the overlay, mirroring the bound compaction enforces
/// on live traffic. It dates from the copy-per-append memtable, whose
/// `O(Δ)` append made the replay quadratic in the stream length; appends
/// are in place now, and the stream keeps its shape so the committed
/// "ms per 100 k records" stays comparable.
const REREGISTER_EVERY: usize = 2_000;

/// The deterministic mutation stream all engines serve.
///
/// The throughput phase (`with_deletes = true`) is mostly appends with
/// every 8th op a delete of a previously appended row. The recovery
/// stream (`with_deletes = false`) is appends punctuated by a register
/// every [`REREGISTER_EVERY`] records — deletes cost `O(Δ)` in the
/// overlay whether they arrive live or by replay, and the replay
/// metric should price WAL decoding, not the overlay's complexity.
fn workload(cfg: &DurabilityBenchConfig, ops: usize, with_deletes: bool) -> Vec<Op> {
    let mut state = cfg.seed ^ 0x5eed_ba5e_d00d_f00d;
    let mut out = Vec::with_capacity(ops);
    let mut next_id = cfg.n as u32;
    let mut appended: Vec<u32> = Vec::new();
    for i in 0..ops {
        if with_deletes && i % 8 == 7 && !appended.is_empty() {
            let victim = appended.remove((splitmix(&mut state) as usize) % appended.len());
            out.push(Op::Delete(vec![victim]));
        } else if !with_deletes && i > 0 && i % REREGISTER_EVERY == 0 {
            let coords: Vec<f64> = (0..cfg.n * cfg.dim).map(|_| unit(&mut state)).collect();
            next_id = cfg.n as u32;
            appended.clear();
            out.push(Op::Register(coords));
        } else {
            let rows: Vec<f64> = (0..cfg.append_rows * cfg.dim)
                .map(|_| unit(&mut state))
                .collect();
            for r in 0..cfg.append_rows {
                appended.push(next_id + r as u32);
            }
            next_id += cfg.append_rows as u32;
            out.push(Op::Append(rows));
        }
    }
    out
}

fn apply(engine: &Engine, dim: usize, op: &Op) {
    match op {
        Op::Register(coords) => {
            engine
                .register_dataset("bench", dim, coords.clone())
                .expect("re-register");
        }
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
    }
}

/// A scratch directory under the system temp root, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str, seed: u64) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "wqrtq-durability-bench-{label}-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create bench scratch dir");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn builder(cfg: &DurabilityBenchConfig) -> wqrtq_engine::EngineBuilder {
    // Compaction off: a compaction checkpoints (snapshot + WAL reset),
    // and this bench isolates per-record logging and replay costs.
    Engine::builder()
        .workers(cfg.workers)
        .overlay_limit(usize::MAX)
}

fn timed_run(cfg: &DurabilityBenchConfig, engine: &Engine, ops: &[Op]) -> DurabilityTiming {
    engine
        .register_dataset(
            "bench",
            cfg.dim,
            independent(cfg.n, cfg.dim, cfg.seed).coords,
        )
        .expect("register");
    let start = Instant::now();
    for op in ops {
        apply(engine, cfg.dim, op);
    }
    DurabilityTiming {
        ops: ops.len(),
        elapsed: start.elapsed(),
    }
}

/// Queries whose bit-identical answers anchor the recovery truth guard.
fn battery(dim: usize) -> Vec<Request> {
    let uniform = vec![1.0 / dim as f64; dim];
    let mut skew = vec![0.5 / (dim as f64 - 1.0); dim];
    skew[0] = 0.5;
    vec![
        Request::TopK {
            dataset: "bench".into(),
            weight: uniform.clone(),
            k: 16,
        },
        Request::ReverseTopKBi {
            dataset: "bench".into(),
            weights: WeightSet::Inline(vec![uniform.clone(), skew.clone()]),
            q: vec![0.4; dim],
            k: 10,
        },
        mqp_plan_request(vec![0.2; dim], 10, skew, 8),
    ]
}

/// Runs the full comparison.
pub fn compare(cfg: &DurabilityBenchConfig) -> DurabilityComparison {
    let ops = workload(cfg, cfg.ops, true);

    // Untimed warmup: the first run otherwise pays allocator and CPU
    // cold-start that would skew the in-memory / durable ratio.
    timed_run(cfg, &builder(cfg).build(), &ops);

    let in_memory = timed_run(cfg, &builder(cfg).build(), &ops);

    let buffered_dir = ScratchDir::new("buffered", cfg.seed);
    let wal_buffered = timed_run(
        cfg,
        &builder(cfg)
            .data_dir(&buffered_dir.0)
            .fsync(FsyncPolicy::Never)
            .build(),
        &ops,
    );

    let fsync_dir = ScratchDir::new("fsync", cfg.seed);
    let wal_fsync = timed_run(
        cfg,
        &builder(cfg)
            .data_dir(&fsync_dir.0)
            .fsync(FsyncPolicy::Always)
            .build(),
        &ops,
    );

    // Recovery: log `replay_records` mutations (no checkpoint — they
    // all stay in the WAL), drop the engine, time the reopen.
    let recovery_dir = ScratchDir::new("recovery", cfg.seed);
    let replay_ops = workload(cfg, cfg.replay_records, false);
    {
        let engine = builder(cfg)
            .data_dir(&recovery_dir.0)
            .fsync(FsyncPolicy::Never)
            .build();
        engine
            .register_dataset(
                "bench",
                cfg.dim,
                independent(cfg.n, cfg.dim, cfg.seed).coords,
            )
            .expect("register");
        for op in &replay_ops {
            apply(&engine, cfg.dim, op);
        }
    }
    let start = Instant::now();
    let recovered = builder(cfg).data_dir(&recovery_dir.0).build();
    let elapsed = start.elapsed();
    let stats = recovered.metrics().catalog;
    assert_eq!(stats.recoveries, 1, "reopen must recover");
    let recovery = RecoveryTiming {
        records_replayed: stats.wal_replayed,
        elapsed,
    };

    let oracle = builder(cfg).build();
    oracle
        .register_dataset(
            "bench",
            cfg.dim,
            independent(cfg.n, cfg.dim, cfg.seed).coords,
        )
        .expect("register");
    for op in &replay_ops {
        apply(&oracle, cfg.dim, op);
    }
    let recovered_bit_identical = recovered.submit_batch(battery(cfg.dim))
        == oracle.submit_batch(battery(cfg.dim))
        && recovered.catalog().epoch("bench") == oracle.catalog().epoch("bench");

    DurabilityComparison {
        config: *cfg,
        in_memory,
        wal_buffered,
        wal_fsync,
        recovery,
        recovered_bit_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DurabilityBenchConfig {
        DurabilityBenchConfig {
            n: 1_500,
            dim: 3,
            ops: 60,
            append_rows: 2,
            workers: 2,
            replay_records: 300,
            seed: 11,
        }
    }

    #[test]
    fn comparison_runs_and_report_is_json_shaped() {
        let c = compare(&tiny());
        assert_eq!(c.in_memory.ops, 60);
        assert_eq!(c.wal_buffered.ops, 60);
        assert_eq!(c.wal_fsync.ops, 60);
        // register is checkpoint-free here, so every mutation plus the
        // register record itself is replayed.
        assert_eq!(c.recovery.records_replayed, 301);
        assert!(c.recovered_bit_identical, "recovery diverged from oracle");
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"wal_vs_inmemory\""));
        assert!(json.contains("\"recovery_ms_per_100k\""));
        assert!(json.contains("\"recovered_bit_identical\": true"));
        assert!(c.recovery.ms_per_100k() > 0.0);
    }
}
