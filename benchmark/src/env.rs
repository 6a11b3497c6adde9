//! What every workload shares: the ground rules for building the
//! engine and server, repeated set-up timing, process-level readings
//! (peak RSS, allocations), scratch directories and the machine
//! fingerprint.

use crate::json::Json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use wqrtq_engine::{Engine, EngineBuilder, StatsSnapshot};
use wqrtq_server::{Client, Server};

/// Engine worker threads (ground rule: sized for a 2-core box).
pub const WORKERS: usize = 2;
/// Load connections, one generator thread each.
pub const CONNECTIONS: usize = 2;
/// Seed of every data set. The data sets are a fixed part of a
/// workload's definition, like their sizes and distributions: `--seed`
/// drives what the benchmark's own generator draws (weights, query
/// points, why-not cases, operation mixes). Ten seeds then differ by
/// request stream, not by data geometry — on `rtopk_scan` a per-seed
/// data set moved the medians by ±10 %, four times the run-to-run noise.
pub const DATA_SEED: u64 = 2015;
/// Times the untraced run repeats the set-up unless `--setups` says
/// otherwise; the median is reported.
pub const SETUP_REPEATS: usize = 3;

/// The engine every workload serves from: 2 workers, everything else at
/// its default (cache 256, prefilter + quantized on, tracing on).
pub fn engine_builder() -> EngineBuilder {
    Engine::builder().workers(WORKERS)
}

/// Starts the server over `engine`: one event loop, loopback, an
/// ephemeral port, all other options at their defaults.
pub fn serve(engine: Engine) -> Server {
    Server::builder()
        .engine(engine)
        .event_loops(1)
        .bind("127.0.0.1:0")
        .expect("bind loopback")
}

/// The server's observability snapshot, fetched over the wire on a
/// fresh control connection (engine metrics + server counters).
pub fn wire_stats(server: &Server) -> StatsSnapshot {
    Client::connect_v2(server.local_addr())
        .and_then(|mut c| c.stats())
        .expect("stats over the wire")
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under `benchmark/out/`, removed on drop. The
/// benchmark writes nowhere else.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `benchmark/out/tmp-<pid>-<label>` (emptying a stale one).
    pub fn new(label: &str) -> Self {
        let dir = out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }

    /// Total size of the regular files directly inside, bytes.
    pub fn disk_bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `benchmark/out/`: trace files, suite reports and scratch dirs.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Where the numbers were taken: cores, CPU model, kernel, compiler and
/// commit (the last two as handed in by `run.sh`).
pub fn fingerprint() -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(str::to_string))
        .map_or_else(String::new, |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        });
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu", Json::str(cpu)),
        (
            "kernel",
            Json::str(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("rustc", Json::str(env("WQRTQ_BENCH_RUSTC"))),
        ("commit", Json::str(env("WQRTQ_BENCH_COMMIT"))),
    ])
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter that only counts
/// while a traced run asked for it ([`count_allocations`]): untraced
/// runs pay one relaxed load of a read-shared flag per allocation, not a
/// contended increment.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingAllocator;

/// Turns allocation counting on or off.
pub fn count_allocations(on: bool) {
    // ordering: Relaxed — a statistic; nothing is published through it.
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (process-wide: generator and server share
/// the process, so both sides are included).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn note_allocation() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the only
// addition is a relaxed counter bump on the allocating paths.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller upholds the `GlobalAlloc` contract (non-zero
    // size layout); it is forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: same contract as this function's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: same contract as this function's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout` and that `new_size` is non-zero.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: same contract as this function's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as this function's.
        unsafe { System.dealloc(ptr, layout) }
    }
}
