//! Per-request metrics, aggregated lock-free and exposed as a snapshot.
//!
//! Workers record one observation per request: latency (into a
//! log-linear [`Histogram`] per kind, so snapshots answer p50/p90/p99
//! instead of mean-only), index nodes expanded (the paper's `|RT|` cost
//! term, via `rtree` traversal counters where the primitive reports
//! them) and whether the result came from the cache. Pipeline stages
//! (queue wait, cache lookup, index probe, …, and the catalog's builds
//! and storage operations) are not counted here: the engine's
//! [`Tracer`] owns one histogram per [`Stage`], and
//! [`Metrics::snapshot`] reads the stage rows from it.
//! [`MetricsSnapshot`] is a
//! consistent-enough point-in-time read for dashboards and tests; once
//! workers quiesce it is exact, which is what the wire `Stats`
//! differential test relies on. Cache counters live in
//! [`crate::ResultCache`] and are merged into the snapshot by the engine.

use crate::cache::CacheStats;
use crate::catalog::CatalogStats;
use crate::request::RequestKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wqrtq_obs::{Histogram, HistogramSnapshot, Stage, Tracer};

#[derive(Debug, Default)]
struct KindCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
    index_nodes: AtomicU64,
    cache_hits: AtomicU64,
}

/// Lock-free metric accumulators shared by all workers.
#[derive(Debug, Default)]
pub struct Metrics {
    kinds: [KindCounters; RequestKind::ALL.len()],
    batches: AtomicU64,
    /// Requests submitted through the non-blocking completion-routed
    /// path ([`crate::Engine::submit_batch_with`]) — the serving layer's
    /// pipelined traffic, as opposed to blocking batches.
    async_submits: AtomicU64,
    /// Requests served with a warm per-worker scratch (buffers reused
    /// instead of allocated) — the zero-allocation hot path's health
    /// signal.
    scratch_reuses: AtomicU64,
    /// Requests executed against a non-empty delta overlay (appends or
    /// tombstones folded into the answer without a rebuild).
    delta_hits: AtomicU64,
}

impl Metrics {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request.
    pub fn record(
        &self,
        kind: RequestKind,
        latency: Duration,
        index_nodes: usize,
        cache_hit: bool,
        error: bool,
    ) {
        let c = &self.kinds[kind.index()];
        c.requests.fetch_add(1, Ordering::Relaxed);
        c.latency.record_duration(latency);
        c.index_nodes
            .fetch_add(index_nodes as u64, Ordering::Relaxed);
        if cache_hit {
            c.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        if error {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one submitted batch.
    pub fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one non-blocking (completion-routed) submission.
    pub fn record_async_submit(&self) {
        self.async_submits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request served on a warm (reused) worker scratch.
    pub fn record_scratch_reuse(&self) {
        self.scratch_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request answered through a non-empty delta overlay.
    pub fn record_delta_hit(&self) {
        self.delta_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot, merged with the cache's and catalog's
    /// counters and `tracer`'s stage histograms.
    pub fn snapshot(
        &self,
        cache: CacheStats,
        catalog: CatalogStats,
        tracer: &Tracer,
    ) -> MetricsSnapshot {
        let per_kind = RequestKind::ALL
            .iter()
            .map(|&kind| {
                let c = &self.kinds[kind.index()];
                KindSnapshot {
                    kind,
                    requests: c.requests.load(Ordering::Relaxed),
                    errors: c.errors.load(Ordering::Relaxed),
                    latency: c.latency.snapshot(),
                    index_nodes: c.index_nodes.load(Ordering::Relaxed),
                    cache_hits: c.cache_hits.load(Ordering::Relaxed),
                }
            })
            .collect();
        let stages = Stage::ALL
            .iter()
            .map(|&stage| StageSnapshot {
                stage,
                latency: tracer.stage_latency(stage),
            })
            .collect();
        MetricsSnapshot {
            per_kind,
            stages,
            batches: self.batches.load(Ordering::Relaxed),
            async_submits: self.async_submits.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
            parallel_shards: 0,
            sharded_requests: 0,
            delta_hits: self.delta_hits.load(Ordering::Relaxed),
            catalog,
            cache,
        }
    }
}

/// Aggregates for one request kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KindSnapshot {
    /// The kind.
    pub kind: RequestKind,
    /// Requests served (including errors and cache hits).
    pub requests: u64,
    /// Requests answered with [`crate::Response::Error`].
    pub errors: u64,
    /// The full latency distribution (p50/p90/p99/max within the
    /// histogram's relative-error bound; max is exact).
    pub latency: HistogramSnapshot,
    /// Index nodes expanded (where the primitive reports it; refinement
    /// requests run composite algorithms and report 0).
    pub index_nodes: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
}

/// Aggregates for one pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSnapshot {
    /// The stage.
    pub stage: Stage,
    /// The stage's latency distribution.
    pub latency: HistogramSnapshot,
}

/// Point-in-time engine metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// One row per request kind (fixed order of [`RequestKind::ALL`]).
    pub per_kind: Vec<KindSnapshot>,
    /// One row per pipeline stage (fixed order of [`Stage::ALL`]).
    pub stages: Vec<StageSnapshot>,
    /// Batches submitted.
    pub batches: u64,
    /// Requests submitted through [`crate::Engine::submit_batch_with`] or
    /// [`crate::Engine::submit_with_progress`], or answered by
    /// [`crate::Engine::serve_inline`]; `Stats` requests are not counted.
    pub async_submits: u64,
    /// Requests served on a warm (reused) per-worker scratch — each one
    /// is a request that allocated no fresh score/probe buffers.
    pub scratch_reuses: u64,
    /// Always 0: a request runs whole on the worker that picked it up.
    /// The field only keeps its slot in the `Stats` wire layout.
    pub parallel_shards: u64,
    /// Always 0, as [`Self::parallel_shards`].
    pub sharded_requests: u64,
    /// Requests answered through a non-empty delta overlay.
    pub delta_hits: u64,
    /// Catalog build/mutation counters (index builds, rebuilds avoided,
    /// compactions).
    pub catalog: CatalogStats,
    /// Result-cache counters.
    pub cache: CacheStats,
}

impl MetricsSnapshot {
    /// Total requests across kinds.
    pub fn total_requests(&self) -> u64 {
        self.per_kind.iter().map(|k| k.requests).sum()
    }

    /// Total index nodes expanded across kinds.
    pub fn total_index_nodes(&self) -> u64 {
        self.per_kind.iter().map(|k| k.index_nodes).sum()
    }

    /// The latency distribution of one pipeline stage.
    pub fn stage_latency(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()].latency
    }

    /// Renders the snapshot as a JSON object (hand-rolled; the
    /// workspace is std-only).
    pub fn to_json(&self) -> String {
        let kinds: Vec<String> = self
            .per_kind
            .iter()
            .filter(|k| k.requests > 0)
            .map(|k| {
                format!(
                    concat!(
                        "{{\"kind\": \"{}\", \"requests\": {}, \"errors\": {}, ",
                        "\"index_nodes\": {}, \"cache_hits\": {}, \"latency\": {}}}"
                    ),
                    k.kind.name(),
                    k.requests,
                    k.errors,
                    k.index_nodes,
                    k.cache_hits,
                    k.latency.to_json()
                )
            })
            .collect();
        let stages: Vec<String> = self
            .stages
            .iter()
            .filter(|s| s.latency.count > 0)
            .map(|s| format!("\"{}\": {}", s.stage.name(), s.latency.to_json()))
            .collect();
        format!(
            concat!(
                "{{\"total_requests\": {}, \"batches\": {}, \"async_submits\": {}, ",
                "\"scratch_reuses\": {}, ",
                "\"delta_hits\": {}, ",
                "\"cache\": {{\"hits\": {}, \"misses\": {}, \"len\": {}, \"capacity\": {}}}, ",
                "\"catalog\": {{\"index_builds\": {}, \"rebuilds_avoided\": {}, ",
                "\"compactions\": {}, \"compactions_abandoned\": {}, ",
                "\"mask_builds\": {}, ",
                "\"wal_appends\": {}, \"snapshot_writes\": {}, ",
                "\"recoveries\": {}, \"wal_replayed\": {}}}, ",
                "\"per_kind\": [{}], \"stages\": {{{}}}}}"
            ),
            self.total_requests(),
            self.batches,
            self.async_submits,
            self.scratch_reuses,
            self.delta_hits,
            self.cache.hits,
            self.cache.misses,
            self.cache.len,
            self.cache.capacity,
            self.catalog.index_builds,
            self.catalog.rebuilds_avoided,
            self.catalog.compactions,
            self.catalog.compactions_abandoned,
            self.catalog.mask_builds,
            self.catalog.wal_appends,
            self.catalog.snapshot_writes,
            self.catalog.recoveries,
            self.catalog.wal_replayed,
            kinds.join(", "),
            stages.join(", "),
        )
    }
}

/// Server-side counters carried in a [`StatsSnapshot`] when the stats
/// request arrived over the wire (mirrors the server crate's aggregate
/// stats; plain data here so the engine can speak the type without
/// depending on the server).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Currently open connections.
    pub connections_open: u64,
    /// Frames read across all connections.
    pub frames_in: u64,
    /// Frames written across all connections.
    pub frames_out: u64,
    /// Submissions refused with `Busy`.
    pub busy_rejections: u64,
    /// Malformed frames answered with `ProtocolError`.
    pub protocol_errors: u64,
    /// Requests admitted but not yet completed.
    pub in_flight: u64,
    /// `read(2)` calls the event loop issued across all connections —
    /// `frames_in / read_syscalls` is the decode amortisation ratio.
    pub read_syscalls: u64,
    /// `write(2)`/`writev(2)` calls issued across all connections —
    /// `frames_out / write_syscalls` is the reply-coalescing ratio.
    pub write_syscalls: u64,
}

impl ServerCounters {
    fn to_json(self) -> String {
        format!(
            concat!(
                "{{\"connections_accepted\": {}, \"connections_open\": {}, ",
                "\"frames_in\": {}, \"frames_out\": {}, \"busy_rejections\": {}, ",
                "\"protocol_errors\": {}, \"in_flight\": {}, ",
                "\"read_syscalls\": {}, \"write_syscalls\": {}}}"
            ),
            self.connections_accepted,
            self.connections_open,
            self.frames_in,
            self.frames_out,
            self.busy_rejections,
            self.protocol_errors,
            self.in_flight,
            self.read_syscalls,
            self.write_syscalls,
        )
    }
}

/// The payload of a [`crate::Response::Stats`]: the engine's merged
/// metrics, plus the front door's counters when the request came over
/// the wire (`None` for in-process callers — the engine has no server).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// The engine metrics at the serving worker's point in time.
    pub metrics: MetricsSnapshot,
    /// Server counters, injected by the server before serialization.
    pub server: Option<ServerCounters>,
}

impl StatsSnapshot {
    /// Renders the payload as a JSON object.
    pub fn to_json(&self) -> String {
        match self.server {
            Some(server) => format!(
                "{{\"engine\": {}, \"server\": {}}}",
                self.metrics.to_json(),
                server.to_json()
            ),
            None => format!("{{\"engine\": {}}}", self.metrics.to_json()),
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "engine metrics: {} requests in {} batches (+{} async), cache {}/{} hit rate {:.1}% ({} entries)",
            self.total_requests(),
            self.batches,
            self.async_submits,
            self.cache.hits,
            self.cache.hits + self.cache.misses,
            100.0 * self.cache.hit_rate(),
            self.cache.len,
        )?;
        writeln!(f, "  scratch reuse {} requests", self.scratch_reuses)?;
        writeln!(
            f,
            "  overlay: {} delta hits, {} rebuilds avoided, {} index builds, {} compactions ({} abandoned)",
            self.delta_hits,
            self.catalog.rebuilds_avoided,
            self.catalog.index_builds,
            self.catalog.compactions,
            self.catalog.compactions_abandoned,
        )?;
        writeln!(
            f,
            "  durability: {} wal appends, {} snapshots, {} recoveries ({} records replayed)",
            self.catalog.wal_appends,
            self.catalog.snapshot_writes,
            self.catalog.recoveries,
            self.catalog.wal_replayed,
        )?;
        writeln!(
            f,
            "  {:<16} {:>8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10}",
            "kind", "requests", "errors", "p50", "p99", "max latency", "index nodes", "cache hits"
        )?;
        for k in &self.per_kind {
            if k.requests == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<16} {:>8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>10}",
                k.kind.name(),
                k.requests,
                k.errors,
                format!("{:.1?}", Duration::from_nanos(k.latency.p50())),
                format!("{:.1?}", Duration::from_nanos(k.latency.p99())),
                format!("{:.1?}", Duration::from_nanos(k.latency.max)),
                k.index_nodes,
                k.cache_hits,
            )?;
        }
        for s in &self.stages {
            if s.latency.count == 0 {
                continue;
            }
            writeln!(
                f,
                "  stage {:<12} {:>8} observations, p50 {:.1?} p99 {:.1?} max {:.1?}",
                s.stage.name(),
                s.latency.count,
                Duration::from_nanos(s.latency.p50()),
                Duration::from_nanos(s.latency.p99()),
                Duration::from_nanos(s.latency.max),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_cache_stats() -> CacheStats {
        CacheStats {
            hits: 0,
            misses: 0,
            len: 0,
            capacity: 8,
        }
    }

    /// `m`'s snapshot over empty cache and catalog counters and
    /// `tracer`'s stage rows.
    fn snapshot_with(m: &Metrics, tracer: &Tracer) -> MetricsSnapshot {
        m.snapshot(empty_cache_stats(), CatalogStats::default(), tracer)
    }

    fn snapshot(m: &Metrics) -> MetricsSnapshot {
        snapshot_with(m, &Tracer::new(1, 1, 1))
    }

    #[test]
    fn record_aggregates_per_kind() {
        let m = Metrics::new();
        m.record(
            RequestKind::TopK,
            Duration::from_micros(10),
            5,
            false,
            false,
        );
        m.record(RequestKind::TopK, Duration::from_micros(30), 7, true, false);
        m.record(
            RequestKind::WhyNot,
            Duration::from_millis(2),
            0,
            false,
            true,
        );
        m.record_batch();
        let s = snapshot(&m);
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.batches, 1);
        assert_eq!(s.total_index_nodes(), 12);
        let topk = &s.per_kind[RequestKind::TopK.index()];
        assert_eq!(topk.requests, 2);
        assert_eq!(topk.cache_hits, 1);
        assert_eq!(topk.latency.mean(), 20_000);
        assert_eq!(topk.latency.max, 30_000);
        let refine = &s.per_kind[RequestKind::WhyNot.index()];
        assert_eq!(refine.errors, 1);
    }

    #[test]
    fn kind_histogram_answers_percentiles_within_the_bound() {
        let m = Metrics::new();
        for us in 1..=100u64 {
            m.record(
                RequestKind::TopK,
                Duration::from_micros(us),
                0,
                false,
                false,
            );
        }
        let s = snapshot(&m);
        let h = &s.per_kind[RequestKind::TopK.index()].latency;
        assert_eq!(h.count, 100);
        assert_eq!(h.max, 100_000);
        let p50 = h.p50() as f64;
        assert!(
            (p50 - 50_000.0).abs() <= 50_000.0 * wqrtq_obs::RELATIVE_ERROR_BOUND,
            "p50 {p50}"
        );
    }

    #[test]
    fn stage_recordings_land_in_their_own_histograms() {
        let m = Metrics::new();
        let tracer = Tracer::new(1, 1, 1);
        tracer.sample(Stage::QueueWait, Duration::from_micros(3));
        tracer.sample(Stage::QueueWait, Duration::from_micros(5));
        tracer.sample(Stage::Execute, Duration::from_micros(40));
        let s = snapshot_with(&m, &tracer);
        assert_eq!(s.stage_latency(Stage::QueueWait).count, 2);
        assert_eq!(s.stage_latency(Stage::Execute).count, 1);
        assert_eq!(s.stage_latency(Stage::CacheLookup).count, 0);
        assert_eq!(s.stages.len(), Stage::COUNT);
    }

    #[test]
    fn display_renders_only_active_kinds() {
        let m = Metrics::new();
        m.record(
            RequestKind::TopK,
            Duration::from_micros(10),
            5,
            false,
            false,
        );
        let text = snapshot(&m).to_string();
        assert!(text.contains("topk"));
        assert!(!text.contains("whynot-refine"));
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let m = Metrics::new();
        let s = snapshot(&m);
        assert_eq!(s.total_requests(), 0);
        assert_eq!(s.per_kind[0].latency.mean(), 0);
    }

    #[test]
    fn snapshot_json_is_well_formed_enough_to_nest() {
        let m = Metrics::new();
        m.record(
            RequestKind::TopK,
            Duration::from_micros(10),
            5,
            false,
            false,
        );
        let tracer = Tracer::new(1, 1, 1);
        tracer.sample(Stage::Execute, Duration::from_micros(9));
        let snap = StatsSnapshot {
            metrics: snapshot_with(&m, &tracer),
            server: Some(ServerCounters {
                frames_in: 3,
                ..ServerCounters::default()
            }),
        };
        let json = snap.to_json();
        assert!(json.contains("\"engine\""));
        assert!(json.contains("\"server\""));
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"execute\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces: {json}"
        );
    }
}
