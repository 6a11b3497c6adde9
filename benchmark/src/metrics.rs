//! The metric vocabulary: every name the benchmark prints, with unit,
//! direction and (for end-to-end metrics) the regression bound. This
//! table is the single source `BENCHMARK.json` is generated from
//! (`wqrtq-benchmark manifest`); a unit test keeps the committed file
//! in step.

use crate::json::Json;
use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Permanent name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve_topk",
        "~10 us of index work per TopK: the server (codec, event loop, syscalls, allocs) and engine dispatch/cache do most of the work, query/rtree/geom almost none",
    ),
    (
        "rtopk_scan",
        "RTA + membership probes + block scans at d=3 (mask wins) and d=5 (mask loses): query/rtree/geom do most of the work, the server almost none; set-up pays both mask builds",
    ),
    (
        "whynot_plan",
        "the paper's own experiment: core (MQP/MWK/MQWK, sampling, safe region) + qp dominate at ~0.3 s per streamed plan; penalty is the quality metric",
    ),
    (
        "mutate_mix",
        "the same layers used differently: writes beside reads through a growing overlay, background compaction + mask rebuild, WAL + snapshot + recovery",
    ),
];

/// End-to-end metrics: printed by the untraced run (`--trace 0`) on
/// every workload, each with its regression bound.
///
/// Every workload sends two classes of request, and each class has its
/// own depth-1 median so that a change trading one class for the other
/// cannot hide in a median over the mix (the median of a 50/50 two-mode
/// mix sits between the modes and tracks neither):
///
/// | workload | `latency_p50_us` (class A) | `latency_b_p50_us` (class B) |
/// |---|---|---|
/// | `serve_topk` | unique weights (cache misses) | hot-set weights (cache hits) |
/// | `rtopk_scan` | the d=3 dataset | the d=5 dataset |
/// | `whynot_plan` | send → final reply | send → first `ReplyPart` |
/// | `mutate_mix` | reads | `Append`/`Delete` acknowledgements |
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_rps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("latency_b_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.2),
];

/// Per-layer metrics: the result line of the traced run (`--trace 1`).
/// Every one of them is measured on every workload — the traffic-derived
/// ones (shares, stage histograms, counters) from the workload's own
/// requests, the rest by the layer probes on standard inputs
/// ([`crate::probes`]).
pub const PER_LAYER: [MetricDef; 79] = [
    // -- the depth-1 latency tail (p99; p75 on whynot_plan) -------------
    lo("latency_tail_us", "us"),
    // -- where wire.rtt goes (server + engine + exec = 1) ---------------
    lo("share.server", "ratio"),
    lo("share.engine", "ratio"),
    lo("share.exec", "ratio"),
    lo("share.unresolved_layers", "count"),
    lo("wire.rtt_p50_us", "us"),
    // -- server ---------------------------------------------------------
    lo("server.wire_overhead_us", "us"),
    lo("server.codec_encode_ns", "ns"),
    lo("server.codec_decode_ns", "ns"),
    hi("server.frames_per_read", "ratio"),
    hi("server.frames_per_write", "ratio"),
    lo("server.syscalls_per_request", "ratio"),
    lo("server.busy_share", "ratio"),
    lo("server.allocs_per_request", "count"),
    lo("server.admission_p50_us", "us"),
    lo("server.serialize_p50_us", "us"),
    // -- engine ---------------------------------------------------------
    lo("engine.dispatch_us", "us"),
    lo("engine.queue_wait_p50_us", "us"),
    lo("engine.queue_wait_p99_us", "us"),
    lo("engine.cache_lookup_p50_us", "us"),
    lo("engine.execute_p50_us", "us"),
    hi("engine.cache_hit_rate", "ratio"),
    hi("engine.shards_per_rtopk", "ratio"),
    hi("engine.scratch_reuse_ratio", "ratio"),
    lo("engine.register_s", "s"),
    lo("engine.index_build_s", "s"),
    hi("engine.compactions", "count"),
    lo("engine.compactions_abandoned", "count"),
    hi("engine.compaction_success_ratio", "ratio"),
    lo("engine.index_builds", "count"),
    lo("engine.mask_builds", "count"),
    lo("engine.append_us", "us"),
    lo("engine.append_wal_us", "us"),
    lo("engine.append_fsync_us", "us"),
    lo("engine.compact_s", "s"),
    lo("engine.checkpoint_s", "s"),
    lo("engine.wal_bytes_per_append", "bytes"),
    hi("engine.replay_records_per_s", "1/s"),
    lo("recovery_s", "s"),
    lo("disk_bytes_per_live_byte", "ratio"),
    // -- query (serial in-process Engine::submit, cold minus cache hit) -
    lo("query.topk_us", "us"),
    lo("query.topk_nodes_per_request", "count"),
    lo("query.rtopk_d3_us", "us"),
    lo("query.rtopk_d5_us", "us"),
    hi("query.rtopk_weights_per_s", "1/s"),
    lo("query.rtopk_result_share", "ratio"),
    lo("query.rtopk_overlay_us", "us"),
    lo("query.overlay_slowdown", "ratio"),
    // -- core (single-strategy WhyNot requests in-process) -------------
    lo("core.mqp_ms", "ms"),
    lo("core.mwk_ms", "ms"),
    lo("core.mqwk_ms", "ms"),
    lo("core.mqp_penalty", "penalty"),
    lo("core.mwk_penalty", "penalty"),
    lo("core.mqwk_penalty", "penalty"),
    lo("core.advisor_step_p50_ms", "ms"),
    hi("core.verified_share", "ratio"),
    // -- rtree (direct calls) -------------------------------------------
    lo("rtree.bulk_load_s_d3", "s"),
    lo("rtree.bulk_load_s_d5", "s"),
    lo("rtree.mask_build_s_d3", "s"),
    lo("rtree.mask_build_s_d5", "s"),
    lo("rtree.probe_ns", "ns"),
    lo("rtree.probe_masked_ns", "ns"),
    lo("rtree.probe_nodes", "count"),
    hi("rtree.mask_speedup_d3", "ratio"),
    hi("rtree.mask_speedup_d5", "ratio"),
    lo("rtree.topk10_ns", "ns"),
    // -- geom (direct calls) --------------------------------------------
    lo("geom.scan_ns_per_point", "ns"),
    lo("geom.scan_exact_ns_per_point", "ns"),
    hi("geom.scan_gbps", "GB/s"),
    hi("geom.bound_skip_share", "ratio"),
    lo("geom.quantized_fallback_share", "ratio"),
    lo("geom.overlay_ns_per_delta_row", "ns"),
    lo("geom.flat_build_s", "s"),
    // -- qp, codec, obs -------------------------------------------------
    lo("qp.solve_us", "us"),
    hi("codec.crc32_gbps", "GB/s"),
    lo("obs.record_ns", "ns"),
    // -- the benchmark itself (validity of the numbers above) -----------
    hi("bench.trace_overhead", "ratio"),
    hi("bench.traced_requests", "count"),
    lo("failed_share", "ratio"),
];

/// Metrics only one workload's traffic yields. They are printed in the
/// run's table (and written to the traced run's metrics file), but are
/// not part of the result line: the acceptance pipeline wants every
/// listed metric measured on every workload, and these do not exist
/// elsewhere. The per-class medians among them are the traced run's
/// readings of what the untraced run gates as `latency_p50_us` /
/// `latency_b_p50_us`; `plan_penalty_mean` is part of `whynot_plan`'s
/// correctness in both runs.
pub const ONE_WORKLOAD: [MetricDef; 13] = [
    // serve_topk: the open-loop ladder
    hi("max_rate_ok_rps", "1/s"),
    lo("server.open_p99_us_r24000", "us"),
    lo("bench.send_late_p50_us", "us"),
    lo("bench.send_late_p99_us", "us"),
    lo("share.rtree", "ratio"),
    // rtopk_scan: per-dataset medians
    lo("rtopk_d3_p50_us", "us"),
    lo("rtopk_d5_p50_us", "us"),
    lo("share.query", "ratio"),
    // whynot_plan: streaming and the paper's quality metric
    lo("plan_first_part_ms", "ms"),
    lo("plan_penalty_mean", "penalty"),
    lo("share.core", "ratio"),
    // mutate_mix: writes and stalls
    lo("write_ack_p50_us", "us"),
    lo("read_stall_max_ms", "ms"),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples the value was computed from (`None` for counters and
    /// ratios of counters).
    pub samples: Option<usize>,
}

/// The values one run measured, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Measured>,
}

impl Report {
    /// Records a timing (or any sampled statistic) with its sample count.
    pub fn timing(&mut self, name: &'static str, value: f64, samples: usize) {
        self.put(name, value, Some(samples));
    }

    /// Records a counter, ratio or other unsampled value.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.put(name, value, None);
    }

    fn put(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .chain(&ONE_WORKLOAD)
                .any(|d| d.name == name),
            "metric {name} is not in the vocabulary"
        );
        self.values.insert(name, Measured { value, samples });
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<Measured> {
        self.values.get(name).copied()
    }

    /// The metrics object of the result line for `defs`, plus the names
    /// that were never recorded. Unrecorded metrics read 0.
    pub fn result_metrics(&self, defs: &[MetricDef]) -> (Json, Vec<&'static str>) {
        let mut missing = Vec::new();
        let metrics = Json::obj(defs.iter().map(|d| {
            let value = self.get(d.name).map_or_else(
                || {
                    missing.push(d.name);
                    0.0
                },
                |m| m.value,
            );
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        }));
        (metrics, missing)
    }

    /// Everything recorded, with sample counts (the traced run writes it
    /// next to its trace file, one-workload metrics included).
    pub fn to_json(&self) -> Json {
        Json::obj(self.values.iter().map(|(name, m)| {
            let mut pairs = vec![("value", Json::Num(m.value))];
            if let Some(n) = m.samples {
                pairs.push(("samples", Json::Num(n as f64)));
            }
            (*name, Json::obj(pairs))
        }))
    }

    /// The human-readable table: every metric of `defs` by name with
    /// value, unit, direction, bound and sample count (`skip_unmeasured`
    /// drops the rows nothing was recorded for).
    pub fn table(&self, defs: &[MetricDef], skip_unmeasured: bool) -> String {
        let mut out = String::new();
        for d in defs {
            let m = self.get(d.name);
            if skip_unmeasured && m.is_none() {
                continue;
            }
            let value = m.map_or("-".to_string(), |m| format!("{:.6}", m.value));
            let bound = d
                .bound
                .map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
            let samples = m
                .and_then(|m| m.samples)
                .map_or(String::new(), |n| format!("  n={n}"));
            out.push_str(&format!(
                "{:<34} {:>18} {:<8} {} is better{bound}{samples}\n",
                d.name,
                value,
                d.unit,
                d.better.name()
            ));
        }
        out
    }
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let metric = |d: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.name())),
        ];
        if let Some(b) = d.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                    "run",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn vocabulary_meets_the_manifest_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain(&ONE_WORKLOAD)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn committed_manifest_matches_the_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&text).unwrap(), manifest());
    }

    #[test]
    fn unrecorded_metrics_read_zero_and_are_listed() {
        let mut r = Report::default();
        r.timing("latency_p50_us", 91.5, 1000);
        let (metrics, missing) = r.result_metrics(&END_TO_END);
        assert_eq!(missing.len(), END_TO_END.len() - 1);
        let p50 = metrics.get("latency_p50_us").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(91.5));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("us"));
        assert!(r.table(&END_TO_END, false).contains("n=1000"));
        assert_eq!(r.table(&END_TO_END, true).lines().count(), 1);
    }
}
