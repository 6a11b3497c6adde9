//! In-memory spans recorded by the benchmark around its calls into each
//! crate's public functions — nothing inside the crates.
//!
//! A span names the call, the layer (crate) its **self time** belongs
//! to, its start and end, the span that contains it, and the request it
//! belongs to. For a sampled request the same request id is executed
//! serially along nested paths (over the wire, in-process through
//! `Engine::submit` cold and cache-hit, and — where the kernel work can
//! be replicated faithfully — by direct kernel call). The nesting is
//! therefore *logical*: a child's duration is subtracted from its
//! parent's duration whether or not the two ran at the same wall-clock
//! moment, so a layer's self time is its span minus the spans it
//! contains and the layers of one request sum to its `wire.rtt` by
//! construction.

use crate::json::Json;
use crate::stats::percentile;
use std::collections::BTreeMap;
use std::time::Instant;

/// The root span of every traced request.
pub const ROOT: &str = "wire.rtt";

/// Spans written to the trace file (the summary covers all of them).
const MAX_SPANS_IN_FILE: usize = 20_000;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What was called (`wire.rtt`, `client.wait`, `engine.submit`, …).
    pub name: &'static str,
    /// The layer (crate) this span's self time is charged to.
    pub layer: &'static str,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Index of the containing span, `None` for a root.
    pub parent: Option<u32>,
    /// The request this span belongs to.
    pub request_id: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span buffer (one per recording thread, merged at the
/// end of the run).
#[derive(Clone, Debug)]
pub struct Trace {
    epoch: Instant,
    /// The recorded spans; `parent` indexes into this vector.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty buffer whose clock starts at `epoch` (share one epoch
    /// across threads so merged spans stay comparable).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<u32>,
        request_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span and returns its result with the span index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<u32>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (
            out,
            self.push(name, layer, (start, end), parent, request_id),
        )
    }

    /// Appends another buffer, re-basing its parent links.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the durations of the
/// spans that name it as parent. Negative when the children outlasted
/// the parent (possible because nested paths run serially, not
/// concurrently) — reported, never clamped.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_ns() as i64;
        }
    }
    own
}

/// Where one workload's `wire.rtt` goes, layer by layer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Requests with a complete span tree.
    pub requests: usize,
    /// Requests kept after dropping the slowest tenth (scheduler stalls
    /// of several milliseconds would otherwise dominate the totals).
    pub kept: usize,
    /// Median `wire.rtt` of all traced requests, nanoseconds.
    pub rtt_p50_ns: u64,
    /// Each layer's share of the kept requests' total `wire.rtt`; the
    /// shares sum to one.
    pub shares: BTreeMap<&'static str, f64>,
    /// Layers whose total self time came out negative (an inner path
    /// measured slower than the outer one that logically contains it).
    pub unresolved: Vec<&'static str>,
    /// Median duration per span name, nanoseconds, with sample counts.
    pub span_p50_ns: BTreeMap<&'static str, (u64, usize)>,
}

/// Attributes the traced requests' round-trip time to layers.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let own = self_times(spans);
    // Root of each span, by walking parent links.
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p as usize;
        }
        i
    };
    let mut rtts: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == ROOT)
        .map(Span::duration_ns)
        .collect();
    rtts.sort_unstable();
    let cutoff = percentile(&rtts, 0.9);
    let mut out = Breakdown {
        requests: rtts.len(),
        rtt_p50_ns: percentile(&rtts, 0.5),
        ..Breakdown::default()
    };
    let mut totals: BTreeMap<&'static str, i64> = BTreeMap::new();
    let mut total_rtt = 0i64;
    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let root = &spans[root_of(i)];
        if root.name != ROOT {
            continue;
        }
        durations.entry(s.name).or_default().push(s.duration_ns());
        if root.duration_ns() > cutoff {
            continue;
        }
        *totals.entry(s.layer).or_default() += own[i];
        if s.parent.is_none() {
            total_rtt += s.duration_ns() as i64;
            out.kept += 1;
        }
    }
    for (layer, total) in totals {
        if total < 0 {
            out.unresolved.push(layer);
        }
        if total_rtt > 0 {
            out.shares.insert(layer, total as f64 / total_rtt as f64);
        }
    }
    for (name, mut d) in durations {
        d.sort_unstable();
        out.span_p50_ns.insert(name, (percentile(&d, 0.5), d.len()));
    }
    out
}

/// Renders the trace file: the breakdown plus the first
/// [`MAX_SPANS_IN_FILE`] spans.
pub fn to_json(workload: &str, spans: &[Span], b: &Breakdown) -> Json {
    let span_json = |s: &Span| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("layer", Json::str(s.layer)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("request_id", Json::Num(s.request_id as f64)),
        ])
    };
    Json::obj([
        ("workload", Json::str(workload)),
        ("requests", Json::Num(b.requests as f64)),
        ("requests_kept", Json::Num(b.kept as f64)),
        ("wire_rtt_p50_ns", Json::Num(b.rtt_p50_ns as f64)),
        (
            "layer_share_of_wire_rtt",
            Json::obj(b.shares.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        (
            "unresolved",
            Json::Arr(b.unresolved.iter().map(|l| Json::str(*l)).collect()),
        ),
        (
            "span_p50_ns",
            Json::obj(b.span_p50_ns.iter().map(|(k, (p50, n))| {
                (
                    *k,
                    Json::obj([("p50", Json::Num(*p50 as f64)), ("n", Json::Num(*n as f64))]),
                )
            })),
        ),
        ("spans_total", Json::Num(spans.len() as f64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .take(MAX_SPANS_IN_FILE)
                    .map(span_json)
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(t: &mut Trace, id: u64, rtt: u64, wait: u64, submit: u64, kernel: u64) {
        let root = t.push(ROOT, "bench", (0, rtt), None, id);
        let w = t.push("client.wait", "server", (10, 10 + wait), Some(root), id);
        // The in-process twin of the same request ran later, serially:
        // its wall-clock position is irrelevant, only its duration nests.
        let s = t.push(
            "engine.submit",
            "query",
            (5_000, 5_000 + submit),
            Some(w),
            id,
        );
        t.push("rtree.probe", "rtree", (9_000, 9_000 + kernel), Some(s), id);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::new(Instant::now());
        request(&mut t, 1, 100, 80, 30, 12);
        assert_eq!(self_times(&t.spans), vec![20, 50, 18, 12]);
    }

    #[test]
    fn layer_shares_sum_to_the_round_trip() {
        let mut t = Trace::new(Instant::now());
        for id in 0..20 {
            request(&mut t, id, 100, 80, 30, 12);
        }
        // One stalled request: dropped by the slowest-tenth trim.
        request(&mut t, 99, 9_000, 8_000, 30, 12);
        let b = breakdown(&t.spans);
        assert_eq!((b.requests, b.rtt_p50_ns), (21, 100));
        assert!(b.kept >= 18 && b.kept <= 20);
        assert!((b.shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((b.shares["server"] - 0.5).abs() < 1e-12);
        assert!((b.shares["rtree"] - 0.12).abs() < 1e-12);
        assert!(b.unresolved.is_empty());
        assert_eq!(b.span_p50_ns["engine.submit"], (30, 21));
    }

    #[test]
    fn an_inner_path_slower_than_its_outer_is_unresolved_not_clamped() {
        let mut t = Trace::new(Instant::now());
        for id in 0..10 {
            request(&mut t, id, 100, 80, 95, 12);
        }
        let b = breakdown(&t.spans);
        assert_eq!(b.unresolved, vec!["server"]);
        assert!(b.shares["server"] < 0.0);
        assert!((b.shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_rebases_parent_links() {
        let mut a = Trace::new(Instant::now());
        request(&mut a, 1, 100, 80, 30, 12);
        let mut b = Trace::new(Instant::now());
        request(&mut b, 2, 100, 80, 30, 12);
        a.merge(b);
        assert_eq!(a.spans[5].parent, Some(4));
        assert_eq!(self_times(&a.spans)[4], 20);
    }
}
