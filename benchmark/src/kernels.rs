//! Per-layer costs by direct call into each crate's public functions
//! (traced run only). Every function times a loop of calls whose inputs
//! and results pass through `black_box`, and reports absolute rates:
//! nanoseconds per call or per point, computed bytes per second, nodes
//! per probe.

use crate::metrics::Report;
use crate::oracle::score;
use crate::rng::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wqrtq_engine::{DatasetHandle, Histogram, Request, Response};
use wqrtq_geom::{DeltaView, FlatPoints};
use wqrtq_qp::QpProblem;
use wqrtq_rtree::{DominanceIndex, ProbeScratch, RTree};
use wqrtq_server::{ClientFrame, ServerFrame};

/// Weights probed against the fixed query point.
const PROBE_WEIGHTS: usize = 1000;
/// Rows of the synthetic delta the overlay sweep is timed on.
const OVERLAY_ROWS: usize = 10_000;

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Nanoseconds per iteration of `f` over `iters` iterations.
fn ns_per(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Index and mask construction by direct call on the dataset's base
/// coordinates (the same work `Catalog::handle` does during set-up).
pub fn builds(report: &mut Report, handle: &DatasetHandle) {
    let (bulk, mask) = match handle.dim {
        3 => ("rtree.bulk_load_s_d3", "rtree.mask_build_s_d3"),
        5 => ("rtree.bulk_load_s_d5", "rtree.mask_build_s_d5"),
        _ => return,
    };
    let mut tree = None;
    report.timing(
        bulk,
        secs(|| tree = Some(RTree::bulk_load(handle.dim, &handle.coords))),
        1,
    );
    let tree = tree.expect("bulk_load ran");
    report.timing(
        mask,
        secs(|| {
            black_box(DominanceIndex::build(&tree));
        }),
        1,
    );
    if handle.dim == 3 {
        report.timing(
            "geom.flat_build_s",
            secs(|| {
                black_box(FlatPoints::from_row_major(handle.dim, &handle.coords));
            }),
            1,
        );
    }
}

/// Membership probes (plain and masked), top-10 traversal and block
/// scans: `PROBE_WEIGHTS` simplex weights against the fixed point `q`.
pub fn probes(report: &mut Report, handle: &DatasetHandle, q: &[f64], k: usize, rng: &mut Rng) {
    let weights: Vec<(Vec<f64>, f64)> = (0..PROBE_WEIGHTS)
        .map(|_| {
            let w = rng.simplex(handle.dim);
            let threshold = score(&w, q);
            (w, threshold)
        })
        .collect();
    let tree = &handle.index;
    let mut scratch = ProbeScratch::new();
    let mut nodes = 0usize;
    let plain = ns_per(weights.len(), |i| {
        let (w, t) = &weights[i];
        nodes += black_box(tree.probe_topk_membership(w, *t, k, &mut scratch, None)).nodes_visited;
    });
    let masked = handle
        .dom
        .as_deref()
        .filter(|dom| dom.usable_for(k))
        .map(|dom| {
            ns_per(weights.len(), |i| {
                let (w, t) = &weights[i];
                black_box(tree.probe_topk_membership_masked(w, *t, k, k, dom, &mut scratch, None));
            })
        });
    let speedup = masked.map_or(0.0, |m| plain / m);
    match handle.dim {
        3 => report.timing("rtree.mask_speedup_d3", speedup, weights.len()),
        5 => report.timing("rtree.mask_speedup_d5", speedup, weights.len()),
        _ => {}
    }
    if handle.dim != 3 {
        return;
    }
    report.timing("rtree.probe_ns", plain, weights.len());
    report.timing(
        "rtree.probe_masked_ns",
        masked.unwrap_or(0.0),
        weights.len(),
    );
    report.timing(
        "rtree.probe_nodes",
        nodes as f64 / weights.len() as f64,
        weights.len(),
    );
    report.timing(
        "rtree.topk10_ns",
        ns_per(weights.len(), |i| {
            black_box(tree.best_first(&weights[i].0).take(10).count());
        }),
        weights.len(),
    );
    scans(report, &handle.flat, &weights, rng);
}

fn scans(report: &mut Report, flat: &Arc<FlatPoints>, weights: &[(Vec<f64>, f64)], rng: &mut Rng) {
    let n = flat.len().max(1) as f64;
    let calls = weights.len();
    let two_tier = ns_per(calls, |i| {
        let (w, t) = &weights[i];
        black_box(flat.count_better_than(w, *t));
    });
    let exact = ns_per(calls, |i| {
        let (w, t) = &weights[i];
        black_box(flat.count_better_than_exact(w, *t));
    });
    report.timing("geom.scan_ns_per_point", two_tier / n, calls);
    report.timing("geom.scan_exact_ns_per_point", exact / n, calls);
    // Computed, not measured, traffic: the f32 mirror holds n·d·4 bytes.
    let mirror_bytes = n * flat.dim() as f64 * 4.0;
    report.timing("geom.scan_gbps", mirror_bytes / two_tier, calls);
    let (mut skipped, mut visited, mut quantized, mut fallbacks) = (0, 0, 0, 0);
    for (w, t) in weights {
        let (_, s) = flat.count_better_than_capped_stats(w, *t, usize::MAX);
        skipped += s.blocks_skipped;
        visited += s.blocks_visited;
        quantized += s.quantized_blocks;
        fallbacks += s.quantized_fallbacks;
    }
    let share = |a: usize, b: usize| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    report.value("geom.bound_skip_share", share(skipped, skipped + visited));
    report.value("geom.quantized_fallback_share", share(fallbacks, quantized));

    let dim = flat.dim();
    let delta: Vec<f64> = (0..OVERLAY_ROWS * dim).map(|_| rng.f64()).collect();
    let ids: Vec<u32> = (0..OVERLAY_ROWS).map(|i| (flat.len() + i) as u32).collect();
    let view = DeltaView::new(
        flat.clone(),
        Arc::new(delta),
        Arc::new(ids),
        Arc::new(Vec::new()),
        Arc::new(Vec::new()),
    );
    let sweep = ns_per(calls, |i| {
        let (w, t) = &weights[i];
        black_box(view.count_better_delta(w, *t));
    });
    report.timing(
        "geom.overlay_ns_per_delta_row",
        sweep / OVERLAY_ROWS as f64,
        calls,
    );
}

/// The least-change QP of MQP (d variables, one inequality per why-not
/// vector plus the `0 ≤ q′ ≤ q` box), CRC-32 over a WAL-sized buffer,
/// and one histogram record.
pub fn small_layers(report: &mut Report, dim: usize, rng: &mut Rng) {
    const SOLVES: usize = 2000;
    let problems: Vec<QpProblem> = (0..SOLVES)
        .map(|_| {
            let q: Vec<f64> = (0..dim).map(|_| rng.range_f64(0.3, 0.9)).collect();
            let mut p = QpProblem::least_change(&q);
            for _ in 0..3 {
                let w = rng.simplex(dim);
                let rhs = score(&w, &q) * rng.range_f64(0.7, 0.95);
                p.add_inequality(w, rhs);
            }
            p.set_bounds(vec![0.0; dim], q);
            p
        })
        .collect();
    let mut solved = 0usize;
    let per_solve = ns_per(SOLVES, |i| {
        solved += usize::from(black_box(wqrtq_qp::solve(&problems[i])).is_ok());
    });
    report.timing("qp.solve_us", per_solve / 1e3, solved);

    let buffer: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    const ROUNDS: usize = 64;
    let per_round = ns_per(ROUNDS, |_| {
        black_box(wqrtq_codec::crc32::checksum(black_box(&buffer)));
    });
    report.timing("codec.crc32_gbps", buffer.len() as f64 / per_round, ROUNDS);

    let histogram = Histogram::new();
    const RECORDS: usize = 1_000_000;
    report.timing(
        "obs.record_ns",
        ns_per(RECORDS, |i| histogram.record(black_box(1000 + i as u64))),
        RECORDS,
    );
    black_box(histogram.snapshot());
}

/// Codec cost of this workload's own frames: encoding the request and
/// decoding the reply, by direct codec calls.
pub fn codec(report: &mut Report, request: &Request, response: &Response) {
    const ROUNDS: usize = 20_000;
    report.timing(
        "server.codec_encode_ns",
        ns_per(ROUNDS, |i| {
            black_box(ClientFrame::encode_submit(i as u64 + 1, black_box(request)));
        }),
        ROUNDS,
    );
    let payload = ServerFrame::Reply(response.clone()).encode(7);
    let rounds = (ROUNDS * 64 / payload.len().max(64)).clamp(200, ROUNDS);
    report.timing(
        "server.codec_decode_ns",
        ns_per(rounds, |_| {
            black_box(ServerFrame::decode(black_box(&payload)).is_ok());
        }),
        rounds,
    );
}
