//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `qp_vs_exact2d`    — MQP's quadratic program vs materialising the
//!   exact 2-D safe-region polygon (§4.2's scalability argument);
//! * `rank_tree_vs_scan` — counted R-tree rank queries vs a linear scan;
//! * `rta_vs_naive`     — RTA's threshold-buffer pruning vs per-weight
//!   evaluation for bichromatic reverse top-k;
//! * `reuse_vs_fresh`   — MQWK's frontier reuse vs re-running `FindIncom`
//!   per sampled query point (§4.4);
//! * `sampler`          — hyperplane sampling vs uniform simplex sampling
//!   (§4.3 issue (i): sample quality).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use wqrtq_core::incomparable::DominanceFrontier;
use wqrtq_core::mqp::mqp;
use wqrtq_core::mwk::{mwk_with_frontier, Budget};
use wqrtq_core::penalty::Tolerances;
use wqrtq_core::safe_region::SafeRegion;
use wqrtq_core::sampling::WeightSampler;
use wqrtq_data::synthetic::independent;
use wqrtq_data::workload::{build_case, WorkloadSpec};
use wqrtq_geom::Weight;
use wqrtq_query::brtopk::{bichromatic_reverse_topk_naive, bichromatic_reverse_topk_rta};
use wqrtq_query::rank::{rank_of_point, rank_of_point_scan};
use wqrtq_rtree::RTree;

fn small_group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(900));
    g
}

fn qp_vs_exact2d(c: &mut Criterion) {
    let ds = independent(20_000, 2, 7);
    let tree = RTree::bulk_load(2, &ds.coords);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 3,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    let case = build_case(&tree, &spec, 1);
    let mut g = small_group(c, "ablation_qp_vs_exact2d");
    g.bench_function("qp", |b| {
        b.iter(|| mqp(&tree, &case.q, case.k, &case.why_not).unwrap())
    });
    g.bench_function("exact_polygon", |b| {
        b.iter(|| {
            let sr = SafeRegion::build(&tree, &case.q, case.k, &case.why_not).unwrap();
            sr.closest_point_2d()
        })
    });
    g.finish();
}

fn rank_tree_vs_scan(c: &mut Criterion) {
    let ds = independent(100_000, 3, 9);
    let tree = RTree::bulk_load(3, &ds.coords);
    let w = [0.3, 0.3, 0.4];
    let q = [0.1, 0.12, 0.09];
    let mut g = small_group(c, "ablation_rank_tree_vs_scan");
    g.bench_function("tree_counted", |b| b.iter(|| rank_of_point(&tree, &w, &q)));
    g.bench_function("linear_scan", |b| {
        b.iter(|| rank_of_point_scan(&ds.coords, &w, &q))
    });
    g.finish();
}

fn rta_vs_naive(c: &mut Criterion) {
    let ds = independent(20_000, 3, 11);
    let tree = RTree::bulk_load(3, &ds.coords);
    let points: Vec<wqrtq_geom::Point> = (0..ds.len())
        .map(|i| wqrtq_geom::Point::new(ds.point(i).to_vec()))
        .collect();
    let mut rng = StdRng::seed_from_u64(5);
    let weights: Vec<Weight> = (0..200)
        .map(|_| {
            Weight::normalized(vec![
                rng.gen_range(0.05..1.0),
                rng.gen_range(0.05..1.0),
                rng.gen_range(0.05..1.0),
            ])
        })
        .collect();
    let q = [0.12, 0.1, 0.14];
    let mut g = small_group(c, "ablation_rta_vs_naive");
    g.bench_function("rta_buffered", |b| {
        b.iter(|| bichromatic_reverse_topk_rta(&tree, &weights, &q, 10))
    });
    g.bench_function("naive_per_weight", |b| {
        b.iter(|| bichromatic_reverse_topk_naive(&points, &weights, &q, 10))
    });
    g.finish();
}

fn reuse_vs_fresh(c: &mut Criterion) {
    // The inner loop of MQWK: evaluate 32 sampled query points, either
    // re-classifying the cached frontier (reuse) or re-traversing the
    // R-tree each time (fresh).
    let ds = independent(50_000, 3, 13);
    let tree = RTree::bulk_load(3, &ds.coords);
    let spec = WorkloadSpec::paper_default();
    let case = build_case(&tree, &spec, 3);
    let base = DominanceFrontier::new(&tree, &case.q);
    let samples: Vec<Vec<f64>> = wqrtq_core::sampling::sample_query_points(
        &case.q.iter().map(|x| x * 0.9).collect::<Vec<_>>(),
        &case.q,
        32,
        17,
    );
    let tol = Tolerances::paper_default();
    let unbounded = Budget::UNBOUNDED;
    let mut g = small_group(c, "ablation_reuse_vs_fresh");
    g.bench_function("reuse_frontier", |b| {
        b.iter(|| {
            for (i, qp) in samples.iter().enumerate() {
                let f = base.reclassify(qp);
                mwk_with_frontier(&f, case.k, &case.why_not, 50, &tol, i as u64, &unbounded);
            }
        })
    });
    g.bench_function("fresh_traversal", |b| {
        b.iter(|| {
            for (i, qp) in samples.iter().enumerate() {
                let f = DominanceFrontier::new(&tree, qp);
                mwk_with_frontier(&f, case.k, &case.why_not, 50, &tol, i as u64, &unbounded);
            }
        })
    });
    g.finish();
}

fn sampler_quality(c: &mut Criterion) {
    // §4.3 issue (i): hyperplane samples tie q with a frontier point, so
    // they sit exactly where optimal replacements live; uniform simplex
    // samples mostly don't. We benchmark the *time* here; the penalty
    // advantage is asserted in the integration tests.
    let ds = independent(20_000, 3, 15);
    let tree = RTree::bulk_load(3, &ds.coords);
    let spec = WorkloadSpec::paper_default();
    let case = build_case(&tree, &spec, 5);
    let frontier = DominanceFrontier::new(&tree, &case.q);
    let mut g = small_group(c, "ablation_sampler");
    g.bench_function("hyperplane_hit_and_run", |b| {
        b.iter(|| WeightSampler::new(&frontier, &case.why_not, 1).sample(400))
    });
    g.bench_function("uniform_simplex", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            (0..400)
                .map(|_| {
                    let raw: Vec<f64> =
                        (0..3).map(|_| -rng.gen_range(1e-12f64..1.0).ln()).collect();
                    Weight::normalized(raw)
                })
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

fn sampled_vs_exact2d_mwk(c: &mut Criterion) {
    // §4.3's quality-for-time trade, measured: the sampling MWK vs the
    // exact 2-D enumeration oracle.
    let ds = independent(10_000, 2, 23);
    let tree = RTree::bulk_load(2, &ds.coords);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 2,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    let case = build_case(&tree, &spec, 9);
    let tol = Tolerances::paper_default();
    let mut g = small_group(c, "ablation_sampled_vs_exact2d");
    g.bench_function("sampled_s400", |b| {
        b.iter(|| {
            wqrtq_core::mwk::mwk(&tree, &case.q, case.k, &case.why_not, 400, &tol, 5).unwrap()
        })
    });
    g.bench_function("exact_enumeration", |b| {
        b.iter(|| {
            wqrtq_core::exact2d::mwk_exact_2d(&ds.coords, &case.q, case.k, &case.why_not, &tol)
        })
    });
    g.finish();
}

criterion_group!(
    ablations,
    qp_vs_exact2d,
    rank_tree_vs_scan,
    rta_vs_naive,
    reuse_vs_fresh,
    sampler_quality,
    sampled_vs_exact2d_mwk,
);
criterion_main!(ablations);
