//! Cross-crate pipeline tests: generated datasets → workload builder →
//! all three refinement algorithms → verification against the index.

use wqrtq::core::baseline::separate_refinement;
use wqrtq::core::mqp::mqp;
use wqrtq::core::mqwk::mqwk;
use wqrtq::core::mwk::mwk;
use wqrtq::core::penalty::Tolerances;
use wqrtq::data::synthetic::{anticorrelated, clustered, correlated, independent, Dataset};
use wqrtq::data::workload::{build_case, WorkloadSpec};
use wqrtq::query::rank::rank_of_point;
use wqrtq::query::{topk, topk_scan};
use wqrtq::rtree::{ProbeScratch, RTree};

fn run_all_solutions(ds: &Dataset, spec: &WorkloadSpec, seed: u64) {
    let tree = RTree::bulk_load(ds.dim, &ds.coords);
    let case = build_case(&tree, spec, seed);
    let tol = Tolerances::paper_default();

    // MQP: every why-not vector must admit q′ at the original k.
    let r1 = mqp(&tree, &case.q, case.k, &case.why_not).unwrap();
    for w in &case.why_not {
        let rank = rank_of_point(&tree, w, &r1.q_prime);
        assert!(
            rank <= case.k,
            "MQP: rank {rank} > k {} (dim {} seed {seed})",
            case.k,
            ds.dim
        );
    }
    assert!(r1.penalty >= 0.0 && r1.penalty <= 1.0 + 1e-9);

    // MWK: refined vectors must admit q at k′.
    let r2 = mwk(&tree, &case.q, case.k, &case.why_not, 150, &tol, seed).unwrap();
    for w in &r2.refined {
        let rank = rank_of_point(&tree, w, &case.q);
        assert!(rank <= r2.k_prime, "MWK: rank {rank} > k′ {}", r2.k_prime);
    }
    assert!(r2.k_prime <= r2.k_max, "Lemma 4 bound violated");
    assert!(r2.penalty >= 0.0);

    // MQWK: refined vectors must admit q′ at k′, and the penalty is never
    // worse than either specialised endpoint.
    let r3 = mqwk(&tree, &case.q, case.k, &case.why_not, 150, 100, &tol, seed).unwrap();
    for w in &r3.refined {
        let rank = rank_of_point(&tree, w, &r3.q_prime);
        assert!(rank <= r3.k_prime, "MQWK: rank {rank} > k′ {}", r3.k_prime);
    }
    assert!(r3.penalty <= tol.gamma * r1.penalty + 1e-9);
    assert!(r3.penalty <= tol.lambda * r2.penalty + 1e-9);
}

#[test]
fn independent_3d_pipeline() {
    let ds = independent(8_000, 3, 101);
    run_all_solutions(&ds, &WorkloadSpec::paper_default(), 1);
}

#[test]
fn anticorrelated_3d_pipeline() {
    let ds = anticorrelated(8_000, 3, 102);
    run_all_solutions(&ds, &WorkloadSpec::paper_default(), 2);
}

#[test]
fn correlated_4d_pipeline() {
    let ds = correlated(6_000, 4, 103);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 2,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    run_all_solutions(&ds, &spec, 3);
}

#[test]
fn clustered_2d_pipeline() {
    let ds = clustered(6_000, 2, 6, 104);
    let spec = WorkloadSpec {
        k: 20,
        num_why_not: 3,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    run_all_solutions(&ds, &spec, 4);
}

#[test]
fn five_dimensional_pipeline() {
    let ds = independent(5_000, 5, 105);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 2,
        target_rank: 51,
        rank_tolerance: 0.8,
    };
    run_all_solutions(&ds, &spec, 5);
}

#[test]
fn deep_rank_pipeline() {
    // The Figure-10 stress: the query sits at rank ≈ 1001.
    let ds = independent(12_000, 3, 106);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 1,
        target_rank: 1001,
        rank_tolerance: 0.5,
    };
    run_all_solutions(&ds, &spec, 6);
}

#[test]
fn joint_beats_separate_on_synthetic_workloads() {
    // The §3 claim at scale: joint MWK's penalty ≤ the separate
    // per-vector refinement combined.
    let ds = independent(6_000, 3, 107);
    let tree = RTree::bulk_load(ds.dim, &ds.coords);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 3,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    let tol = Tolerances::paper_default();
    let mut joint_wins = 0;
    for seed in 0..5u64 {
        let case = build_case(&tree, &spec, seed + 10);
        let joint = mwk(&tree, &case.q, case.k, &case.why_not, 200, &tol, seed).unwrap();
        let sep =
            separate_refinement(&tree, &case.q, case.k, &case.why_not, 200, &tol, seed).unwrap();
        if joint.penalty <= sep.penalty + 1e-9 {
            joint_wins += 1;
        }
    }
    assert!(
        joint_wins >= 4,
        "joint refinement should win (almost) always, won {joint_wins}/5"
    );
}

#[test]
fn rta_equals_naive_on_generated_population() {
    use wqrtq::geom::{Point, Weight};
    use wqrtq::query::brtopk::{bichromatic_reverse_topk_naive, bichromatic_reverse_topk_rta};
    use wqrtq::query::ProbeCtx;
    let ds = independent(2_000, 3, 108);
    let tree = RTree::bulk_load(3, &ds.coords);
    let points: Vec<Point> = (0..ds.len())
        .map(|i| Point::new(ds.point(i).to_vec()))
        .collect();
    let weights: Vec<Weight> = (0..60)
        .map(|i| {
            let a = 0.1 + 0.8 * (i as f64 / 60.0);
            Weight::normalized(vec![a, 1.0 - a * 0.5, 0.5])
        })
        .collect();
    let q = [0.2, 0.2, 0.2];
    let mut ctx = ProbeCtx::new();
    for k in [1, 5, 20] {
        let naive = bichromatic_reverse_topk_naive(&points, &weights, &q, k);
        let rta = bichromatic_reverse_topk_rta(&tree, &weights, &q, k, &mut ctx);
        assert_eq!(naive, rta, "k = {k}");
    }
}

#[test]
fn bulk_loaded_tree_answers_alike_at_every_fanout() {
    // Query answers must be identical regardless of the fanout the index
    // was packed with: fanout 4 gives a deep tree, 64 a shallow one.
    let ds = independent(3_000, 3, 109);
    let reference = RTree::bulk_load(3, &ds.coords);
    let w = [0.3, 0.3, 0.4];
    let q = [0.15, 0.2, 0.1];
    let want: Vec<(u32, u64)> = reference
        .best_first(&w)
        .take(25)
        .map(|(id, s)| (id, s.to_bits()))
        .collect();
    for fanout in [4, 8, 64] {
        let tree = RTree::bulk_load_with_fanout(3, &ds.coords, fanout);
        tree.validate().unwrap();
        assert_eq!(tree.len(), ds.len(), "fanout {fanout}");
        assert_eq!(
            rank_of_point(&reference, &w, &q),
            rank_of_point(&tree, &w, &q),
            "fanout {fanout}"
        );
        let got: Vec<(u32, u64)> = tree
            .best_first(&w)
            .take(25)
            .map(|(id, s)| (id, s.to_bits()))
            .collect();
        assert_eq!(want, got, "fanout {fanout}");
    }

    // A gridded dataset with zeros of both signs and duplicate rows:
    // exact ties everywhere, so only the one order — score by
    // `total_cmp`, then id — makes the rankings fanout-independent.
    let mut state = 109u64;
    let mut grid: Vec<f64> = (0..600 * 3)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            match (state >> 33) % 6 {
                0 => -0.0,
                r => (r - 1) as f64,
            }
        })
        .collect();
    grid.extend_from_within(..90 * 3);
    let n = grid.len() / 3;
    let bits = |v: &[(u32, f64)]| -> Vec<(u32, u64)> {
        v.iter().map(|&(id, s)| (id, s.to_bits())).collect()
    };
    let mut scratch = ProbeScratch::new();
    for w in [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.25, 0.25, 0.5]] {
        let want = bits(&topk_scan(&grid, &w, n));
        for fanout in [4, 8, 64] {
            let tree = RTree::bulk_load_with_fanout(3, &grid, fanout);
            let walked: Vec<(u32, f64)> = tree.best_first(&w).collect();
            assert_eq!(bits(&walked), want, "best_first fanout {fanout} w {w:?}");
            let mut bounded = Vec::new();
            tree.topk_into(
                &w,
                n,
                |_| false,
                &mut scratch,
                |row, s| {
                    bounded.push((tree.point(row as usize).0, s));
                    true
                },
            );
            assert_eq!(bits(&bounded), want, "topk_into fanout {fanout} w {w:?}");
            for k in [1, 25, n] {
                let top = topk(&tree, &w, k);
                assert_eq!(bits(&top), want[..k], "topk fanout {fanout} w {w:?} k {k}");
            }
        }
    }
}
