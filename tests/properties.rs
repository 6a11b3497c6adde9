//! Property-based cross-crate invariants, randomising datasets, query
//! points and why-not sets.

use proptest::prelude::*;
use wqrtq::core::incomparable::DominanceFrontier;
use wqrtq::core::mqp::mqp;
use wqrtq::core::mwk::mwk;
use wqrtq::core::penalty::{preference_penalty, query_point_penalty, Tolerances};
use wqrtq::core::safe_region::SafeRegion;
use wqrtq::geom::Weight;
use wqrtq::query::rank::{rank_of_point, rank_of_point_scan};
use wqrtq::rtree::RTree;

fn dataset_strategy(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, (20 * dim)..(120 * dim)).prop_map(move |mut v| {
        v.truncate(v.len() / dim * dim);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mqp_refinement_always_valid_and_optimal_vs_corners(
        pts in dataset_strategy(3),
        wraw in proptest::collection::vec(0.05f64..1.0, 3),
        qraw in proptest::collection::vec(0.3f64..1.0, 3),
        k in 1usize..6,
    ) {
        let tree = RTree::bulk_load(3, &pts);
        prop_assume!(tree.len() >= k + 3);
        let w = Weight::normalized(wraw);
        let q = qraw;
        prop_assume!(rank_of_point(&tree, &w, &q) > k);
        let wm = vec![w.clone()];
        let res = mqp(&tree, &q, k, &wm).unwrap();
        // Validity: q′ enters the top-k.
        prop_assert!(rank_of_point(&tree, &w, &res.q_prime) <= k);
        // q′ lies in the safe region, and its penalty is no worse than the
        // trivially safe origin.
        let sr = SafeRegion::build(&tree, &q, k, &wm).unwrap();
        prop_assert!(sr.contains(&res.q_prime));
        prop_assert!(res.penalty <= query_point_penalty(&q, &[0.0, 0.0, 0.0]) + 1e-9);
    }

    #[test]
    fn frontier_rank_equals_scan_rank(
        pts in dataset_strategy(3),
        wraw in proptest::collection::vec(0.05f64..1.0, 3),
        qraw in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let tree = RTree::bulk_load(3, &pts);
        prop_assume!(!tree.is_empty());
        let w = Weight::normalized(wraw);
        let frontier = DominanceFrontier::new(&tree, &qraw);
        prop_assert_eq!(
            frontier.rank_under(&w),
            rank_of_point_scan(&pts, &w, &qraw)
        );
    }

    #[test]
    fn mwk_invariants(
        pts in dataset_strategy(2),
        qraw in proptest::collection::vec(0.4f64..1.0, 2),
        k in 1usize..5,
        sample_size in 0usize..120,
        seed in 0u64..1000,
    ) {
        let tree = RTree::bulk_load(2, &pts);
        prop_assume!(tree.len() >= k + 5);
        let w = Weight::new(vec![0.35, 0.65]);
        prop_assume!(rank_of_point(&tree, &w, &qraw) > k);
        let wm = vec![w];
        let tol = Tolerances::paper_default();
        let res = mwk(&tree, &qraw, k, &wm, sample_size, &tol, seed).unwrap();
        // k′ never exceeds k′max (Lemma 4) and never undercuts feasibility.
        prop_assert!(res.k_prime <= res.k_max);
        for rw in &res.refined {
            prop_assert!(rank_of_point(&tree, rw, &qraw) <= res.k_prime);
        }
        // Penalty is bounded by the k-only fallback (α = 0.5).
        prop_assert!(res.penalty <= 0.5 + 1e-9);
        // Penalty is consistent with its own components.
        let recomputed = preference_penalty(&tol, &wm, &res.refined, k, res.k_prime, res.k_max);
        prop_assert!((res.penalty - recomputed).abs() < 1e-9);
    }

    #[test]
    fn safe_region_membership_equals_topk_membership(
        pts in dataset_strategy(2),
        k in 1usize..5,
        cand in proptest::collection::vec(0.0f64..1.0, 2),
    ) {
        // Definition 7: x ∈ SR(q) ⟹ every why-not vector admits x.
        let tree = RTree::bulk_load(2, &pts);
        prop_assume!(tree.len() >= k + 3);
        let q = vec![1.0, 1.0];
        let wm = vec![Weight::new(vec![0.2, 0.8]), Weight::new(vec![0.7, 0.3])];
        let sr = SafeRegion::build(&tree, &q, k, &wm).unwrap();
        if sr.contains(&cand) {
            for w in &wm {
                prop_assert!(
                    rank_of_point(&tree, w, &cand) <= k,
                    "safe point not in top-{k}"
                );
            }
        }
    }

    #[test]
    fn query_penalty_is_a_scaled_metric(
        q in proptest::collection::vec(0.1f64..1.0, 3),
        a in proptest::collection::vec(0.0f64..1.0, 3),
        b in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        // Triangle inequality of the normalised distance.
        let ab = query_point_penalty(&q, &a);
        let bb = query_point_penalty(&q, &b);
        let d_ab = wqrtq::geom::l2_dist(&a, &b) / wqrtq::geom::l2_norm(&q);
        prop_assert!(ab <= bb + d_ab + 1e-9);
        prop_assert!(query_point_penalty(&q, &q) == 0.0);
    }

    #[test]
    fn qp_matches_exact_2d_geometry(
        pts in dataset_strategy(2),
        k in 1usize..6,
        qraw in proptest::collection::vec(0.5f64..1.0, 2),
        wraws in proptest::collection::vec((0.05f64..1.0, 0.05f64..1.0), 1..4),
    ) {
        // The interior-point QP of MQP and the Sutherland–Hodgman
        // safe-region polygon are two independent implementations of the
        // same optimisation problem; in 2-D they must agree.
        let tree = RTree::bulk_load(2, &pts);
        prop_assume!(tree.len() >= k + 3);
        let wm: Vec<Weight> = wraws
            .iter()
            .map(|(a, b)| Weight::normalized(vec![*a, *b]))
            .collect();
        prop_assume!(wm.iter().any(|w| rank_of_point(&tree, w, &qraw) > k));
        let res = mqp(&tree, &qraw, k, &wm).unwrap();
        let sr = SafeRegion::build(&tree, &qraw, k, &wm).unwrap();
        let exact = sr.closest_point_2d().expect("region non-empty for non-negative data");
        let d_qp = wqrtq::geom::l2_dist(&qraw, &res.q_prime);
        let d_exact = wqrtq::geom::l2_dist(&qraw, &exact);
        prop_assert!(
            (d_qp - d_exact).abs() < 1e-4,
            "QP distance {d_qp} vs exact polygon distance {d_exact}"
        );
    }

    #[test]
    fn preference_penalty_monotone_in_k_change(
        k_prime in 10usize..40,
    ) {
        let tol = Tolerances::paper_default();
        let wm = vec![Weight::new(vec![0.5, 0.5])];
        let k = 10;
        let k_max = 40;
        let p1 = preference_penalty(&tol, &wm, &wm, k, k_prime, k_max);
        let p2 = preference_penalty(&tol, &wm, &wm, k, k_prime + 1, k_max);
        prop_assert!(p2 >= p1);
        prop_assert!(p1 <= tol.alpha + 1e-12);
    }
}
