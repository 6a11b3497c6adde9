//! Full why-not pipelines over the real-dataset surrogates (NBA 13-d,
//! Household 6-d) at reduced cardinality, plus robustness checks for
//! degenerate inputs across the crate boundaries.

use wqrtq::core::advisor::{StrategyKind, WhyNotOptions};
use wqrtq::core::framework::{Wqrtq, WqrtqAnswer};
use wqrtq::core::mqwk::mqwk;
use wqrtq::core::penalty::Tolerances;
use wqrtq::data::realistic::{household_like_scaled, nba_like_scaled};
use wqrtq::data::workload::{build_case, WorkloadSpec};
use wqrtq::geom::Weight;
use wqrtq::query::rank::rank_of_point;
use wqrtq::rtree::RTree;

/// The MQP refinement of a one-vector why-not set, from a one-strategy
/// plan.
fn mqp_only(wqrtq: &Wqrtq, w: &Weight) -> WqrtqAnswer {
    let options = WhyNotOptions {
        strategies: vec![StrategyKind::Mqp],
        ..WhyNotOptions::default()
    };
    let plan = wqrtq.advise(std::slice::from_ref(w), &options).unwrap();
    plan.recommended().answer.clone()
}

#[test]
fn nba_surrogate_pipeline() {
    let ds = nba_like_scaled(4_000, 31);
    let tree = RTree::bulk_load(ds.dim, &ds.coords);
    let spec = WorkloadSpec {
        k: 10,
        num_why_not: 2,
        target_rank: 101,
        rank_tolerance: 0.5,
    };
    let case = build_case(&tree, &spec, 11);
    let wqrtq = Wqrtq::new(&tree, &case.q, case.k).unwrap();
    let ranks = wqrtq.validate_why_not(&case.why_not).unwrap();
    assert_eq!(ranks, case.actual_ranks);
    let options = WhyNotOptions {
        sample_size: 120,
        query_samples: 80,
        seed: 5,
        ..WhyNotOptions::default()
    };
    for step in wqrtq.advise(&case.why_not, &options).unwrap().steps {
        let a = step.answer;
        assert!(wqrtq.verify(&case.why_not, &a), "unverified: {a:?}");
    }
}

#[test]
fn household_surrogate_pipeline() {
    let ds = household_like_scaled(6_000, 32);
    let tree = RTree::bulk_load(ds.dim, &ds.coords);
    let spec = WorkloadSpec {
        k: 20,
        num_why_not: 1,
        target_rank: 201,
        rank_tolerance: 0.5,
    };
    let case = build_case(&tree, &spec, 13);
    let tol = Tolerances::paper_default();
    let res = mqwk(&tree, &case.q, case.k, &case.why_not, 120, 80, &tol, 1).unwrap();
    for w in &res.refined {
        assert!(rank_of_point(&tree, w, &res.q_prime) <= res.k_prime);
    }
    assert!(res.penalty < 0.5, "penalty {}", res.penalty);
}

#[test]
fn facade_explains_on_thirteen_dimensions() {
    let ds = nba_like_scaled(2_000, 33);
    let tree = RTree::bulk_load(ds.dim, &ds.coords);
    // A mid-table point as the query product.
    let q: Vec<f64> = ds.point(999).iter().map(|c| c * 1.0001).collect();
    let wqrtq = Wqrtq::new(&tree, &q, 10).unwrap();
    let w = Weight::uniform(13);
    let e = wqrtq.explain(&w, 5);
    assert_eq!(e.rank, rank_of_point(&tree, &w, &q));
    assert!(e.culprits.len() <= 5);
    if e.rank > 6 {
        assert!(e.truncated);
    }
}

#[test]
fn degenerate_dataset_identical_points() {
    // All products identical: ranks collapse, nothing panics.
    let pts: Vec<f64> = std::iter::repeat_n([0.5, 0.5], 100).flatten().collect();
    let tree = RTree::bulk_load(2, &pts);
    let w = Weight::new(vec![0.4, 0.6]);
    // q worse than the clones: rank = 101.
    assert_eq!(rank_of_point(&tree, &w, &[0.9, 0.9]), 101);
    // q tied with the clones: rank 1 (ties don't count against q).
    assert_eq!(rank_of_point(&tree, &w, &[0.5, 0.5]), 1);
    // MQP still works: constraint is the shared score.
    let wqrtq = Wqrtq::new(&tree, &[0.9, 0.9], 3).unwrap();
    let a = mqp_only(&wqrtq, &w);
    assert!(wqrtq.verify(std::slice::from_ref(&w), &a));
}

#[test]
fn single_point_dataset() {
    let tree = RTree::bulk_load(3, &[0.2, 0.3, 0.4]);
    let w = Weight::uniform(3);
    assert_eq!(rank_of_point(&tree, &w, &[0.9, 0.9, 0.9]), 2);
    let wqrtq = Wqrtq::new(&tree, &[0.9, 0.9, 0.9], 1).unwrap();
    let a = mqp_only(&wqrtq, &w);
    assert!(wqrtq.verify(std::slice::from_ref(&w), &a));
}

#[test]
fn extreme_tolerances_are_respected() {
    // α = 1 makes k-changes dominate the preference penalty: MWK should
    // then prefer pure weight movement (Δk = 0) whenever it can.
    let ds = wqrtq::data::synthetic::independent(4_000, 2, 40);
    let tree = RTree::bulk_load(2, &ds.coords);
    let case = build_case(&tree, &WorkloadSpec::paper_default(), 3);
    let k_hater = Tolerances::new(1.0, 0.0, 0.5, 0.5);
    let res =
        wqrtq::core::mwk::mwk(&tree, &case.q, case.k, &case.why_not, 400, &k_hater, 1).unwrap();
    // With β = 0, any candidate with k′ = k costs zero; the scan must
    // find one (2-D tie weights always exist here).
    assert_eq!(res.k_prime, case.k, "α=1 should force k′ = k when possible");
    assert_eq!(res.penalty, 0.0);
}

#[test]
fn contradictory_qp_does_not_panic() {
    // Infeasible constraint sets cannot arise through the why-not API
    // (the origin is always feasible for non-negative data), but the QP
    // crate must stay graceful if a user hands one over directly.
    use wqrtq::qp::{solve, QpProblem};
    let mut p = QpProblem::least_change(&[1.0, 1.0]);
    p.add_inequality(vec![1.0, 0.0], -5.0); // x0 ≤ −5
    p.set_bounds(vec![0.0, 0.0], vec![1.0, 1.0]); // x0 ≥ 0: contradiction
    let sol = solve(&p).expect("no numerical panic");
    // The solver cannot certify optimality; it must say so.
    assert_ne!(sol.status, wqrtq::qp::QpStatus::Optimal);
    assert!(sol.max_violation > 1.0);
}
