//! Integration tests for the why-not advisor: plan optimality under
//! randomised workloads (the recommendation is minimal and every
//! alternative verifies), and the differential proof that a served
//! plan's steps and explanations are bit-identical to the free
//! functions (`mqp`, `mwk`, `mqwk`, `explain`) on the same index.

use proptest::prelude::*;
use std::sync::Arc;
use wqrtq::core::advisor::{StrategyKind, WhyNotOptions};
use wqrtq::core::framework::Wqrtq;
use wqrtq::core::penalty::Tolerances;
use wqrtq::core::{mqp, mqwk, mwk};
use wqrtq::engine::{
    Engine, PlanDelta, Refinement, Request, Response, WhyNotOptions as EngineOptions,
};
use wqrtq::geom::{DeltaView, FlatPoints, Weight};
use wqrtq::query::{rank::rank_of_point_scan, ProbeCtx, Snapshot};
use wqrtq::rtree::RTree;

const PRODUCTS_2D: [f64; 14] = [
    2.0, 1.0, 6.0, 3.0, 1.0, 9.0, 9.0, 3.0, 7.0, 5.0, 5.0, 8.0, 3.0, 7.0,
];

fn kevin_julia() -> Vec<Vec<f64>> {
    vec![vec![0.1, 0.9], vec![0.9, 0.1]]
}

fn figure1_engine() -> Engine {
    let engine = Engine::builder().workers(2).build();
    engine
        .register_dataset("products", 2, PRODUCTS_2D.to_vec())
        .unwrap();
    engine
}

fn dataset_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 60..240).prop_map(|mut v| {
        v.truncate(v.len() / 2 * 2);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The recommended refinement has minimal combined penalty among
    /// the returned alternatives, and every alternative passes
    /// `verify()` — on both the exact-2D and the sampled MWK paths.
    #[test]
    fn plan_recommendation_is_minimal_and_every_alternative_verifies(
        pts in dataset_strategy(),
        wraw in proptest::collection::vec(0.05f64..1.0, 2),
        qraw in proptest::collection::vec(0.3f64..1.0, 2),
        k in 1usize..5,
        exact in proptest::bool::ANY,
    ) {
        let tree = RTree::bulk_load(2, &pts);
        prop_assume!(tree.len() >= k + 3);
        let w = Weight::normalized(wraw);
        prop_assume!(rank_of_point_scan(&pts, &w, &qraw) > k);
        let view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(2, &pts)));
        let wqrtq = Wqrtq::new(Snapshot::from(&tree).overlay(&view), &qraw, k).unwrap();
        let wn = vec![w];
        let options = WhyNotOptions {
            sample_size: 80,
            query_samples: 40,
            seed: 7,
            exact_2d: exact,
            ..WhyNotOptions::default()
        };
        let plan = wqrtq.advise(&wn, &options).unwrap();
        prop_assert_eq!(plan.steps.len(), 3);
        // Ranked ascending, and the recommendation is the true minimum.
        let min = plan
            .steps
            .iter()
            .map(|s| s.answer.penalty)
            .fold(f64::INFINITY, f64::min);
        prop_assert!(plan.recommended().answer.penalty <= min + 1e-15);
        prop_assert!(plan
            .steps
            .windows(2)
            .all(|p| p[0].answer.penalty <= p[1].answer.penalty));
        for step in &plan.steps {
            prop_assert!(
                wqrtq.verify(&wn, &step.answer),
                "unverified {:?} (exact={})", step.strategy, exact
            );
            prop_assert!(step.verified);
            prop_assert!(step.answer.penalty >= 0.0);
            prop_assert_eq!(
                step.breakdown.combined.to_bits(),
                step.answer.penalty.to_bits()
            );
        }
    }
}

/// The free-function oracle for one strategy of a sampled-path plan:
/// `mqp`, `mwk` or `mqwk` over the catalog's shared index + view,
/// converted to plain data the way the worker does.
fn direct_oracle(
    engine: &Engine,
    q: &[f64],
    k: usize,
    why_not: &[Vec<f64>],
    kind: StrategyKind,
    options: &EngineOptions,
) -> Refinement {
    let handle = engine.catalog().handle("products").unwrap();
    let wn: Vec<Weight> = why_not.iter().map(|w| Weight::new(w.clone())).collect();
    let (snap, tol, seed) = (handle.snapshot(), &options.tol, options.seed);
    // Mirror the worker's plain-data conversion.
    let to_raw = |ws: Vec<Weight>| ws.into_iter().map(Weight::into_vec).collect::<Vec<_>>();
    match kind {
        StrategyKind::Mqp => {
            let res = mqp(snap, q, k, &wn).unwrap();
            Refinement {
                q_prime: Some(res.q_prime),
                why_not: None,
                k: None,
                penalty: res.penalty,
            }
        }
        StrategyKind::Mwk => {
            let res = mwk(snap, q, k, &wn, options.sample_size, tol, seed).unwrap();
            Refinement {
                q_prime: None,
                why_not: Some(to_raw(res.refined)),
                k: Some(res.k_prime),
                penalty: res.penalty,
            }
        }
        StrategyKind::Mqwk => {
            let (sample_size, query_samples) = (options.sample_size, options.query_samples);
            let res = mqwk(snap, q, k, &wn, sample_size, query_samples, tol, seed).unwrap();
            Refinement {
                q_prime: Some(res.q_prime),
                why_not: Some(to_raw(res.refined)),
                k: Some(res.k_prime),
                penalty: res.penalty,
            }
        }
    }
}

/// Each step of a sampled-path plan is bit-identical to the matching
/// free function, and each explanation to the core `explain` —
/// the engine is a serving layer, not a different algorithm.
#[test]
fn plan_steps_match_legacy_single_strategy_responses_bit_for_bit() {
    let engine = figure1_engine();
    let options = EngineOptions {
        culprit_limit: 10,
        sample_size: 96,
        query_samples: 24,
        seed: 11,
        exact_2d: false,
        ..EngineOptions::default()
    };
    let plan = match engine.submit(Request::WhyNot {
        dataset: "products".into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: kevin_julia(),
        options: options.clone(),
    }) {
        Response::Plan(plan) => plan,
        other => panic!("expected a plan, got {other:?}"),
    };
    for kind in StrategyKind::ALL {
        let refinement = direct_oracle(&engine, &[4.0, 4.0], 3, &kevin_julia(), kind, &options);
        let step = plan
            .steps
            .iter()
            .find(|s| s.strategy == kind)
            .unwrap_or_else(|| panic!("plan lacks a {kind:?} step"));
        assert_eq!(step.refinement, refinement, "{kind:?} drifted");
        // PartialEq on f64 fields would accept -0.0 vs 0.0; pin the bits.
        assert_eq!(
            step.refinement.penalty.to_bits(),
            refinement.penalty.to_bits()
        );
    }
    // The plan's explanations equal the core explanation path.
    let handle = engine.catalog().handle("products").unwrap();
    for (w, served) in kevin_julia().iter().zip(&plan.explanations) {
        let oracle =
            wqrtq::core::explain(handle.snapshot(), w, &[4.0, 4.0], 10, &mut ProbeCtx::new());
        assert_eq!(served.rank, oracle.rank);
        assert_eq!(served.truncated, oracle.truncated);
        let expected: Vec<(u32, f64)> = oracle.culprits.iter().map(|c| (c.id, c.score)).collect();
        assert_eq!(served.culprits, expected);
    }
}

/// Option validation fires at the engine's request boundary with typed
/// errors, before any index is touched.
#[test]
fn invalid_options_are_rejected_with_typed_errors() {
    let engine = figure1_engine();
    let base = |options: EngineOptions| Request::WhyNot {
        dataset: "products".into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: kevin_julia(),
        options,
    };
    let cases: Vec<(Request, &str)> = vec![
        (
            base(EngineOptions {
                tol: Tolerances {
                    alpha: f64::NAN,
                    beta: 0.5,
                    gamma: 0.5,
                    lambda: 0.5,
                },
                ..EngineOptions::default()
            }),
            "non-finite",
        ),
        (
            base(EngineOptions {
                tol: Tolerances {
                    alpha: -0.25,
                    beta: 1.25,
                    gamma: 0.5,
                    lambda: 0.5,
                },
                ..EngineOptions::default()
            }),
            "non-negative",
        ),
        (
            base(EngineOptions {
                tol: Tolerances {
                    alpha: 0.5,
                    beta: 0.5,
                    gamma: 0.9,
                    lambda: 0.9,
                },
                ..EngineOptions::default()
            }),
            "gamma + lambda",
        ),
        (
            base(EngineOptions {
                strategies: Vec::new(),
                ..EngineOptions::default()
            }),
            "strategy set is empty",
        ),
        // Hostile sampling budgets must die at the boundary — they
        // drive allocations and loops on the worker, so an unbounded
        // wire value could pin the pool or abort on allocation.
        (
            base(EngineOptions {
                sample_size: 1 << 40,
                ..EngineOptions::default()
            }),
            "sampling budget",
        ),
        (
            base(EngineOptions {
                query_samples: usize::MAX,
                ..EngineOptions::default()
            }),
            "sampling budget",
        ),
        (
            base(EngineOptions {
                strategies: vec![StrategyKind::Mwk],
                sample_size: 1 << 40,
                seed: 1,
                exact_2d: false,
                ..EngineOptions::default()
            }),
            "sampling budget",
        ),
        (
            Request::ReverseTopKMono {
                dataset: "products".into(),
                q: vec![4.0, 4.0],
                k: 3,
                samples: 1 << 40,
                seed: 1,
            },
            "sampling budget",
        ),
    ];
    for (request, needle) in cases {
        match engine.submit(request) {
            Response::Error(msg) => {
                assert!(msg.contains(needle), "error `{msg}` lacks `{needle}`");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }
    // Nothing was executed or cached.
    assert_eq!(engine.metrics().cache.len, 0);
}

/// A not-actually-why-not vector fails the plan with a typed error
/// naming the offending vector.
#[test]
fn member_vectors_fail_the_plan_with_a_typed_error() {
    let engine = figure1_engine();
    let response = engine.submit(Request::WhyNot {
        dataset: "products".into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: vec![vec![0.5, 0.5]], // Tony has q in his top-3
        options: EngineOptions::default(),
    });
    match response {
        Response::Error(msg) => assert!(msg.contains("not a why-not vector"), "{msg}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
}

/// Batch determinism extends to plans: the same WhyNot request answered
/// by engines with different worker counts is identical, including the
/// streamed deltas' reassembly into the final ranking.
#[test]
fn plans_are_deterministic_across_worker_counts() {
    let request = Request::WhyNot {
        dataset: "products".into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: kevin_julia(),
        options: EngineOptions {
            seed: 42,
            ..EngineOptions::default()
        },
    };
    let mut answers = Vec::new();
    for workers in [1, 4] {
        let engine = Engine::builder().workers(workers).build();
        engine
            .register_dataset("products", 2, PRODUCTS_2D.to_vec())
            .unwrap();
        answers.push(engine.submit(request.clone()));
    }
    assert_eq!(answers[0], answers[1]);

    // The streamed deltas agree with the final plan's contents.
    let engine = figure1_engine();
    let (tx, rx) = std::sync::mpsc::channel();
    let delta_tx = tx.clone();
    engine.submit_with_progress(
        request,
        move |delta| delta_tx.send(Err(delta)).unwrap(),
        move |response| tx.send(Ok(response)).unwrap(),
    );
    let mut deltas = Vec::new();
    let mut plan = None;
    for event in rx.iter() {
        match event {
            Err(delta) => deltas.push(delta),
            Ok(Response::Plan(p)) => plan = Some(p),
            Ok(other) => panic!("unexpected response {other:?}"),
        }
    }
    let plan = plan.expect("plan delivered");
    let streamed_steps: Vec<_> = deltas
        .iter()
        .filter_map(|d| match d {
            PlanDelta::Step(step) => Some(step.clone()),
            PlanDelta::Explained { .. } => None,
        })
        .collect();
    assert_eq!(streamed_steps.len(), plan.steps.len());
    for step in &plan.steps {
        assert!(
            streamed_steps.contains(step),
            "ranked step missing from the stream: {step:?}"
        );
    }
}
