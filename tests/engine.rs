//! Engine subsystem guarantees, exercised through the facade:
//! worker-count-independent batch results, epoch-driven cache
//! invalidation, and concurrent shared-index serving.

use wqrtq::data::figure1;
use wqrtq::data::synthetic::independent;
use wqrtq::prelude::*;

/// Options pinned to the sampled path (no exact-2D auto-selection); the
/// requests below narrow them to one strategy each.
fn sampled() -> WhyNotOptions {
    WhyNotOptions {
        exact_2d: false,
        ..WhyNotOptions::default()
    }
}

/// A mixed batch covering every request kind against two datasets.
fn mixed_batch() -> Vec<Request> {
    let mut batch = Vec::new();
    for i in 0..6 {
        let t = i as f64 / 6.0;
        batch.push(Request::TopK {
            dataset: "synthetic".into(),
            weight: vec![0.2 + 0.6 * t, 0.5 - 0.2 * t, 0.3 - 0.4 * t + 0.4 * t * t],
            k: 5 + i,
        });
        // The explanation slot; `k = 1` keeps every vector of the sweep
        // a genuine why-not vector (Dell always outranks q).
        batch.push(Request::WhyNot {
            dataset: "figure1".into(),
            q: vec![4.0, 4.0],
            k: 1,
            why_not: vec![vec![0.1 + 0.1 * t, 0.9 - 0.1 * t]],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mqp],
                culprit_limit: 8,
                ..sampled()
            },
        });
    }
    batch.push(Request::ReverseTopKMono {
        dataset: "figure1".into(),
        q: vec![4.0, 4.0],
        k: 3,
        samples: 0,
        seed: 0,
    });
    batch.push(Request::ReverseTopKMono {
        dataset: "synthetic".into(),
        q: vec![0.3, 0.3, 0.3],
        k: 10,
        samples: 400,
        seed: 11,
    });
    batch.push(Request::ReverseTopKBi {
        dataset: "figure1".into(),
        weights: WeightSet::Named("customers".into()),
        q: vec![4.0, 4.0],
        k: 3,
    });
    batch.push(Request::ReverseTopKBi {
        dataset: "figure1".into(),
        weights: WeightSet::Inline(vec![vec![0.25, 0.75], vec![0.75, 0.25]]),
        q: vec![4.0, 4.0],
        k: 4,
    });
    // A 400-weight population over the synthetic dataset: the RTA path
    // (similarity order + culprit pool), on whichever worker took it.
    batch.push(Request::ReverseTopKBi {
        dataset: "synthetic".into(),
        weights: WeightSet::Inline(
            (0..400)
                .map(|i| {
                    let x = 0.05 + 0.6 * (i as f64 / 400.0);
                    vec![x, 0.3, 0.7 - x]
                })
                .collect(),
        ),
        q: vec![0.07, 0.07, 0.07],
        k: 10,
    });
    for options in [
        WhyNotOptions {
            strategies: vec![StrategyKind::Mqp],
            ..sampled()
        },
        WhyNotOptions {
            strategies: vec![StrategyKind::Mwk],
            sample_size: 120,
            seed: 7,
            ..sampled()
        },
        WhyNotOptions {
            strategies: vec![StrategyKind::Mqwk],
            sample_size: 120,
            query_samples: 60,
            seed: 7,
            ..sampled()
        },
    ] {
        batch.push(Request::WhyNot {
            dataset: "figure1".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
            options,
        });
    }
    // One deliberate failure: responses must stay slot-aligned around it.
    batch.push(Request::TopK {
        dataset: "missing".into(),
        weight: vec![1.0],
        k: 1,
    });
    batch
}

fn populated_engine(workers: usize) -> Engine {
    let engine = Engine::builder()
        .workers(workers)
        .cache_capacity(64)
        .build();
    let fig = figure1::dataset();
    engine
        .register_dataset("figure1", 2, fig.flat_products())
        .unwrap();
    engine
        .register_weights("customers", fig.customers.clone())
        .unwrap();
    let ds = independent(3_000, 3, 42);
    engine.register_dataset("synthetic", 3, ds.coords).unwrap();
    engine
}

#[test]
fn batch_responses_are_worker_count_independent() {
    let baseline = populated_engine(1).submit_batch(mixed_batch());
    assert_eq!(baseline.len(), mixed_batch().len());
    // Exactly the deliberate failure errors, nothing else.
    assert_eq!(baseline.iter().filter(|r| r.is_error()).count(), 1);
    for workers in [2, 4, 8] {
        let responses = populated_engine(workers).submit_batch(mixed_batch());
        assert_eq!(
            baseline, responses,
            "responses diverged at {workers} workers"
        );
    }
}

#[test]
fn repeated_batches_are_stable_within_one_engine() {
    // Same engine, warm cache: the second pass must reproduce the first
    // (cache hits included) in order.
    let engine = populated_engine(4);
    let first = engine.submit_batch(mixed_batch());
    let second = engine.submit_batch(mixed_batch());
    assert_eq!(first, second);
    let m = engine.metrics();
    assert!(
        m.cache.hits > 0,
        "second pass should hit the result cache: {:?}",
        m.cache
    );
    // Requests are never split across workers; the two counters survive
    // only as always-zero slots of the `Stats` wire layout.
    assert_eq!((m.parallel_shards, m.sharded_requests), (0, 0));
}

#[test]
fn mutation_bumps_epoch_and_evicts_stale_entries() {
    let engine = populated_engine(2);
    let req = Request::TopK {
        dataset: "figure1".into(),
        weight: vec![0.5, 0.5],
        k: 3,
    };
    let before = engine.submit(req.clone());
    let epoch0 = engine.catalog().epoch("figure1").unwrap();
    assert_eq!((epoch0.base, epoch0.delta, epoch0.tombstones), (1, 0, 0));
    assert_eq!(engine.metrics().cache.len, 1);

    // A new dominating product (1, 0.5) must change the top-3 — and be
    // absorbed by the delta overlay, not a rebuild.
    assert_eq!(engine.append_points("figure1", &[1.0, 0.5]).unwrap(), 8);
    let epoch1 = engine.catalog().epoch("figure1").unwrap();
    assert_eq!((epoch1.base, epoch1.delta, epoch1.tombstones), (1, 1, 0));
    assert_eq!(
        engine.metrics().cache.len,
        0,
        "stale entries evicted on mutation"
    );

    let after = engine.submit(req.clone());
    assert_ne!(before, after, "post-mutation answer reflects the new point");
    match &after {
        Response::TopK(points) => {
            assert_eq!(points[0].0, 7, "appended point (id 7) now ranks first");
        }
        other => panic!("expected TopK, got {other:?}"),
    }
    // No stale hit was possible: the epoch moved, so the second submit
    // was a miss even though the fingerprint is identical.
    assert_eq!(engine.metrics().cache.hits, 0);

    // Re-registering the dataset bumps the epoch again.
    engine
        .register_dataset("figure1", 2, figure1::dataset().flat_products())
        .unwrap();
    assert_eq!(engine.catalog().epoch("figure1").unwrap().base, 2);
    let restored = engine.submit(req);
    assert_eq!(restored, before, "original dataset gives original answer");
}

#[test]
fn engine_refinements_match_direct_framework_calls() {
    // The engine is a serving layer, not a different algorithm: its
    // refinement responses must equal one-shot Wqrtq calls on the same
    // pre-built index.
    let engine = populated_engine(3);
    let fig = figure1::dataset();
    let tree = RTree::bulk_load(2, &fig.flat_products());
    let wqrtq = Wqrtq::new(&tree, &[4.0, 4.0], 3).unwrap();
    let why_not = vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])];

    let direct = wqrtq.modify_preferences(&why_not, 120, 7).unwrap();
    let served = engine.submit(Request::WhyNot {
        dataset: "figure1".into(),
        q: vec![4.0, 4.0],
        k: 3,
        why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
        options: WhyNotOptions {
            strategies: vec![StrategyKind::Mwk],
            sample_size: 120,
            seed: 7,
            ..sampled()
        },
    });
    match served {
        Response::Plan(plan) => {
            let r = &plan.recommended().refinement;
            assert!((r.penalty - direct.penalty).abs() < 1e-12);
            match direct.refined {
                RefinedQuery::Preferences { k, .. } => assert_eq!(r.k, Some(k)),
                other => panic!("MWK returns Preferences, got {other:?}"),
            }
        }
        other => panic!("expected a one-step plan, got {other:?}"),
    }
}

#[test]
fn concurrent_batches_share_one_index() {
    // Many threads hammering the same dataset: the index is built once
    // (lazily) and shared; every answer matches the single-threaded one.
    let engine = std::sync::Arc::new(populated_engine(4));
    let expected = engine.submit(Request::TopK {
        dataset: "synthetic".into(),
        weight: vec![0.3, 0.3, 0.4],
        k: 10,
    });
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                engine.submit(Request::TopK {
                    dataset: "synthetic".into(),
                    weight: vec![0.3, 0.3, 0.4],
                    k: 10,
                })
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), expected);
    }
}

#[test]
fn an_engine_dropped_on_its_own_worker_shuts_down() {
    // A completion closure may own the last `Arc<Engine>` (the server's
    // does): the engine is then dropped on the worker that ran it, which
    // must not try to join its own thread.
    use std::sync::mpsc;
    let topk = || Request::TopK {
        dataset: "synthetic".into(),
        weight: vec![0.3, 0.3, 0.4],
        k: 10,
    };
    let engine = std::sync::Arc::new(populated_engine(2));
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel();
    let held = engine.clone();
    engine.submit_with_progress(
        topk(),
        |_| {},
        move |response| {
            let _ = gate_rx.recv(); // until the test's own reference is gone
            drop(held);
            let _ = done_tx.send(response);
        },
    );
    drop(engine);
    gate_tx.send(()).unwrap();
    // A worker that panicked in `Engine::drop` unwinds past the send.
    let response = done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the worker survived dropping its engine");
    assert!(!response.is_error());
    assert_eq!(populated_engine(1).submit(topk()), response);
}
