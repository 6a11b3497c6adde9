//! Engine subsystem guarantees, exercised through the facade:
//! worker-count-independent batch results, epoch-driven cache
//! invalidation, and concurrent shared-index serving.

use wqrtq::core::{mwk, WhyNotError};
use wqrtq::data::figure1;
use wqrtq::data::synthetic::independent;
use wqrtq::engine::EngineError;
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
fn mutation_bumps_epoch_and_no_stale_entry_hits() {
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
    // refinement responses must equal the one-shot free functions on the
    // same pre-built index.
    let engine = populated_engine(3);
    let fig = figure1::dataset();
    let tree = RTree::bulk_load(2, &fig.flat_products());
    let why_not = vec![Weight::new(vec![0.1, 0.9]), Weight::new(vec![0.9, 0.1])];
    let tol = Tolerances::paper_default();

    let direct = mwk(&tree, &[4.0, 4.0], 3, &why_not, 120, &tol, 7).unwrap();
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
            assert_eq!(r.k, Some(direct.k_prime));
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

#[test]
fn a_why_not_at_the_origin_is_a_typed_error() {
    // Eq. 1 prices a moved query point relative to ‖q‖, so a plan for a
    // query point at the origin has no answer. With negative coordinates
    // in the data the origin is not safe, and the plan used to reach the
    // penalty's division and panic its worker.
    let engine = Engine::builder().workers(1).build();
    let points = vec![-1.0, 2.0, 3.0, -2.0, 1.0, 1.0, -0.5, -0.5, 2.0, 2.0];
    engine.register_dataset("signed", 2, points).unwrap();
    for q in [vec![0.0, 0.0], vec![-0.0, 0.0]] {
        let reply = engine.submit(Request::WhyNot {
            dataset: "signed".into(),
            q: q.clone(),
            k: 1,
            why_not: vec![vec![0.5, 0.5], vec![0.9, 0.1]],
            options: sampled(),
        });
        match reply {
            Response::Error(msg) => {
                assert!(!msg.contains("panicked"), "q = {q:?}: {msg}");
                assert_eq!(msg, WhyNotError::ZeroQueryPoint.to_string(), "q = {q:?}");
            }
            other => panic!("q = {q:?}: expected a typed error, got {other:?}"),
        }
    }
    // The worker that answered is still serving.
    let topk = engine.submit(Request::TopK {
        dataset: "signed".into(),
        weight: vec![0.5, 0.5],
        k: 2,
    });
    assert!(!topk.is_error(), "{topk:?}");
}

#[test]
fn a_huge_k_answers_as_k_equals_live_plus_one() {
    // With `n` live points, any `k > n` admits every weight, so each
    // `k > n + 1` must answer exactly as `k = n + 1`: no overlay-adjusted
    // count target may wrap (an empty answer in release, an overflow
    // panic in debug), and no `k` may be narrowed to a smaller integer.
    let engine = Engine::builder()
        .workers(1)
        .overlay_limit(usize::MAX)
        .build();
    for dim in [2usize, 3] {
        for shape in ["plain", "mid-overlay", "all-deleted"] {
            let name = format!("{shape}-{dim}d");
            let base: Vec<f64> = (0..4 * dim).map(|i| ((i * 7) % 5) as f64 + 1.0).collect();
            engine.register_dataset(&name, dim, base).unwrap();
            let n = match shape {
                "mid-overlay" => {
                    let appended: Vec<f64> = (0..2 * dim).map(|i| 0.5 + i as f64).collect();
                    engine.append_points(&name, &appended).unwrap();
                    engine.delete_points(&name, &[1, 5]).unwrap() // a base row, an appended row
                }
                "all-deleted" => engine.delete_points(&name, &[0, 1, 2, 3]).unwrap(),
                _ => 4,
            };
            let q = vec![2.0; dim];
            let batch = |k: usize| {
                vec![
                    Request::TopK {
                        dataset: name.clone(),
                        weight: vec![1.0 / dim as f64; dim],
                        k,
                    },
                    Request::ReverseTopKMono {
                        dataset: name.clone(),
                        q: q.clone(),
                        k,
                        samples: 64,
                        seed: 3,
                    },
                    Request::ReverseTopKBi {
                        dataset: name.clone(),
                        weights: WeightSet::Inline(
                            (1..4)
                                .map(|i| {
                                    let mut w =
                                        vec![(1.0 - 0.2 * i as f64) / (dim - 1) as f64; dim];
                                    w[0] = 0.2 * i as f64;
                                    w
                                })
                                .collect(),
                        ),
                        q: q.clone(),
                        k,
                    },
                ]
            };
            let reference = engine.submit_batch(batch(n + 1));
            assert!(
                reference.iter().all(|r| !r.is_error()),
                "{name}: {reference:?}"
            );
            for k in [n, n + 1, n + 2, usize::MAX - 1, usize::MAX] {
                let replies = engine.submit_batch(batch(k));
                for reply in &replies {
                    if let Response::Error(msg) = reply {
                        assert!(!msg.contains("panicked"), "{name} k = {k}: {msg}");
                    }
                }
                if k > n + 1 {
                    assert_eq!(replies, reference, "{name} k = {k}");
                }
            }
        }
    }
}

#[test]
fn hostile_bichromatic_requests_answer_as_the_naive_scan_named_or_inline() {
    // A named population is served from its score table up to `k = 10`,
    // an inline one by RTA: both must equal the naive scan over the live
    // rows at every `k` around the table depth and the live count, with
    // `q` a data point whose entries are ±0 and a denormal.
    use wqrtq::query::brtopk::bichromatic_reverse_topk_naive;
    let dim = 3;
    let tiny = f64::MIN_POSITIVE / 8.0;
    let coord = |g: usize, i: usize| match g {
        0 if i.is_multiple_of(2) => -0.0,
        0 => 0.0,
        1 => tiny,
        g => g as f64 * 0.25,
    };
    let q = vec![-0.0, tiny, 0.75];
    let mut base: Vec<f64> = (0..160)
        .flat_map(|i| {
            [
                coord(i * 7 % 9, i),
                coord(i * 5 % 9, i + 1),
                coord(i * 3 % 9, i),
            ]
        })
        .collect();
    base.extend_from_slice(&q);
    base.extend_from_slice(&[0.0, tiny, 0.75]);
    let n_base = base.len() / dim;
    let population: Vec<Weight> = (0..24)
        .map(|i| Weight::normalized(vec![(i % 5 + 1) as f64, (i % 3) as f64, (i % 4) as f64]))
        .chain([Weight::new(vec![-0.0, 0.5, 0.5])])
        .collect();
    let inline: Vec<Vec<f64>> = population.iter().map(|w| w.as_slice().to_vec()).collect();

    let engine = Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX)
        .build();
    engine.register_weights("pop", population.clone()).unwrap();
    let row = |rows: &[f64], i: usize| rows[i * dim..(i + 1) * dim].to_vec();
    for shape in ["plain", "mid-overlay", "all-deleted"] {
        engine.register_dataset(shape, dim, base.clone()).unwrap();
        let mut live: Vec<Vec<f64>> = (0..n_base).map(|i| row(&base, i)).collect();
        match shape {
            "mid-overlay" => {
                // Appended: copies of q and rows that beat it; deleted: the
                // best base rows under a uniform weight (inside most
                // weights' stored top-10) and two appended rows.
                let appended: Vec<f64> = (0..30)
                    .flat_map(|i| match i % 3 {
                        0 => q.clone(),
                        1 => vec![coord(i % 2, i), coord(0, i + 1), coord(i % 4 + 1, i)],
                        _ => vec![coord(i % 9, i), 1.0, coord(i % 7, i)],
                    })
                    .collect();
                engine.append_points(shape, &appended).unwrap();
                live.extend((0..30).map(|i| row(&appended, i)));
                let uniform = |p: &[f64]| p.iter().sum::<f64>();
                let mut best: Vec<usize> = (0..n_base).collect();
                best.sort_by(|&a, &b| uniform(&live[a]).total_cmp(&uniform(&live[b])));
                let mut dead: Vec<usize> = best[..20].to_vec();
                dead.extend([n_base + 4, n_base + 9]);
                let ids: Vec<u32> = dead.iter().map(|&i| i as u32).collect();
                engine.delete_points(shape, &ids).unwrap();
                dead.sort_unstable();
                for &i in dead.iter().rev() {
                    live.remove(i);
                }
            }
            "all-deleted" => {
                let ids: Vec<u32> = (0..n_base as u32).collect();
                engine.delete_points(shape, &ids).unwrap();
                live.clear();
            }
            _ => {}
        }
        let points: Vec<Point> = live.into_iter().map(Point::new).collect();
        let n = points.len();
        for k in [0, 1, 9, 10, 11, 32, 33, 128, 129, n, n + 1, usize::MAX] {
            let expected = Response::ReverseTopKBi(bichromatic_reverse_topk_naive(
                &points,
                &population,
                &q,
                k,
            ));
            for weights in [
                WeightSet::Named("pop".into()),
                WeightSet::Inline(inline.clone()),
            ] {
                let reply = engine.submit(Request::ReverseTopKBi {
                    dataset: shape.into(),
                    weights: weights.clone(),
                    q: q.clone(),
                    k,
                });
                if let Response::Error(msg) = &reply {
                    assert!(!msg.contains("panicked"), "{shape} k = {k}: {msg}");
                }
                assert_eq!(reply, expected, "{shape} k = {k} {weights:?}");
            }
        }
    }
    // The named replies with `k ≤ 10` after the `live + 1` clamp came
    // from one table per dataset.
    let builds = engine.metrics().stage_latency(Stage::TableBuild).count;
    assert_eq!(builds, 3);
}

#[test]
fn an_inline_vector_meets_the_rule_a_registered_one_does() {
    // `Weight::try_new` admits an entry down to −1e-9; an inline
    // population member and a why-not vector meet the same rule at the
    // request boundary, and what it refuses stays refused.
    let w = vec![1.0 + 5e-10, -5e-10];
    let engine = Engine::builder().workers(1).build();
    engine
        .register_dataset("d", 2, vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5])
        .unwrap();
    engine
        .register_weights("pop", vec![Weight::new(w.clone())])
        .unwrap();
    let bi = |weights| {
        engine.submit(Request::ReverseTopKBi {
            dataset: "d".into(),
            weights,
            q: vec![0.0, 1.0],
            k: 1,
        })
    };
    let named = bi(WeightSet::Named("pop".into()));
    assert_eq!(named, Response::ReverseTopKBi(vec![0]));
    assert_eq!(bi(WeightSet::Inline(vec![w.clone()])), named);
    let why_not = |v: Vec<f64>| {
        engine.submit(Request::WhyNot {
            dataset: "d".into(),
            q: vec![1.0, 0.0],
            k: 1,
            why_not: vec![v],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mqp],
                ..WhyNotOptions::default()
            },
        })
    };
    match why_not(w) {
        Response::Plan(plan) => assert_eq!(plan.explanations[0].rank, 3),
        other => panic!("a simplex why-not vector is answered: {other:?}"),
    }
    for bad in [vec![1.5, -0.5], vec![0.5, 0.25]] {
        assert!(
            bi(WeightSet::Inline(vec![bad.clone()])).is_error(),
            "{bad:?}"
        );
        assert!(why_not(bad.clone()).is_error(), "{bad:?}");
    }
}

#[test]
fn hostile_why_not_and_mono_requests_never_panic() {
    // `WhyNot` and `ReverseTopKMono` on every dataset shape with `q` a
    // data point, ±0, denormal, and entries whose square overflows or
    // nearly does; the why-not vectors carry −0.0 and denormal entries,
    // and the budgets are tiny. No reply may report a panic, and every
    // mono reply equals that of an engine holding only the live rows.
    let tiny = f64::MIN_POSITIVE / 8.0;
    let engine = Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX)
        .build();
    for dim in [2usize, 3] {
        let with_first = |first: f64, rest: f64| {
            let mut v = vec![rest; dim];
            v[0] = first;
            v
        };
        let why_not_sets = [
            vec![],
            vec![with_first(-0.0, 1.0 / (dim - 1) as f64)],
            vec![
                with_first(-0.0, 1.0 / (dim - 1) as f64),
                with_first(tiny, 1.0 / (dim - 1) as f64),
            ],
        ];
        for shape in ["plain", "mid-overlay", "all-deleted", "all-duplicate"] {
            let name = format!("{shape}-{dim}d");
            let base: Vec<f64> = match shape {
                "all-duplicate" => [1.5, 0.5, 2.0][..dim].repeat(6),
                _ => (0..6 * dim).map(|i| ((i * 7) % 5) as f64 * 0.5).collect(),
            };
            engine.register_dataset(&name, dim, base.clone()).unwrap();
            // The live rows in canonical order: base survivors, then
            // surviving appends.
            let live: Vec<f64> = match shape {
                "mid-overlay" => {
                    let appended: Vec<f64> = (0..3 * dim).map(|i| i as f64 * 0.3).collect();
                    engine.append_points(&name, &appended).unwrap();
                    // Base row 1 and appended row 7 (the appends are ids 6–8).
                    engine.delete_points(&name, &[1, 7]).unwrap();
                    let keep = |rows: &[f64], skip: usize| -> Vec<f64> {
                        rows.chunks_exact(dim)
                            .enumerate()
                            .filter(|&(i, _)| i != skip)
                            .flat_map(|(_, r)| r.to_vec())
                            .collect()
                    };
                    [keep(&base, 1), keep(&appended, 1)].concat()
                }
                "all-deleted" => {
                    engine.delete_points(&name, &[0, 1, 2, 3, 4, 5]).unwrap();
                    Vec::new()
                }
                _ => base.clone(),
            };
            let oracle = Engine::builder().workers(1).build();
            oracle.register_dataset(&name, dim, live.clone()).unwrap();
            let n = live.len() / dim;
            let sum = |r: &&[f64]| r.iter().sum::<f64>();
            let worst = base
                .chunks_exact(dim)
                .max_by(|a, b| sum(a).total_cmp(&sum(b)));
            let queries = [
                worst.unwrap().to_vec(),
                vec![-0.0; dim],
                with_first(-0.0, 0.75),
                vec![tiny; dim],
                with_first(tiny, 0.5),
                with_first(1e155, 0.5),
                with_first(1.3e154, 0.5),
                vec![1e300; dim],
            ];
            for k in [0, 1, 2, n, n + 1, usize::MAX] {
                let mono: Vec<Request> = queries
                    .iter()
                    .map(|q| Request::ReverseTopKMono {
                        dataset: name.clone(),
                        q: q.clone(),
                        k,
                        samples: 16,
                        seed: 3,
                    })
                    .collect();
                let why_not = queries.iter().flat_map(|q| {
                    why_not_sets.iter().map(|set| Request::WhyNot {
                        dataset: name.clone(),
                        q: q.clone(),
                        k,
                        why_not: set.clone(),
                        options: WhyNotOptions {
                            culprit_limit: 2,
                            sample_size: 4,
                            query_samples: 4,
                            seed: 1,
                            exact_2d: set.len() != 1,
                            ..WhyNotOptions::default()
                        },
                    })
                });
                let batch: Vec<Request> = mono.iter().cloned().chain(why_not).collect();
                let replies = engine.submit_batch(batch.clone());
                for (reply, request) in replies.iter().zip(&batch) {
                    if let Response::Error(msg) = reply {
                        assert!(!msg.contains("panicked"), "{name} {request:?}: {msg}");
                    }
                }
                let expected = oracle.submit_batch(mono.clone());
                for ((got, want), request) in replies.iter().zip(&expected).zip(&mono) {
                    assert_eq!(got, want, "{name} {request:?}");
                }
            }
        }
    }
}

#[test]
fn hostile_registrations_and_compactions_never_panic_and_a_refused_one_changes_nothing() {
    // `Register`, `RegisterWeights` and `Compact` requests through the
    // pool: dim 0, ragged, NaN and infinite coordinates, a replacement of
    // a live dataset with bad coordinates, empty, mixed-dimension, empty
    // and off-simplex populations, a taken population name, and
    // compactions of an unknown dataset. No reply may report a panic; a
    // refused request changes no epoch, name, population or answer.
    let engine = Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX)
        .build();
    let fig = figure1::dataset();
    let products = fig.flat_products();
    engine.register_dataset("p", 2, products.clone()).unwrap();
    engine
        .register_weights("customers", fig.customers.clone())
        .unwrap();
    engine.append_points("p", &[1.0, 0.5]).unwrap();
    let reads = || {
        vec![
            Request::TopK {
                dataset: "p".into(),
                weight: vec![0.5, 0.5],
                k: 3,
            },
            Request::ReverseTopKBi {
                dataset: "p".into(),
                weights: WeightSet::Named("customers".into()),
                q: vec![4.0, 4.0],
                k: 3,
            },
        ]
    };
    let state = |engine: &Engine| {
        let catalog = engine.catalog();
        let populations = ["customers", "fresh"].map(|name| {
            catalog
                .weights(name)
                .map(|ws| ws.iter().map(|w| w.to_vec()).collect::<Vec<_>>())
        });
        (
            catalog.dataset_names(),
            catalog.epoch("p").unwrap(),
            populations,
            engine.submit_batch(reads()),
        )
    };
    let before = state(&engine);
    let register = |dataset: &str, dim: usize, coords: Vec<f64>| Request::Register {
        dataset: dataset.into(),
        dim,
        coords,
    };
    let population = |name: &str, weights: Vec<Vec<f64>>| Request::RegisterWeights {
        name: name.into(),
        weights,
    };
    let refused = [
        register("fresh", 0, vec![1.0, 2.0]),
        register("fresh", 0, Vec::new()),
        register("fresh", 2, vec![1.0, 2.0, 3.0]),
        register("fresh", 3, vec![1.0, f64::NAN, 3.0]),
        register("fresh", 2, vec![1.0, f64::INFINITY]),
        register("p", 0, products.clone()),
        register("p", 2, products[..3].to_vec()),
        register("p", 2, [&products[..2], &[f64::NEG_INFINITY, 1.0]].concat()),
        population("fresh", vec![vec![0.5, 0.5], vec![0.2, 0.3, 0.5]]),
        population("fresh", vec![Vec::new()]),
        population("fresh", vec![vec![0.3, 0.3]]),
        population("fresh", vec![vec![f64::NAN, 1.0]]),
        population("fresh", vec![vec![1.5, -0.5]]),
        population("customers", vec![vec![0.5, 0.5]]),
        Request::Compact {
            dataset: "nope".into(),
        },
        Request::Compact {
            dataset: String::new(),
        },
    ];
    for request in &refused {
        let reply = engine.submit(request.clone());
        let Response::Error(msg) = &reply else {
            panic!("{request:?} was not refused: {reply:?}");
        };
        assert!(!msg.contains("panicked"), "{request:?}: {msg}");
        assert_eq!(state(&engine), before, "{request:?} changed something");
    }

    // The edge shapes the catalog accepts: an empty dataset, an empty
    // population, and the compaction of an overlay-free dataset.
    for (request, want) in [
        (
            register("empty", 3, Vec::new()),
            Response::Mutated { live_len: 0 },
        ),
        (
            population("none", Vec::new()),
            Response::Mutated { live_len: 0 },
        ),
        (
            Request::Compact {
                dataset: "empty".into(),
            },
            Response::Compacted { ran: false },
        ),
        (
            Request::Compact {
                dataset: "p".into(),
            },
            Response::Compacted { ran: true },
        ),
    ] {
        assert_eq!(engine.submit(request.clone()), want, "{request:?}");
    }
    for read in [
        Request::TopK {
            dataset: "empty".into(),
            weight: vec![0.2, 0.3, 0.5],
            k: 2,
        },
        Request::ReverseTopKBi {
            dataset: "p".into(),
            weights: WeightSet::Named("none".into()),
            q: vec![4.0, 4.0],
            k: 3,
        },
    ] {
        let reply = engine.submit(read.clone());
        assert!(
            matches!(&reply, Response::TopK(v) if v.is_empty())
                || matches!(&reply, Response::ReverseTopKBi(v) if v.is_empty()),
            "{read:?}: {reply:?}"
        );
    }
}

#[test]
fn hostile_topk_append_delete_and_stats_requests_never_panic() {
    // `TopK`, `Append`, `Delete` and `Stats` on empty, all-deleted,
    // all-duplicate and mid-overlay datasets. Weights have the wrong
    // dimension, ±0, denormal or 1e300 entries; appends are empty,
    // ragged, duplicate, collinear or carry the same extremes; deletes
    // repeat an id, name an unknown, dead or `u32::MAX` id, or are empty.
    // A NaN or ±inf append replies the in-process call's error, and so
    // does a population off the simplex.
    // No reply may report a panic, a mutation lands whole or not at all,
    // and after every step each `TopK` reply equals that of an engine
    // holding only the live rows, its dense ids mapped to stable ids —
    // every id and every score bit, ties (−0.0 and 0.0 among them)
    // included.
    let tiny = f64::MIN_POSITIVE / 8.0;
    let no_panic = |reply: &Response, what: &str| {
        if let Response::Error(msg) = reply {
            assert!(!msg.contains("panicked"), "{what}: {msg}");
        }
    };
    let engine = Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX)
        .build();
    let oracle = Engine::builder().workers(1).build();
    // A population off the simplex is refused with the catalog's typed
    // error (the in-process call takes `Weight`s, which cannot hold
    // one), and its name stays free.
    let lopsided = Request::RegisterWeights {
        name: "lopsided".into(),
        weights: vec![vec![0.5, 0.5], vec![0.5, 0.6]],
    };
    let refused = EngineError::InvalidWeight {
        field: "weight set",
    };
    assert_eq!(
        engine.submit(lopsided),
        Response::Error(refused.to_string())
    );
    let uniform = vec![Weight::new(vec![0.5, 0.5])];
    engine.register_weights("lopsided", uniform).unwrap();
    for dim in [2usize, 3] {
        let with_first = |first: f64, rest: f64| {
            let mut v = vec![rest; dim];
            v[0] = first;
            v
        };
        let weights = [
            vec![1.0 / dim as f64; dim],
            vec![0.5; dim + 1],
            Vec::new(),
            vec![-0.0; dim],
            with_first(-0.0, 1.0),
            with_first(tiny, 0.5),
            vec![tiny; dim],
            vec![1e300; dim],
            with_first(1e300, 0.0),
        ];
        for shape in ["empty", "all-deleted", "all-duplicate", "mid-overlay"] {
            let name = format!("{shape}-{dim}d");
            let base: Vec<f64> = match shape {
                "empty" => Vec::new(),
                "all-duplicate" => [1.5, 0.5, 2.0][..dim].repeat(6),
                _ => (0..6 * dim).map(|i| ((i * 7) % 5) as f64 * 0.5).collect(),
            };
            engine.register_dataset(&name, dim, base.clone()).unwrap();
            // A non-finite append is refused whole, with the text the
            // in-process call gives: the catalog checks it, once.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let points = with_first(bad, 1.0);
                let direct = engine.append_points(&name, &points).unwrap_err();
                let dataset = name.clone();
                let reply = engine.submit(Request::Append { dataset, points });
                assert_eq!(reply, Response::Error(direct.to_string()), "{name} {bad}");
            }
            // The live rows by stable id, in canonical order.
            let mut live: Vec<(u32, Vec<f64>)> = base
                .chunks_exact(dim)
                .enumerate()
                .map(|(i, row)| (i as u32, row.to_vec()))
                .collect();
            let mut next_id = live.len() as u32;
            let mut steps: Vec<Request> = match shape {
                "all-deleted" => vec![Request::Delete {
                    dataset: name.clone(),
                    ids: (0..6).collect(),
                }],
                "mid-overlay" => vec![
                    Request::Append {
                        dataset: name.clone(),
                        points: (0..3 * dim).map(|i| i as f64 * 0.3).collect(),
                    },
                    Request::Delete {
                        dataset: name.clone(),
                        ids: vec![1, 7],
                    },
                ],
                _ => Vec::new(),
            };
            let duplicate = base.get(..dim).map_or(vec![1.0; dim], <[f64]>::to_vec);
            let appends = [
                Vec::new(),
                vec![1.0; dim + 1],
                [duplicate.clone(), duplicate].concat(),
                (1..4).flat_map(|t| vec![t as f64 * 0.4; dim]).collect(),
                [vec![-0.0; dim], with_first(0.0, -0.0), vec![tiny; dim]].concat(),
                vec![1e300; dim],
            ];
            steps.extend(appends.into_iter().map(|points| Request::Append {
                dataset: name.clone(),
                points,
            }));
            let deletes = [
                Vec::new(),
                vec![0, 0],
                vec![u32::MAX],
                vec![next_id + 100],
                vec![2],
                vec![2],
                vec![next_id, next_id + 1, next_id],
                vec![next_id + 1],
            ];
            steps.extend(deletes.into_iter().map(|ids| Request::Delete {
                dataset: name.clone(),
                ids,
            }));
            for (step, request) in steps.iter().enumerate() {
                let reply = engine.submit(request.clone());
                let what = format!("{name} step {step} {request:?}");
                no_panic(&reply, &what);
                if let Response::Mutated { .. } = reply {
                    match request {
                        Request::Append { points, .. } => {
                            for row in points.chunks_exact(dim) {
                                live.push((next_id, row.to_vec()));
                                next_id += 1;
                            }
                        }
                        Request::Delete { ids, .. } => live.retain(|(id, _)| !ids.contains(id)),
                        _ => unreachable!(),
                    }
                }
                match reply {
                    Response::Mutated { live_len } => assert_eq!(live_len, live.len(), "{what}"),
                    Response::Error(_) => {}
                    other => panic!("{what}: {other:?}"),
                }
                let stats = engine.submit(Request::Stats);
                assert!(matches!(stats, Response::Stats(_)), "{what}: {stats:?}");

                let rows: Vec<f64> = live.iter().flat_map(|(_, row)| row.clone()).collect();
                let fresh = format!("{name}-{step}");
                oracle.register_dataset(&fresh, dim, rows).unwrap();
                let n = live.len();
                for weight in &weights {
                    for k in [0, 1, n, n + 1, usize::MAX] {
                        let topk = |dataset: &str| Request::TopK {
                            dataset: dataset.into(),
                            weight: weight.clone(),
                            k,
                        };
                        let got = engine.submit(topk(&name));
                        let what = format!("{what} TopK w {weight:?} k {k}");
                        no_panic(&got, &what);
                        let want = match oracle.submit(topk(&fresh)) {
                            Response::TopK(top) => Response::TopK(
                                top.into_iter()
                                    .map(|(i, s)| (live[i as usize].0, s))
                                    .collect(),
                            ),
                            other => other,
                        };
                        let (Response::TopK(got), Response::TopK(want)) = (&got, &want) else {
                            assert_eq!(got, want, "{what}");
                            continue;
                        };
                        let bits = |top: &[(u32, f64)]| -> Vec<(u32, u64)> {
                            top.iter().map(|&(id, s)| (id, s.to_bits())).collect()
                        };
                        assert_eq!(bits(got), bits(want), "{what}");
                    }
                }
            }
        }
    }
}
