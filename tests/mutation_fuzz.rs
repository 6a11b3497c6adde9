//! Differential fuzz for the delta-overlay mutation subsystem.
//!
//! Random interleavings of append / delete / compact / query are run
//! against two engines: the **overlay** engine mutates in place (delta
//! memtable + tombstones, `O(Δ)` per mutation, never a rebuild), the
//! **oracle** engine is rebuilt from scratch from the live rows before
//! every check. Every request kind must answer **bit-identically** —
//! scores compared by `f64` equality via `Response: PartialEq`, ids
//! compared through the stable-id table the canonical row order defines.
//!
//! This is the differential pattern that caught an unsound RTA prune in
//! PR 2 (its kernel-level form now lives in
//! `crates/query/tests/differential.rs`) — run here across the whole
//! mutation lifecycle.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the mutation rounds per seed (default 10;
//! the CI smoke run sets 3).

use wqrtq::engine::{Engine, Request, Response, WeightSet};
use wqrtq::prelude::{StrategyKind, WhyNotOptions};

/// Deterministic LCG, good enough to drive op choices and coordinates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }

    fn coord(&mut self) -> f64 {
        // Continuous coordinates: exact score ties across *distinct*
        // points have probability ~0, so ordering is well-defined.
        self.unit() * 10.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference model: live rows in canonical order with their stable
/// ids — exactly what the overlay engine's id space must look like.
struct Model {
    dim: usize,
    rows: Vec<(u32, Vec<f64>)>,
    next_id: u32,
}

impl Model {
    fn new(dim: usize, coords: &[f64]) -> Self {
        let rows = coords
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (i as u32, row.to_vec()))
            .collect::<Vec<_>>();
        let next_id = rows.len() as u32;
        Self { dim, rows, next_id }
    }

    fn append(&mut self, points: &[f64]) {
        for row in points.chunks_exact(self.dim) {
            self.rows.push((self.next_id, row.to_vec()));
            self.next_id += 1;
        }
    }

    fn delete(&mut self, id: u32) {
        self.rows.retain(|(i, _)| *i != id);
    }

    fn compact(&mut self) {
        for (pos, row) in self.rows.iter_mut().enumerate() {
            row.0 = pos as u32;
        }
        self.next_id = self.rows.len() as u32;
    }

    fn flat(&self) -> Vec<f64> {
        self.rows.iter().flat_map(|(_, c)| c.clone()).collect()
    }

    /// Oracle position → stable id.
    fn id_table(&self) -> Vec<u32> {
        self.rows.iter().map(|(id, _)| *id).collect()
    }
}

/// Rewrites the oracle's dense ids into the overlay's stable ids.
fn map_ids(response: Response, ids: &[u32]) -> Response {
    match response {
        Response::TopK(points) => Response::TopK(
            points
                .into_iter()
                .map(|(id, s)| (ids[id as usize], s))
                .collect(),
        ),
        Response::Plan(mut plan) => {
            for explanation in &mut plan.explanations {
                for (id, _) in &mut explanation.culprits {
                    *id = ids[*id as usize];
                }
            }
            Response::Plan(plan)
        }
        other => other,
    }
}

/// Options pinned to the sampled path (no exact-2D auto-selection); the
/// battery narrows them to one strategy per request.
fn sampled() -> WhyNotOptions {
    WhyNotOptions {
        exact_2d: false,
        ..WhyNotOptions::default()
    }
}

/// Every query kind against one dataset (population inline so both
/// engines see identical weights).
fn query_battery(dim: usize, rng: &mut Rng) -> Vec<Request> {
    let q: Vec<f64> = (0..dim).map(|_| rng.coord() * 0.6).collect();
    let normalize = |raw: Vec<f64>| {
        let s: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / s).collect::<Vec<f64>>()
    };
    let mut weights = Vec::new();
    for _ in 0..8 {
        weights.push(normalize((0..dim).map(|_| 0.05 + rng.unit()).collect()));
    }
    let mut batch = vec![
        Request::TopK {
            dataset: "d".into(),
            weight: weights[0].clone(),
            k: 1 + rng.below(6),
        },
        Request::TopK {
            dataset: "d".into(),
            weight: weights[1].clone(),
            k: 1000, // larger than the dataset: full enumeration
        },
        Request::ReverseTopKMono {
            dataset: "d".into(),
            q: q.clone(),
            k: 1 + rng.below(5),
            samples: 200,
            seed: rng.next(),
        },
        Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Inline(weights[..6].to_vec()),
            q: q.clone(),
            k: 1 + rng.below(5),
        },
        // The explanation slot. `k = 1` makes its vector a genuine
        // why-not vector in nearly every round (`q` would have to be the
        // top-1 point), so the culprit ids really get compared.
        Request::WhyNot {
            dataset: "d".into(),
            q: q.clone(),
            k: 1,
            why_not: vec![weights[6].clone()],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mqp],
                culprit_limit: 1 + rng.below(8),
                ..sampled()
            },
        },
    ];
    let why_not = vec![weights[7].clone()];
    for options in [
        WhyNotOptions {
            strategies: vec![StrategyKind::Mqp],
            ..sampled()
        },
        WhyNotOptions {
            strategies: vec![StrategyKind::Mwk],
            sample_size: 40,
            seed: 9,
            ..sampled()
        },
        WhyNotOptions {
            strategies: vec![StrategyKind::Mqwk],
            sample_size: 30,
            query_samples: 10,
            seed: 5,
            ..sampled()
        },
    ] {
        batch.push(Request::WhyNot {
            dataset: "d".into(),
            q: q.clone(),
            k: 1 + rng.below(4),
            why_not: why_not.clone(),
            options,
        });
    }
    batch
}

fn fuzz_rounds() -> usize {
    std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// One fuzz run: mutate the overlay engine at random, and at every
/// checkpoint rebuild an oracle engine from the model and compare the
/// full query battery response-for-response.
fn run_fuzz(dim: usize, seed: u64) {
    let mut rng = Rng(seed | 1);
    let n0 = 40 + rng.below(120);
    let coords: Vec<f64> = (0..n0 * dim).map(|_| rng.coord()).collect();
    let mut model = Model::new(dim, &coords);

    // Manual compaction only: automatic merges are timing-dependent and
    // would desynchronise the model's id bookkeeping.
    let overlay = Engine::builder()
        .workers(2)
        .overlay_limit(usize::MAX)
        .build();
    overlay.register_dataset("d", dim, coords).unwrap();
    let mut plans_compared = 0usize;

    for round in 0..fuzz_rounds() {
        // A burst of random mutations.
        for _ in 0..(1 + rng.below(6)) {
            match rng.below(100) {
                0..=44 => {
                    let rows = 1 + rng.below(3);
                    let pts: Vec<f64> = (0..rows * dim).map(|_| rng.coord()).collect();
                    model.append(&pts);
                    let r = overlay.submit(Request::Append {
                        dataset: "d".into(),
                        points: pts,
                    });
                    assert_eq!(
                        r,
                        Response::Mutated {
                            live_len: model.rows.len()
                        },
                        "seed {seed} round {round}: append"
                    );
                }
                45..=74 => {
                    if model.rows.len() > 5 {
                        let victim = model.rows[rng.below(model.rows.len())].0;
                        model.delete(victim);
                        let r = overlay.submit(Request::Delete {
                            dataset: "d".into(),
                            ids: vec![victim],
                        });
                        assert_eq!(
                            r,
                            Response::Mutated {
                                live_len: model.rows.len()
                            },
                            "seed {seed} round {round}: delete {victim}"
                        );
                    }
                }
                _ => {
                    let (overlay_rows, _) = overlay.catalog().overlay_size("d").unwrap();
                    let compacted = overlay.compact("d").unwrap();
                    assert_eq!(
                        compacted,
                        overlay_rows > 0,
                        "seed {seed} round {round}: compact must merge iff an overlay exists"
                    );
                    if compacted {
                        model.compact();
                    }
                }
            }
        }

        // Checkpoint: rebuild the oracle from scratch and compare, which
        // proves the overlay decomposition bit-identical to the rebuilt
        // reference.
        let oracle = Engine::builder().workers(1).build();
        oracle.register_dataset("d", dim, model.flat()).unwrap();
        let ids = model.id_table();
        let battery = query_battery(dim, &mut rng);
        let got = overlay.submit_batch(battery.clone());
        let expected = oracle.submit_batch(battery.clone());
        for ((g, e), request) in got.into_iter().zip(expected).zip(&battery) {
            let e = map_ids(e, &ids);
            plans_compared += usize::from(matches!(g, Response::Plan(_)));
            assert_eq!(
                g, e,
                "seed {seed} round {round}: overlay diverged from rebuilt \
                 oracle on {request:?}"
            );
        }
    }
    assert!(
        plans_compared > 0,
        "seed {seed}: every why-not request errored — no plan was ever compared"
    );
    // The overlay must actually have served through its overlay at some
    // point (otherwise this fuzz proves nothing).
    let m = overlay.metrics();
    assert!(
        m.delta_hits > 0,
        "seed {seed}: no request ever saw a non-plain overlay"
    );
    // The only builds are explicit compactions plus at most one lazy
    // first build (zero when a compaction landed before any query — it
    // installs its merged index directly, so the lazy build never runs).
    assert!(
        m.catalog.index_builds >= m.catalog.compactions
            && m.catalog.index_builds <= m.catalog.compactions + 1,
        "seed {seed}: unexpected builds: {:?}",
        m.catalog
    );
}

#[test]
fn mutation_sequences_match_rebuilt_oracle_2d() {
    // 2-D exercises the exact monochromatic sweep over materialised
    // live rows.
    for seed in [1, 2, 3] {
        run_fuzz(2, seed);
    }
}

#[test]
fn mutation_sequences_match_rebuilt_oracle_3d() {
    // 3-D exercises the sampled monochromatic estimate and the generic
    // kernels.
    for seed in [4, 5] {
        run_fuzz(3, seed);
    }
}

#[test]
fn large_population_over_overlay_matches_oracle() {
    // The culprit-pool RTA over a mutated overlay — its corrections
    // must survive a 400-weight population.
    let mut rng = Rng(77);
    let n = 3000;
    let coords: Vec<f64> = (0..n * 2).map(|_| rng.coord()).collect();
    let mut model = Model::new(2, &coords);
    let overlay = Engine::builder()
        .workers(4)
        .overlay_limit(usize::MAX)
        .build();
    overlay.register_dataset("d", 2, coords).unwrap();
    // Mutate: 40 appends, 30 deletes.
    let pts: Vec<f64> = (0..40 * 2).map(|_| rng.coord()).collect();
    model.append(&pts);
    overlay.append_points("d", &pts).unwrap();
    let victims: Vec<u32> = (0..30)
        .map(|_| model.rows[rng.below(model.rows.len())].0)
        .fold(Vec::new(), |mut acc, id| {
            if !acc.contains(&id) {
                acc.push(id);
            }
            acc
        });
    for &id in &victims {
        model.delete(id);
    }
    overlay.delete_points("d", &victims).unwrap();

    let oracle = Engine::builder().workers(1).build();
    oracle.register_dataset("d", 2, model.flat()).unwrap();

    let population: Vec<Vec<f64>> = (0..400)
        .map(|i| {
            let x = 0.02 + 0.96 * (i as f64 / 400.0);
            vec![x, 1.0 - x]
        })
        .collect();
    for k in [1, 5, 12] {
        let request = Request::ReverseTopKBi {
            dataset: "d".into(),
            weights: WeightSet::Inline(population.clone()),
            q: vec![2.0, 2.5],
            k,
        };
        let got = overlay.submit(request.clone());
        let expected = oracle.submit(request);
        assert_eq!(got, expected, "k {k}");
    }
    let m = overlay.metrics();
    assert_eq!(m.catalog.index_builds, 1, "no rebuild despite mutations");
}

#[test]
fn append_to_indexed_100k_dataset_never_rebuilds() {
    // The acceptance gate: one appended point on a large indexed
    // dataset costs O(Δ), not a bulk_load.
    let mut rng = Rng(2015);
    let n = 100_000;
    let coords: Vec<f64> = (0..n * 2).map(|_| rng.coord()).collect();
    let engine = Engine::builder().workers(2).build();
    engine.register_dataset("big", 2, coords).unwrap();
    engine.catalog().handle("big").unwrap(); // lazy build now
    assert_eq!(engine.metrics().catalog.index_builds, 1);

    assert_eq!(engine.append_points("big", &[0.001, 0.001]).unwrap(), n + 1);
    let top = engine.submit(Request::TopK {
        dataset: "big".into(),
        weight: vec![0.5, 0.5],
        k: 3,
    });
    match &top {
        Response::TopK(points) => {
            assert_eq!(points[0].0, n as u32, "appended point must rank first");
        }
        other => panic!("expected TopK, got {other:?}"),
    }
    let m = engine.metrics();
    assert_eq!(m.catalog.index_builds, 1, "append must not bulk_load");
    assert_eq!(m.catalog.rebuilds_avoided, 1);
    assert_eq!(m.catalog.compactions, 0);
    assert_eq!(m.delta_hits, 1);
}
