//! `mqwk` skips most of Algorithm 3's work; this suite proves it skips
//! none of its answer.
//!
//! The oracles below are the paper's pseudo-code taken literally.
//! [`algorithm_2`] ranks every drawn weight with an uncapped count, cuts
//! at `k′max`, sorts and scans. [`algorithm_3`] runs it for the two
//! endpoints and for **every** sampled query point, each over a frontier
//! found by a fresh `FindIncom` traversal — no incumbent, no budget, no
//! reuse. The shipped functions must return the same penalty bits, the
//! same `q′`, `Wm′`, `k′` and the same winner family.
//!
//! The data sits on a coarse grid, so distinct points tie exactly and
//! repeat, `q` lands on data points, weights have zero entries (a
//! dominator need not score *strictly* below `q`), and the tolerances
//! include the γ = 0 and λ = 0 edges where one of Eq. 5's terms vanishes.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the case count (default 8 rounds of 16).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wqrtq_core::incomparable::DominanceFrontier;
use wqrtq_core::mqp::mqp;
use wqrtq_core::mqwk::{mqwk, RefinementSource};
use wqrtq_core::mwk::{mwk, mwk_with_frontier, Budget, MwkResult};
use wqrtq_core::penalty::{preference_penalty, query_point_penalty, Tolerances};
use wqrtq_core::sampling::{sample_query_points, WeightSampler};
use wqrtq_core::WhyNotError;
use wqrtq_geom::{DeltaView, FlatPoints, Weight};
use wqrtq_query::Snapshot;
use wqrtq_rtree::RTree;

fn cases() -> ProptestConfig {
    let rounds = std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(8);
    ProptestConfig::with_cases(16 * rounds.max(1))
}

/// Algorithm 2 as printed (plus the originals in the pool, as `mwk.rs`
/// documents): every sample ranked exactly, nothing skipped.
fn algorithm_2(
    frontier: &DominanceFrontier,
    k: usize,
    why_not: &[Weight],
    sample_size: usize,
    tol: &Tolerances,
    seed: u64,
) -> MwkResult {
    let ranks: Vec<usize> = why_not.iter().map(|w| frontier.rank_under(w)).collect();
    let k_max = ranks.iter().copied().max().expect("non-empty why-not set");
    let mut best = MwkResult {
        refined: why_not.to_vec(),
        k_prime: k,
        penalty: 0.0,
        k_max,
        actual_ranks: ranks.clone(),
        candidates_examined: 0,
    };
    if k_max <= k {
        return best;
    }
    let mut pool: Vec<(Weight, usize)> = WeightSampler::new(frontier, why_not, seed)
        .sample(sample_size)
        .into_iter()
        .map(|w| {
            let rank = frontier.rank_under(&w);
            (w, rank)
        })
        .collect();
    pool.extend(why_not.iter().cloned().zip(ranks));
    pool.retain(|(_, rank)| *rank <= k_max);
    pool.sort_by_key(|(_, rank)| *rank);
    best.candidates_examined = pool.len();
    best.k_prime = k_max;
    best.penalty = preference_penalty(tol, why_not, why_not, k, k_max, k_max);
    let mut cw = vec![pool[0].0.clone(); why_not.len()];
    for (j, (ws, rank)) in pool.iter().enumerate() {
        let mut updated = j == 0;
        for (original, held) in why_not.iter().zip(&mut cw) {
            if original.distance(ws) < original.distance(held) {
                *held = ws.clone();
                updated = true;
            }
        }
        let k_cand = (*rank).max(k);
        let pen = preference_penalty(tol, why_not, &cw, k, k_cand, k_max);
        if updated && pen < best.penalty {
            (best.refined, best.k_prime, best.penalty) = (cw.clone(), k_cand, pen);
        }
    }
    best
}

/// `(penalty bits, q′, Wm′, k′, winner family)`.
type Tuple = (u64, Vec<f64>, Vec<Weight>, usize, RefinementSource);

/// Algorithm 3 as printed: both endpoints and all `|Q|` samples, in
/// order, strict improvement only.
fn algorithm_3(case: &Case) -> Result<Tuple, WhyNotError> {
    let Case {
        q, k, why_not, tol, ..
    } = case;
    let (snap, (sample_size, query_samples)) = (case.snapshot(), case.samples);
    let qmin = mqp(snap, q, *k, why_not)?;
    let mut best = (
        tol.gamma * qmin.penalty,
        qmin.q_prime.clone(),
        why_not.to_vec(),
        *k,
        RefinementSource::QueryEndpoint,
    );
    let samples = sample_query_points(&qmin.q_prime, q, query_samples, case.seed ^ 0x9e37_79b9);
    let endpoint = (q, RefinementSource::PreferenceEndpoint);
    let sampled = samples.iter().map(|s| (s, RefinementSource::Sampled));
    for (i, (q_cand, source)) in std::iter::once(endpoint).chain(sampled).enumerate() {
        let fresh = DominanceFrontier::new(snap, q_cand);
        let seed = case.seed.wrapping_add(i as u64);
        let res = algorithm_2(&fresh, *k, why_not, sample_size, tol, seed);
        let pen = match source {
            RefinementSource::Sampled => {
                tol.gamma * query_point_penalty(q, q_cand) + tol.lambda * res.penalty
            }
            _ => tol.lambda * res.penalty,
        };
        if pen < best.0 {
            best = (pen, q_cand.clone(), res.refined, res.k_prime, source);
        }
    }
    Ok((best.0.to_bits(), best.1, best.2, best.3, best.4))
}

/// One randomly drawn why-not question over a small gridded dataset.
struct Case {
    tree: RTree,
    view: Option<DeltaView>,
    q: Vec<f64>,
    k: usize,
    why_not: Vec<Weight>,
    /// `(|S|, |Q|)`.
    samples: (usize, usize),
    tol: Tolerances,
    seed: u64,
}

impl Case {
    fn draw(seed: u64) -> Case {
        let rng = &mut StdRng::seed_from_u64(seed);
        let dim = rng.gen_range(2..5usize);
        let rows = |rng: &mut StdRng, n: usize| -> Vec<f64> {
            (0..n * dim).map(|_| rng.gen_range(0..7) as f64).collect()
        };
        let n = rng.gen_range(6..90usize);
        let base = rows(rng, n);
        let view = rng.gen::<bool>().then(|| {
            let appended = rng.gen_range(0..12usize);
            let dead: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<f64>() < 0.1).collect();
            let dead_rows = dead.iter().flat_map(|&id| {
                let at = id as usize * dim;
                base[at..at + dim].to_vec()
            });
            DeltaView::new(
                Arc::new(FlatPoints::from_row_major(dim, &base)),
                Arc::new(rows(rng, appended)),
                Arc::new((n as u32..(n + appended) as u32).collect()),
                Arc::new(dead_rows.collect()),
                Arc::new(dead),
            )
        });
        // On the grid (where it ties with data points and may equal one)
        // as often as off it; never the origin.
        let offset = if rng.gen::<bool>() { 1.0 } else { 1.5 };
        let q = (0..dim)
            .map(|_| offset + rng.gen_range(0..6) as f64)
            .collect();
        let weight = |rng: &mut StdRng| {
            let mut raw: Vec<f64> = (0..dim).map(|_| rng.gen_range(0..4) as f64).collect();
            raw[rng.gen_range(0..dim)] += 1.0;
            Weight::normalized(raw)
        };
        let why_not = (0..rng.gen_range(1..4usize)).map(|_| weight(rng)).collect();
        let share = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => 1.0,
            2 => 0.5,
            _ => rng.gen::<f64>(),
        };
        let (alpha, gamma) = (share(rng), share(rng));
        // |S| and |Q| from {0, 1, 50}, the full budget as often as not.
        let budget = |rng: &mut StdRng| [0, 1, 50, 50][rng.gen_range(0..4usize)];
        Case {
            tree: RTree::bulk_load(dim, &base),
            view,
            q,
            k: rng.gen_range(1..5usize),
            why_not,
            samples: (budget(rng), budget(rng)),
            tol: Tolerances::new(alpha, 1.0 - alpha, gamma, 1.0 - gamma),
            seed: rng.gen(),
        }
    }

    fn snapshot(&self) -> Snapshot<'_> {
        let snap = Snapshot::from(&self.tree);
        match &self.view {
            Some(view) => snap.overlay(view),
            None => snap,
        }
    }
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn mqwk_returns_what_literal_algorithm_3_returns(seed in 0u64..u64::MAX) {
        let case = Case::draw(seed);
        let (sample_size, query_samples) = case.samples;
        let got = mqwk(
            case.snapshot(),
            &case.q,
            case.k,
            &case.why_not,
            sample_size,
            query_samples,
            &case.tol,
            case.seed,
        );
        let oracle = algorithm_3(&case);
        prop_assert_eq!(got.as_ref().err(), oracle.as_ref().err());
        if let (Ok(got), Ok(oracle)) = (got, oracle) {
            prop_assert_eq!(
                got.candidates_evaluated + got.candidates_pruned,
                2 + query_samples
            );
            let got = (got.penalty.to_bits(), got.q_prime, got.refined, got.k_prime, got.source);
            prop_assert_eq!(got, oracle);
        }
    }

    #[test]
    fn mwk_returns_what_literal_algorithm_2_returns_within_any_budget(seed in 0u64..u64::MAX) {
        let case = Case::draw(seed);
        let Case { k, why_not, tol, .. } = &case;
        let sample_size = case.samples.0;
        let got = mwk(case.snapshot(), &case.q, *k, why_not, sample_size, tol, case.seed)
            .expect("dimensions match");
        let fresh = DominanceFrontier::new(case.snapshot(), &case.q);
        let oracle = algorithm_2(&fresh, *k, why_not, sample_size, tol, case.seed);
        let answer = |res: &MwkResult| (res.penalty.to_bits(), res.refined.clone(), res.k_prime);
        prop_assert_eq!(answer(&got), answer(&oracle));
        prop_assert_eq!(got.k_max, oracle.k_max);
        prop_assert_eq!(got.actual_ranks, oracle.actual_ranks);
        prop_assert_eq!(got.candidates_examined, oracle.candidates_examined);

        // Budgets are where pruning bites: the tightest incumbent the
        // oracle's answer still beats must yield that very answer, and one
        // it only ties must yield nothing that beats it either.
        let mut budget = Budget {
            floor: 0.25 * case.tol.gamma,
            lambda: case.tol.lambda,
            best: f64::INFINITY,
        };
        let price = budget.price(oracle.penalty);
        for (best, fits) in [(f64::from_bits(price.to_bits() + 1), true), (price, false)] {
            budget.best = best;
            let got = mwk_with_frontier(&fresh, *k, why_not, sample_size, tol, case.seed, &budget);
            if fits {
                prop_assert_eq!(answer(&got), answer(&oracle));
            } else {
                prop_assert!(budget.rules_out(got.penalty));
            }
        }
    }

    #[test]
    fn reclassifying_the_base_rows_equals_a_fresh_traversal(seed in 0u64..u64::MAX) {
        let case = Case::draw(seed);
        let base = DominanceFrontier::new(case.snapshot(), &case.q);
        // Points below q: random ones, q itself, and q rounded down onto
        // the grid (equal to, and tying with, data points).
        let origin = vec![0.0; case.q.len()];
        let mut below = sample_query_points(&origin, &case.q, 6, case.seed);
        below.push(case.q.clone());
        below.push(case.q.iter().map(|c| c.floor()).collect());
        for q_prime in &below {
            let reused = base.reclassify(q_prime);
            let fresh = DominanceFrontier::new(case.snapshot(), q_prime);
            prop_assert_eq!(reused.num_dominating(), fresh.num_dominating());
            prop_assert_eq!(reused.num_incomparable(), fresh.num_incomparable());
            // Member for member, in order: the sampler indexes `I`.
            for i in 0..fresh.num_incomparable() {
                prop_assert_eq!(reused.incomparable_point(i), fresh.incomparable_point(i));
            }
            for w in &case.why_not {
                prop_assert_eq!(reused.rank_under(w), fresh.rank_under(w));
            }
        }
    }
}
