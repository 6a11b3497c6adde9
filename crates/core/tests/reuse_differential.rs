//! MQWK's per-plan reuse ([`Reuse`]) against fresh `FindIncom`
//! traversals, and a plan's steps against the free functions.
//!
//! [`Reuse`] re-tests only the shell of the samples' box and picks each
//! anchor's culprits from rows listed once per plan. For every sampled
//! `q′` the re-classified frontier must equal `DominanceFrontier::new(snap,
//! q′)` member for member, and each anchor's culprits must equal a full
//! sweep of the score kernel over that fresh `I(q′)`.
//!
//! The data sits on a coarse grid (ties, duplicates), `q` is often a data
//! point, and overlays append rows just below `q` — rows that dominate
//! `q` and are promoted into `I(q′)` — and tombstone others. The `q′`
//! include `q` itself, MQP's `qmin`, and box samples with zero-width
//! dimensions; anchors carry zero and sub-EPS negative entries.
//!
//! `WQRTQ_FUZZ_ROUNDS` scales the case count (default 8 rounds of 16).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wqrtq_core::advisor::{StrategyKind, WhyNotOptions};
use wqrtq_core::incomparable::{DominanceFrontier, Reuse};
use wqrtq_core::mqp::mqp;
use wqrtq_core::mqwk::{mqwk, mqwk_with_frontier, MqwkResult};
use wqrtq_core::mwk::mwk;
use wqrtq_core::sampling::sample_query_points;
use wqrtq_core::{RefinedQuery, Wqrtq};
use wqrtq_geom::{score, DeltaView, FlatPoints, Weight};
use wqrtq_query::{rank_of_point, topk, Snapshot};
use wqrtq_rtree::RTree;

/// The benchmark's `k`.
const K: usize = 10;

fn cases() -> ProptestConfig {
    let rounds = std::env::var("WQRTQ_FUZZ_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .unwrap_or(8);
    ProptestConfig::with_cases(16 * rounds.max(1))
}

/// One base frontier, its sampled query points and anchors.
struct Case {
    tree: RTree,
    view: Option<DeltaView>,
    q: Vec<f64>,
    anchors: Vec<Weight>,
    samples: Vec<Vec<f64>>,
}

impl Case {
    fn draw(seed: u64) -> Case {
        let rng = &mut StdRng::seed_from_u64(seed);
        let dim = rng.gen_range(2..5usize);
        let grid = |rng: &mut StdRng| rng.gen_range(0..7) as f64;
        let n = rng.gen_range(6..90usize);
        let base: Vec<f64> = (0..n * dim).map(|_| grid(rng)).collect();
        // On a data point as often as off the grid; never the origin.
        let q: Vec<f64> = if rng.gen::<bool>() {
            let at = rng.gen_range(0..n) * dim;
            base[at..at + dim].iter().map(|c| c.max(1.0)).collect()
        } else {
            (0..dim).map(|_| 1.5 + grid(rng).min(5.0)).collect()
        };
        let view = rng.gen_range(0..4u32).ne(&0).then(|| {
            // Appends: grid rows, and rows a step below q that dominate
            // it and are promoted into I(q′) once q′ passes them.
            let appended = rng.gen_range(0..12usize);
            let mut rows = Vec::with_capacity(appended * dim);
            for _ in 0..appended {
                let below_q = rng.gen::<bool>();
                for &c in &q {
                    let step = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
                    rows.push(if below_q { c - step } else { grid(rng) });
                }
            }
            let dead: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<f64>() < 0.15).collect();
            let dead_rows = dead.iter().flat_map(|&id| {
                let at = id as usize * dim;
                base[at..at + dim].to_vec()
            });
            DeltaView::new(
                Arc::new(FlatPoints::from_row_major(dim, &base)),
                Arc::new(rows),
                Arc::new((n as u32..(n + appended) as u32).collect()),
                Arc::new(dead_rows.collect()),
                Arc::new(dead),
            )
        });
        let anchors: Vec<Weight> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                let mut raw: Vec<f64> = (0..dim).map(|_| rng.gen_range(0..4) as f64).collect();
                raw[rng.gen_range(0..dim)] += 1.0;
                let mut w = Weight::normalized(raw).into_vec();
                // A sub-EPS negative entry where a zero was, paid for by
                // the largest entry.
                if let Some(zero) = w.iter().position(|&x| x == 0.0) {
                    if rng.gen::<bool>() {
                        let top = (0..dim).max_by(|&a, &b| w[a].total_cmp(&w[b])).unwrap();
                        w[zero] = -1e-10;
                        w[top] += 1e-10;
                    }
                }
                Weight::new(w)
            })
            .collect();
        let mut case = Case {
            tree: RTree::bulk_load(dim, &base),
            view,
            q,
            anchors,
            samples: Vec::new(),
        };
        case.samples = case.draw_samples(rng);
        case
    }

    /// `q` itself, MQP's `qmin` (clamped below `q`), `q` rounded down onto
    /// the grid, `q` lowered in one dimension alone (where a sub-EPS
    /// negative entry scores `q′` above `q`), and box samples, some with
    /// zero-width dimensions.
    fn draw_samples(&self, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let q = &self.q;
        let k = rng.gen_range(1..5usize);
        let qmin: Vec<f64> = match mqp(self.snapshot(), q, k, &self.anchors) {
            Ok(res) => res.q_prime.iter().zip(q).map(|(a, b)| a.min(*b)).collect(),
            Err(_) => q.iter().map(|c| c - 1.0).collect(),
        };
        let mut samples = vec![
            q.clone(),
            qmin.clone(),
            q.iter().map(|c| c.floor()).collect(),
        ];
        for d in 0..q.len() {
            let mut lowered = q.clone();
            lowered[d] = if qmin[d] < q[d] { qmin[d] } else { q[d] - 0.5 };
            samples.push(lowered);
        }
        let pinned: Vec<f64> = qmin
            .iter()
            .zip(q)
            .map(|(lo, hi)| if rng.gen::<bool>() { *hi } else { *lo })
            .collect();
        samples.extend(sample_query_points(&pinned, q, 4, rng.gen()));
        samples.extend(sample_query_points(&qmin, q, 4, rng.gen()));
        samples
    }

    fn snapshot(&self) -> Snapshot<'_> {
        let snap = Snapshot::from(&self.tree);
        match &self.view {
            Some(view) => snap.overlay(view),
            None => snap,
        }
    }
}

fn members(f: &DominanceFrontier) -> Vec<&[f64]> {
    (0..f.num_incomparable())
        .map(|i| f.incomparable_point(i))
        .collect()
}

/// Each anchor's culprits by a full sweep of the score kernel over `I`.
fn swept_culprits(f: &DominanceFrontier, anchors: &[Weight]) -> Vec<Vec<u32>> {
    let dim = f.q().len();
    let rows: Vec<f64> = members(f).concat();
    let store = FlatPoints::from_row_major(dim, &rows);
    let mut scores = Vec::new();
    anchors
        .iter()
        .map(|w| {
            store.scores_into(w, &mut scores);
            let sq = score(w, f.q());
            (0..scores.len() as u32)
                .filter(|&i| scores[i as usize] < sq)
                .collect()
        })
        .collect()
}

/// How many samples of `case` re-classified with a row leaving `D` (for
/// `I`, unless it equals `q′`), and with a base row leaving `I`.
fn check(case: &Case) -> Result<(usize, usize), TestCaseError> {
    let base = DominanceFrontier::new(case.snapshot(), &case.q);
    let reuse = Reuse::new(&base, &case.samples, &case.anchors);
    prop_assert_eq!(reuse.culprits(&base), swept_culprits(&base, &case.anchors));
    let (mut promoted, mut removed) = (0, 0);
    for q_prime in &case.samples {
        let reused = reuse.reclassify(q_prime);
        let fresh = DominanceFrontier::new(case.snapshot(), q_prime);
        prop_assert_eq!(reused.num_dominating(), fresh.num_dominating());
        prop_assert_eq!(members(&reused), members(&fresh));
        let alone = base.reclassify(q_prime);
        prop_assert_eq!(alone.num_dominating(), fresh.num_dominating());
        prop_assert_eq!(members(&alone), members(&fresh));
        let culprits = reuse.culprits(&reused);
        prop_assert_eq!(&culprits, &swept_culprits(&fresh, &case.anchors));
        promoted += usize::from(reused.num_dominating() < base.num_dominating());
        removed += usize::from(reused.num_incomparable() < base.num_incomparable());
    }
    Ok((promoted, removed))
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn reuse_reclassifies_and_finds_culprits_as_fresh_traversals_do(seed in 0u64..u64::MAX) {
        check(&Case::draw(seed))?;
    }
}

#[test]
fn the_draws_promote_and_remove_rows() {
    let (mut promoted, mut removed) = (0, 0);
    for seed in 0..64 {
        let (p, r) = check(&Case::draw(seed)).expect("reuse equals fresh traversals");
        promoted += p;
        removed += r;
    }
    assert!(promoted > 0, "no sample promoted a dominator into I");
    assert!(removed > 0, "no sample removed a base row from I");
}

/// A why-not question shaped like `benchmark/`'s `whynot_plan`: `q` is
/// the 5th point under a pivot preference, nudged up by 1e-6, and each
/// why-not vector, walked from the pivot towards a random one, ranks `q`
/// within ±50 % of `target` (never in the top `K`).
fn benchmark_case(
    tree: &RTree,
    coords: &[f64],
    (target, m): (usize, usize),
    rng: &mut StdRng,
) -> (Vec<f64>, Vec<Weight>) {
    let simplex = |rng: &mut StdRng| {
        Weight::normalized(
            (0..3)
                .map(|_| rng.gen_range(0.01..1.0))
                .collect::<Vec<f64>>(),
        )
    };
    let (lo, hi) = (target.div_ceil(2).max(K + 1), (target * 3).div_ceil(2));
    loop {
        let pivot = simplex(rng);
        let id = topk(tree, &pivot, 5)[4].0 as usize;
        let q: Vec<f64> = coords[id * 3..id * 3 + 3]
            .iter()
            .map(|c| c * (1.0 + 1e-6))
            .collect();
        let mut why_not = Vec::new();
        for _ in 0..600 {
            if why_not.len() == m {
                return (q, why_not);
            }
            let far = simplex(rng);
            let (mut t_lo, mut t_hi) = (0.0f64, 1.0f64);
            for _ in 0..40 {
                let t = 0.5 * (t_lo + t_hi);
                let w: Vec<f64> = pivot
                    .iter()
                    .zip(far.iter())
                    .map(|(a, b)| (1.0 - t) * a + t * b)
                    .collect();
                let w = Weight::normalized(w);
                let r = rank_of_point(tree, &w, &q);
                if (lo..=hi).contains(&r) {
                    why_not.push(w);
                    break;
                }
                if r < lo {
                    t_lo = t;
                } else {
                    t_hi = t;
                }
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "six plans over IND 100k×3: ~1 s optimised, minutes unoptimised"
)]
fn advisor_steps_equal_the_free_functions_at_benchmark_scale() {
    // The advisor builds one frontier at the first strategy that needs
    // it and shares it between MWK and MQWK; the free functions each run
    // their own FindIncom. The answers must not tell the two apart.
    use wqrtq_data::synthetic::independent;
    let data = independent(100_000, 3, 2015);
    let tree = RTree::bulk_load(3, &data.coords);
    let view = DeltaView::plain(Arc::new(FlatPoints::from_row_major(3, &data.coords)));
    let snap = Snapshot::from(&tree).overlay(&view);
    let rng = &mut StdRng::seed_from_u64(2015);
    let shapes = [(11, 1), (101, 2), (501, 3), (11, 3), (101, 1), (501, 2)];
    for (i, shape) in shapes.into_iter().enumerate() {
        let (q, why_not) = benchmark_case(&tree, &data.coords, shape, rng);
        let options = WhyNotOptions {
            culprit_limit: 16,
            sample_size: 200,
            query_samples: 200,
            seed: 7 + i as u64,
            ..WhyNotOptions::default()
        };
        let (tol, seed) = (&options.tol, options.seed);
        let plan = Wqrtq::new(snap, &q, K)
            .unwrap()
            .advise(&why_not, &options)
            .unwrap();
        let step = |kind| {
            let step = plan.steps.iter().find(|s| s.strategy == kind).unwrap();
            assert!(step.verified, "case {i}: {kind:?} unverified");
            (step.answer.penalty.to_bits(), &step.answer.refined)
        };

        let free = mqp(snap, &q, K, &why_not).unwrap();
        let (bits, refined) = step(StrategyKind::Mqp);
        assert_eq!(bits, free.penalty.to_bits(), "case {i}: MQP penalty");
        assert!(
            matches!(refined, RefinedQuery::QueryPoint { q_prime } if *q_prime == free.q_prime)
        );

        let free = mwk(snap, &q, K, &why_not, 200, tol, seed).unwrap();
        let (bits, refined) = step(StrategyKind::Mwk);
        assert_eq!(bits, free.penalty.to_bits(), "case {i}: MWK penalty");
        assert!(
            matches!(refined, RefinedQuery::Preferences { why_not: w, k }
            if *w == free.refined && *k == free.k_prime)
        );

        let free = mqwk(snap, &q, K, &why_not, 200, 200, tol, seed).unwrap();
        let base = DominanceFrontier::new(snap, &q);
        let shared = mqwk_with_frontier(snap, &base, K, &why_not, 200, 200, tol, seed).unwrap();
        let tuple = |r: &MqwkResult| {
            let counts = (r.candidates_evaluated, r.candidates_pruned);
            (
                r.penalty.to_bits(),
                r.q_prime.clone(),
                r.refined.clone(),
                r.k_prime,
                r.source,
                counts,
            )
        };
        assert_eq!(
            tuple(&shared),
            tuple(&free),
            "case {i}: MQWK over a shared frontier"
        );
        let (bits, refined) = step(StrategyKind::Mqwk);
        assert_eq!(bits, free.penalty.to_bits(), "case {i}: MQWK penalty");
        assert!(
            matches!(refined, RefinedQuery::Everything { q_prime, why_not: w, k }
            if *q_prime == free.q_prime && *w == free.refined && *k == free.k_prime)
        );
    }
}
