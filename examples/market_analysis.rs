//! Market analysis with bichromatic reverse top-k (the paper's §1 use
//! case at scale).
//!
//! A utility provider models 5,000 households' expenditure sensitivities
//! as weighting vectors and positions a new tariff bundle `q`. The
//! reverse top-k query finds households that would shortlist the bundle;
//! the why-not machinery then answers "how do we win back a lost
//! segment?" with minimum-penalty suggestions.
//!
//! Run with: `cargo run --release --example market_analysis`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wqrtq::core::advisor::WhyNotOptions;
use wqrtq::core::framework::{RefinedQuery, Wqrtq};
use wqrtq::data::realistic::household_like_scaled;
use wqrtq::geom::Weight;
use wqrtq::query::{bichromatic_reverse_topk_rta, rank_of_point, ProbeCtx};
use wqrtq::rtree::RTree;

fn main() {
    let k = 20;
    // Competing tariff bundles (6 cost attributes, smaller = better).
    let market = household_like_scaled(20_000, 11);
    let tree = RTree::bulk_load(market.dim, &market.coords);

    // Household sensitivity profiles: simplex weights around archetypes.
    let mut rng = StdRng::seed_from_u64(99);
    let customers: Vec<Weight> = (0..5_000)
        .map(|_| {
            let raw: Vec<f64> = (0..market.dim).map(|_| rng.gen_range(0.05..1.0)).collect();
            Weight::normalized(raw)
        })
        .collect();

    // Our bundle: competitive but not dominating.
    let q: Vec<f64> = {
        let base = market.point(4242);
        base.iter().map(|c| (c * 0.98).max(0.0)).collect()
    };

    // RTA on a caller-owned context, so its pruning counters can be
    // printed.
    let mut ctx = ProbeCtx::new();
    let result = bichromatic_reverse_topk_rta(&tree, &customers, &q, k, &mut ctx);
    let stats = ctx.rta;
    println!(
        "reverse top-{k}: {} of {} households shortlist the bundle",
        result.len(),
        customers.len()
    );
    println!(
        "  (RTA pruning: {} buffer rejections, {} index probes)",
        stats.buffer_prunes, stats.tree_verifications
    );

    // Pick a lost segment: the three non-result households whose rank of
    // q is closest to k (the most winnable).
    let mut lost: Vec<(usize, usize)> = (0..customers.len())
        .filter(|i| !result.contains(i))
        .map(|i| (i, rank_of_point(&tree, &customers[i], &q)))
        .collect();
    lost.sort_by_key(|&(_, r)| r);
    let segment: Vec<Weight> = lost
        .iter()
        .take(3)
        .map(|&(i, _)| customers[i].clone())
        .collect();
    println!(
        "\nwhy-not segment (ranks of q): {:?}",
        lost.iter().take(3).map(|&(_, r)| r).collect::<Vec<_>>()
    );

    let wqrtq = Wqrtq::new(&tree, &q, k).expect("dimensions match");

    for (i, w) in segment.iter().enumerate() {
        let e = wqrtq.explain(w, 3);
        println!(
            "  household {i}: q ranks {} — {} cheaper bundles (top culprit scores {:.4})",
            e.rank,
            e.rank - 1,
            e.culprits.first().map(|c| c.score).unwrap_or(f64::NAN)
        );
    }

    println!("\nrefinement options (penalty-ordered):");
    let options = WhyNotOptions {
        sample_size: 400,
        query_samples: 400,
        seed: 7,
        ..WhyNotOptions::default()
    };
    let plan = wqrtq
        .advise(&segment, &options)
        .expect("refinement succeeds");
    for step in &plan.steps {
        let a = &step.answer;
        match &a.refined {
            RefinedQuery::QueryPoint { q_prime } => {
                let cut: f64 = q.iter().zip(q_prime).map(|(a, b)| (a - b).max(0.0)).sum();
                println!(
                    "  reprice the bundle     penalty {:.4} (total attribute cut {:.4})",
                    a.penalty, cut
                );
            }
            RefinedQuery::Preferences { k: k2, .. } => println!(
                "  marketing campaign     penalty {:.4} (shift 3 profiles, k′ = {k2})",
                a.penalty
            ),
            RefinedQuery::Everything { k: k2, .. } => println!(
                "  combined strategy      penalty {:.4} (small reprice + nudge, k′ = {k2})",
                a.penalty
            ),
        }
        assert!(step.verified);
    }
    println!("\nall strategies verified against the index");
}
