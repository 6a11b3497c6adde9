//! Scouting with a 13-dimensional NBA-like dataset.
//!
//! A player's season line `q` (13 stat categories, minimisation form:
//! 0 = best) should appear in the top-k of several coaching staffs'
//! evaluation profiles, but does not. The why-not machinery explains
//! which competing seasons block each profile and computes the cheapest
//! training plan (MQP: which categories to improve and by how much) and
//! the cheapest scheme change (MWK: how the staff could re-weight).
//!
//! Run with: `cargo run --release --example nba_scouting`

use wqrtq::core::advisor::{StrategyKind, WhyNotOptions};
use wqrtq::core::framework::{RefinedQuery, Wqrtq, WqrtqAnswer};
use wqrtq::data::realistic::nba_like_scaled;
use wqrtq::geom::Weight;
use wqrtq::query::rank::rank_of_point;
use wqrtq::rtree::RTree;

const CATS: [&str; 13] = [
    "PTS", "REB", "AST", "STL", "BLK", "FG%", "3P%", "FT%", "MIN", "GP", "TOV", "PF", "+/-",
];

fn main() {
    let k = 25;
    let league = nba_like_scaled(8_000, 2024);
    let tree = RTree::bulk_load(league.dim, &league.coords);

    // Our player: the league's ~60th season by balanced score, slightly
    // improved (so q is not an exact dataset point). Close enough to the
    // top that modest changes can crack the shortlists.
    let balanced = Weight::uniform(13);
    let mut scored: Vec<(usize, f64)> = (0..league.len())
        .map(|i| (i, balanced.score(league.point(i))))
        .collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    let q: Vec<f64> = league
        .point(scored[60].0)
        .iter()
        .map(|c| (c * 0.97).max(0.0))
        .collect();

    // Three coaching profiles: offense-first, defense-first, balanced.
    let mut offense = vec![0.02; 13];
    offense[0] = 0.30; // PTS
    offense[2] = 0.25; // AST
    offense[6] = 0.23; // 3P%
    let mut defense = vec![0.02; 13];
    defense[1] = 0.28; // REB
    defense[3] = 0.25; // STL
    defense[4] = 0.25; // BLK
    let staffs = vec![
        ("offense-first", Weight::normalized(offense)),
        ("defense-first", Weight::normalized(defense)),
        ("balanced", Weight::uniform(13)),
    ];

    println!("player line vs league (top-{k} target):");
    for (name, w) in &staffs {
        let r = rank_of_point(&tree, w, &q);
        let verdict = if r <= k { "IN" } else { "out" };
        println!("  {name:14} rank {r:5} [{verdict}]");
    }

    // The why-not set: every profile that leaves the player out.
    let why_not: Vec<Weight> = staffs
        .iter()
        .filter(|(_, w)| rank_of_point(&tree, w, &q) > k)
        .map(|(_, w)| w.clone())
        .collect();
    if why_not.is_empty() {
        println!("no why-not profiles — nothing to refine");
        return;
    }
    println!("\n{} profile(s) exclude the player", why_not.len());

    let wqrtq = Wqrtq::new(&tree, &q, k).expect("dimensions match");
    // One strategy at a time: a one-strategy plan, checked as it comes.
    let refine = |strategy: StrategyKind, sample_size, query_samples| -> WqrtqAnswer {
        let options = WhyNotOptions {
            strategies: vec![strategy],
            sample_size,
            query_samples,
            seed: 7,
            ..WhyNotOptions::default()
        };
        let plan = wqrtq
            .advise(&why_not, &options)
            .expect("refinement succeeds");
        let step = plan.recommended();
        assert!(step.verified, "{} must verify", strategy.name());
        step.answer.clone()
    };

    // Training plan: MQP tells us which categories to improve.
    let answer = refine(StrategyKind::Mqp, 0, 0);
    if let RefinedQuery::QueryPoint { q_prime } = &answer.refined {
        println!("\ntraining plan (penalty {:.4}):", answer.penalty);
        for (i, (old, new)) in q.iter().zip(q_prime).enumerate() {
            let gain = old - new;
            if gain > 1e-4 {
                println!(
                    "  improve {:4} by {:5.1}% of the league scale",
                    CATS[i],
                    gain * 100.0
                );
            }
        }
    }

    // Alternative: how little would the staffs need to re-weight?
    let answer = refine(StrategyKind::Mwk, 600, 0);
    if let RefinedQuery::Preferences {
        why_not: refined,
        k: k2,
    } = &answer.refined
    {
        println!(
            "\nscheme change (penalty {:.4}, k′ = {k2}):",
            answer.penalty
        );
        for (orig, new) in why_not.iter().zip(refined) {
            let shift: f64 = orig
                .as_slice()
                .iter()
                .zip(new.as_slice())
                .map(|(a, b)| (a - b).abs())
                .sum();
            println!("  profile total weight shift: {shift:.4}");
        }
    }

    // And the negotiated compromise.
    let answer = refine(StrategyKind::Mqwk, 300, 300);
    println!(
        "\ncompromise penalty: {:.4} (never worse than either)",
        answer.penalty
    );
}
