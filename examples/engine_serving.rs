//! Serving a mixed batch through the concurrent engine.
//!
//! Registers the paper's Figure-1 example and a synthetic 3-D dataset in
//! the catalog, fans a mixed batch (every query kind) across a
//! multi-worker [`Engine`], re-submits it to show the result cache at
//! work, and prints the metrics snapshot.
//!
//! ```text
//! cargo run --release --example engine_serving
//! ```

use wqrtq::data::figure1;
use wqrtq::data::synthetic::independent;
use wqrtq::prelude::*;

fn main() {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let engine = Engine::builder()
        .workers(workers)
        .cache_capacity(128)
        .build();

    // Catalog: the Figure-1 running example + a 20K-point synthetic set.
    let fig = figure1::dataset();
    engine
        .register_dataset("figure1", 2, fig.flat_products())
        .expect("register figure1");
    engine
        .register_weights("customers", fig.customers.clone())
        .expect("register customers");
    let ds = independent(20_000, 3, 2015);
    engine
        .register_dataset("synthetic", 3, ds.coords)
        .expect("register synthetic");

    // A mixed batch: every request kind, two datasets.
    let mut batch = vec![
        Request::TopK {
            dataset: "figure1".into(),
            weight: vec![0.5, 0.5],
            k: 3,
        },
        Request::ReverseTopKBi {
            dataset: "figure1".into(),
            weights: WeightSet::Named("customers".into()),
            q: vec![4.0, 4.0],
            k: 3,
        },
        Request::ReverseTopKMono {
            dataset: "figure1".into(),
            q: vec![4.0, 4.0],
            k: 3,
            samples: 0,
            seed: 0,
        },
        // One strategy only: explain Kevin's omission, fix it by moving q.
        Request::WhyNot {
            dataset: "figure1".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9]],
            options: WhyNotOptions {
                strategies: vec![StrategyKind::Mqp],
                culprit_limit: 5,
                ..WhyNotOptions::default()
            },
        },
        // The whole question: every strategy, ranked cheapest-first.
        Request::WhyNot {
            dataset: "figure1".into(),
            q: vec![4.0, 4.0],
            k: 3,
            why_not: vec![vec![0.1, 0.9], vec![0.9, 0.1]],
            options: WhyNotOptions {
                seed: 7,
                ..WhyNotOptions::default()
            },
        },
    ];
    for i in 0..24 {
        let t = i as f64 / 24.0;
        batch.push(Request::TopK {
            dataset: "synthetic".into(),
            weight: vec![0.2 + 0.5 * t, 0.5 - 0.3 * t, 0.3 - 0.2 * t],
            k: 10,
        });
    }

    println!(
        "submitting a batch of {} requests over {} workers…\n",
        batch.len(),
        engine.worker_count()
    );
    let responses = engine.submit_batch(batch.clone());

    describe("TOP3(Tony) on Figure 1", &responses[0], &fig);
    describe("BRTOP3(Apple) population", &responses[1], &fig);
    describe("MRTOP3(Apple) intervals", &responses[2], &fig);
    describe("Why-not Kevin, MQP only", &responses[3], &fig);
    describe("Why-not Kevin + Julia, full plan", &responses[4], &fig);

    // Second pass: identical batch, now served from the result cache.
    let again = engine.submit_batch(batch);
    assert_eq!(responses, again, "cache must be transparent");

    println!("\n{}", engine.metrics());
}

fn describe(label: &str, response: &Response, fig: &figure1::Figure1) {
    match response {
        Response::TopK(points) => {
            let names: Vec<&str> = points
                .iter()
                .map(|&(id, _)| fig.product_names[id as usize])
                .collect();
            println!("{label}: {names:?}");
        }
        Response::ReverseTopKBi(members) => {
            let names: Vec<&str> = members.iter().map(|&i| fig.customer_names[i]).collect();
            println!("{label}: {names:?}");
        }
        Response::MonoExact(intervals) => {
            let pretty: Vec<String> = intervals
                .iter()
                .map(|(lo, hi)| format!("[{lo:.3}, {hi:.3}]"))
                .collect();
            println!("{label}: qualifying w₁ ranges {pretty:?}");
        }
        Response::MonoSampled {
            volume_fraction, ..
        } => println!(
            "{label}: ≈{:.1}% of the weight simplex",
            100.0 * volume_fraction
        ),
        Response::Plan(plan) => {
            for explanation in &plan.explanations {
                let names: Vec<&str> = explanation
                    .culprits
                    .iter()
                    .map(|&(id, _)| fig.product_names[id as usize])
                    .collect();
                println!("{label}: rank {}, outranked by {names:?}", explanation.rank);
            }
            let best = plan.recommended();
            println!(
                "{label}: {} recommended at penalty {:.4}, q′ {:?}, k′ {:?} ({} alternatives)",
                best.strategy.name(),
                best.refinement.penalty,
                best.refinement.q_prime,
                best.refinement.k,
                plan.steps.len() - 1
            );
        }
        Response::Mutated { live_len } => {
            println!("{label}: mutation applied, {live_len} live points");
        }
        Response::Compacted { ran } => println!("{label}: compaction ran: {ran}"),
        Response::Stats(stats) => {
            println!(
                "{label}: {} requests served",
                stats.metrics.total_requests()
            );
        }
        Response::Error(e) => println!("{label}: ERROR {e}"),
    }
}
