//! Quickstart: the paper's Figure 1 scenario, end to end.
//!
//! Apple issues a reverse top-3 query for its new computer q = (4, 4).
//! Tony and Anna are returned, but existing customers Kevin and Julia are
//! not — the why-not question. We explain the omission and compute all
//! three minimum-penalty refinements.
//!
//! Run with: `cargo run --release --example quickstart`

use wqrtq::core::advisor::WhyNotOptions;
use wqrtq::core::framework::{RefinedQuery, Wqrtq};
use wqrtq::data::figure1;
use wqrtq::query::brtopk::bichromatic_reverse_topk_rta;
use wqrtq::query::ProbeCtx;
use wqrtq::rtree::RTree;

fn main() {
    let data = figure1::dataset();
    let tree = RTree::bulk_load(2, &data.flat_products());
    let q = data.apple.coords();
    let k = 3;

    println!("== Reverse top-{k} query for Apple q = {q:?} ==");
    let result = bichromatic_reverse_topk_rta(&tree, &data.customers, q, k, &mut ProbeCtx::new());
    for &i in &result {
        println!(
            "  in result: {:8} {:?}",
            data.customer_names[i], data.customers[i]
        );
    }
    let missing: Vec<usize> = (0..data.customers.len())
        .filter(|i| !result.contains(i))
        .collect();
    for &i in &missing {
        println!(
            "  MISSING:   {:8} {:?}",
            data.customer_names[i], data.customers[i]
        );
    }

    let wqrtq = Wqrtq::new(&tree, q, k).expect("dimensions match");
    let why_not = data.why_not_customers();

    println!("\n== Aspect 1: why are Kevin and Julia missing? ==");
    for (name, w) in ["Kevin", "Julia"].iter().zip(&why_not) {
        let e = wqrtq.explain(w, 10);
        let culprits: Vec<String> = e
            .culprits
            .iter()
            .map(|c| {
                format!(
                    "{} (score {:.2})",
                    data.product_names[c.id as usize], c.score
                )
            })
            .collect();
        println!(
            "  {name}: q ranks {} — beaten by {}",
            e.rank,
            culprits.join(", ")
        );
    }

    println!("\n== Aspect 2: minimum-penalty refinements ==");
    let options = WhyNotOptions {
        sample_size: 800,
        query_samples: 800,
        seed: 2015,
        ..WhyNotOptions::default()
    };
    let plan = wqrtq
        .advise(&why_not, &options)
        .expect("refinement succeeds");
    for step in &plan.steps {
        let a = &step.answer;
        match &a.refined {
            RefinedQuery::QueryPoint { q_prime } => println!(
                "  MQP   penalty {:.3}: redesign the computer as ({:.2}, {:.2})",
                a.penalty, q_prime[0], q_prime[1]
            ),
            RefinedQuery::Preferences { why_not, k } => {
                println!(
                    "  MWK   penalty {:.3}: influence preferences (k′ = {k}):",
                    a.penalty
                );
                for (name, w) in ["Kevin", "Julia"].iter().zip(why_not) {
                    println!("          {name} → ({:.3}, {:.3})", w[0], w[1]);
                }
            }
            RefinedQuery::Everything {
                q_prime,
                why_not,
                k,
            } => {
                println!(
                    "  MQWK  penalty {:.3}: compromise — q′ = ({:.2}, {:.2}), k′ = {k}",
                    a.penalty, q_prime[0], q_prime[1]
                );
                for (name, w) in ["Kevin", "Julia"].iter().zip(why_not) {
                    println!("          {name} → ({:.3}, {:.3})", w[0], w[1]);
                }
            }
        }
        assert!(step.verified, "refinement must verify");
    }
    println!("\nAll refinements verified: Kevin and Julia now see Apple in their top-k.");
}
