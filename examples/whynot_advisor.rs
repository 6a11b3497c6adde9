//! The why-not advisor walkthrough: one request, a ranked plan.
//!
//! The paper's deliverable is not "run MQP, MWK and MQWK and compare by
//! hand" — it is a *recommendation*: the minimum-penalty refinement
//! under the combined penalty model `αΔk + βΔW` / `γΔq + λ·…`. This
//! example walks the Figure-1 market through all three surfaces of the
//! new `WhyNot` API:
//!
//! 1. the core facade ([`Wqrtq::advise`]) for one-shot library use,
//! 2. the engine ([`Request::WhyNot`]) for cached, pooled serving,
//! 3. the wire protocol ([`Client::submit_plan`]) with progressive
//!    partial frames streaming over TCP.
//!
//! ```text
//! cargo run --example whynot_advisor
//! ```

use wqrtq::data::figure1;
use wqrtq::prelude::*;

fn main() {
    let fig = figure1::dataset();
    let coords = fig.flat_products();
    let apple = fig.apple.coords().to_vec();

    // Kevin and Julia expected Apple in their top-3; it is not there.
    let kevin = vec![0.1, 0.9];
    let julia = vec![0.9, 0.1];

    // ── 1. The core facade: advise() in-process ──────────────────────
    let tree = RTree::bulk_load(2, &coords);
    let wqrtq = Wqrtq::new(&tree, &apple, 3).unwrap();
    let why_not = vec![Weight::new(kevin.clone()), Weight::new(julia.clone())];
    let options = WhyNotOptions::default();
    let plan = wqrtq.advise(&why_not, &options).unwrap();

    println!("core advisor — k'max = {}, ranked plan:", plan.k_max);
    for (i, step) in plan.steps.iter().enumerate() {
        let marker = if i == 0 {
            "→ recommended"
        } else {
            "  alternative"
        };
        println!(
            "{marker} {:>4}: penalty {:.4} (Δq {:.3}, Δk-term {:.3}, ΔW-term {:.3}), \
             verified: {}, exact: {}",
            step.strategy.name(),
            step.answer.penalty,
            step.breakdown.query_term,
            step.breakdown.k_term,
            step.breakdown.weight_term,
            step.verified,
            step.stats.exact,
        );
    }

    // ── 2. The engine: one cached, pooled request ────────────────────
    let engine = Engine::builder().workers(2).build();
    engine.register_dataset("products", 2, coords).unwrap();
    let request = Request::WhyNot {
        dataset: "products".into(),
        q: apple.clone(),
        k: 3,
        why_not: vec![kevin.clone(), julia.clone()],
        options: WhyNotOptions::default(),
    };
    match engine.submit(request.clone()) {
        Response::Plan(plan) => {
            let best = plan.recommended();
            println!(
                "\nengine — {} recommended at penalty {:.4} ({} explanations, {} steps)",
                best.strategy.name(),
                best.refinement.penalty,
                plan.explanations.len(),
                plan.steps.len(),
            );
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // ── 3. The wire: negotiation + progressive partial frames ────────
    let server = Server::builder()
        .engine(engine)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = wqrtq::server::Client::connect_v2(server.local_addr()).unwrap();
    println!("\nover the wire — the server's Hello answered the preamble");

    // A fresh query point so the plan is computed live (not a cache
    // hit) and the partial frames actually stream.
    let streamed = Request::WhyNot {
        dataset: "products".into(),
        q: vec![4.2, 3.9],
        k: 3,
        why_not: vec![kevin, julia],
        options: WhyNotOptions::default(),
    };
    let plan = client
        .submit_plan(&streamed, |delta| match delta {
            PlanDelta::Explained { index, explanation } => println!(
                "  partial: vector #{index} ranks {} ({} culprits)",
                explanation.rank,
                explanation.culprits.len()
            ),
            PlanDelta::Step(step) => println!(
                "  partial: {} done at penalty {:.4}",
                step.strategy.name(),
                step.refinement.penalty
            ),
        })
        .unwrap();
    println!(
        "  final: {} recommended at penalty {:.4}",
        plan.recommended().strategy.name(),
        plan.recommended().refinement.penalty,
    );
    server.shutdown();
}
