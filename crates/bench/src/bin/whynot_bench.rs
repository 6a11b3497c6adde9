//! Why-not advisor plan throughput and streaming head start, as a JSON
//! report.
//!
//! ```text
//! cargo run --release -p wqrtq-bench --bin whynot_bench
//! cargo run --release -p wqrtq-bench --bin whynot_bench -- --n 20000 --rounds 24 --out BENCH_whynot.json
//! ```

use std::io::Write;
use wqrtq_bench::whynot_bench::{run, WhyNotBenchConfig};

fn main() {
    let mut cfg = WhyNotBenchConfig::default();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--n" => cfg.n = value("--n").parse().expect("--n takes an integer"),
            "--rounds" => {
                cfg.rounds = value("--rounds")
                    .parse()
                    .expect("--rounds takes an integer")
            }
            "--why-not" => {
                cfg.why_not = value("--why-not")
                    .parse()
                    .expect("--why-not takes an integer")
            }
            "--k" => cfg.k = value("--k").parse().expect("--k takes an integer"),
            "--samples" => {
                cfg.sample_size = value("--samples")
                    .parse()
                    .expect("--samples takes an integer")
            }
            "--query-samples" => {
                cfg.query_samples = value("--query-samples")
                    .parse()
                    .expect("--query-samples takes an integer")
            }
            "--workers" => {
                cfg.workers = value("--workers")
                    .parse()
                    .expect("--workers takes an integer")
            }
            "--seed" => cfg.seed = value("--seed").parse().expect("--seed takes an integer"),
            "--out" => out = Some(value("--out")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: whynot_bench [--n N] [--rounds R] [--why-not M] [--k K] \
                     [--samples S] [--query-samples Q] [--workers P] [--seed S] [--out FILE]"
                );
                return;
            }
            other => panic!("unknown flag {other}"),
        }
    }

    eprintln!(
        "whynot bench: |P| = {}, {} cases x {} vectors, k = {}, |S| = {}, |Q| = {}, {} workers",
        cfg.n, cfg.rounds, cfg.why_not, cfg.k, cfg.sample_size, cfg.query_samples, cfg.workers
    );
    let report = run(&cfg);
    eprintln!(
        "plan requests  : {:>8.1} cases/s  ({} cases)\n\
         streaming headstart {:.1}x; steps verified: {}",
        report.plan.cases_per_sec(),
        report.plan.rounds,
        report.streaming_headstart,
        report.plan_steps_verified,
    );
    let json = report.to_json();
    match out {
        Some(path) => {
            let mut f = std::fs::File::create(&path).expect("create output file");
            writeln!(f, "{json}").expect("write report");
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}
