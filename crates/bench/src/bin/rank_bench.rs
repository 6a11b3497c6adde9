//! Rank-kernel and parallel-RTA single-request benchmark, as a JSON
//! report.
//!
//! ```text
//! cargo run --release -p wqrtq-bench --bin rank_bench
//! cargo run --release -p wqrtq-bench --bin rank_bench -- --n 20000 --weights 500 --out BENCH_rank.json
//! ```

use std::io::Write;
use wqrtq_bench::rank_bench::{compare, RankBenchConfig};

fn main() {
    let mut cfg = RankBenchConfig::default();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--n" => cfg.n = value("--n").parse().expect("--n takes an integer"),
            "--dim" => cfg.dim = value("--dim").parse().expect("--dim takes an integer"),
            "--weights" => {
                cfg.num_weights = value("--weights")
                    .parse()
                    .expect("--weights takes an integer")
            }
            "--k" => cfg.k = value("--k").parse().expect("--k takes an integer"),
            "--repeats" => {
                cfg.repeats = value("--repeats")
                    .parse()
                    .expect("--repeats takes an integer")
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
                    "usage: rank_bench [--n N] [--dim D] [--weights W] [--k K] \
                     [--repeats R] [--workers P] [--seed S] [--out FILE]"
                );
                return;
            }
            other => panic!("unknown flag {other}"),
        }
    }

    eprintln!(
        "rank bench: |P| = {}, d = {}, |W| = {}, k = {}, {} repeats, workers 1 vs {}",
        cfg.n, cfg.dim, cfg.num_weights, cfg.k, cfg.repeats, cfg.workers
    );
    let report = compare(&cfg);
    eprintln!(
        "naive scan     : {:>10.1} req/s\n\
         flat RTA       : {:>10.1} req/s  (speedup vs naive {:.2}×)\n\
         engine 1 worker: {:>10.1} req/s\n\
         engine {} workers: {:>9.1} req/s  (scaling {:.2}× on {} core(s))",
        report.naive_scan.rps(),
        report.flat_rta.rps(),
        report.speedup_flat_vs_naive(),
        report.engine_workers_1.rps(),
        report.config.workers,
        report.engine_workers_n.rps(),
        report.engine_scaling(),
        report.cores,
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
