//! One benchmark for the whole WQRTQ stack: four named workloads against
//! a real in-process server over loopback, every answer class checked
//! against a brute-force oracle, every metric printed by name with unit,
//! direction and regression bound. See `README.md`.

mod client;
mod compare;
mod env;
mod json;
mod kernels;
mod load;
mod metrics;
mod oracle;
mod probes;
mod rng;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use metrics::{Report, END_TO_END, ONE_WORKLOAD, PER_LAYER, RUN_SECONDS};
use std::process::ExitCode;
use workloads::RunConfig;

#[global_allocator]
static GLOBAL: env::CountingAllocator = env::CountingAllocator;

const USAGE: &str = "\
usage:
  wqrtq-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--setups N]
  wqrtq-benchmark suite [--runs N] [--seed N] [--seconds S] [--out FILE]
  wqrtq-benchmark compare A.json B.json
  wqrtq-benchmark manifest
  wqrtq-benchmark --self-test
workloads: serve_topk, rtopk_scan, whynot_plan, mutate_mix (default seed 2015)
--setups: set-ups an untraced run times, median reported (default 3; run.sh --smoke passes 1)";

/// `--key value` pairs after the subcommand.
pub fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].as_str())
}

pub fn parse<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match flag(args, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v:?}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cfg = RunConfig {
        workload: flag(args, "--workload")
            .ok_or("run needs --workload")?
            .to_string(),
        seed: parse(args, "--seed", 2015u64)?,
        seconds: parse(args, "--seconds", RUN_SECONDS as f64)?,
        traced: parse(args, "--trace", 0u8)? != 0,
        setups: parse(args, "--setups", env::SETUP_REPEATS)?,
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let mut report = Report::default();
    let outcome = workloads::run(&cfg, &mut report)?;
    let defs: &[metrics::MetricDef] = if cfg.traced { &PER_LAYER } else { &END_TO_END };
    let (metric_values, missing) = report.result_metrics(defs);
    // Every listed metric is measured on every workload: one that is
    // missing is a bug in the benchmark, not a zero.
    let complete = missing.is_empty();
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.traced as u8
    );
    println!("machine {}", env::fingerprint().render());
    print!("{}", report.table(defs, false));
    print!("{}", report.table(&ONE_WORKLOAD, true));
    if cfg.traced {
        let path = env::out_dir().join(format!("{}.metrics.json", cfg.workload));
        if let Err(e) = std::fs::write(&path, report.to_json().render()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    println!(
        "operations: attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        println!("problem: {problem}");
    }
    if !complete {
        println!("problem: metrics not measured: {missing:?}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0 && complete)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metric_values),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("suite") => suite::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some("--self-test") => compare::self_test(),
        Some("manifest") => {
            println!("{}", metrics::manifest().render());
            Ok(())
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
