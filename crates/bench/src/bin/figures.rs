//! Regenerates the experimental figures of the paper (Figures 7–12) as
//! printed tables: total running time (s) and penalty per algorithm, per
//! x-axis value, per dataset panel.
//!
//! ```text
//! cargo run --release -p wqrtq-bench --bin figures -- --figure all --profile quick
//! cargo run --release -p wqrtq-bench --bin figures -- --figure 9 --profile paper
//! cargo run --release -p wqrtq-bench --bin figures -- --list
//! ```
//!
//! The `quick` profile (default) caps dataset sizes and sample counts so
//! the full suite finishes in minutes; `paper` uses the Table-1 grid.
//! Shapes (algorithm ordering, trends) are preserved under both; see
//! DESIGN.md and README.md ("Reproducing the paper's figures").

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use wqrtq_bench::harness::{prepare, run_all};
use wqrtq_bench::params::{Config, DatasetKind, Profile};

/// Workload repetitions per x-value (averaged); settable via `--reps`.
static REPS: AtomicUsize = AtomicUsize::new(3);

/// Optional CSV sink (`--csv FILE`): one row per (figure, dataset, x,
/// algorithm).
static CSV: Mutex<Option<std::fs::File>> = Mutex::new(None);

fn print_header(title: &str) {
    println!("\n== {title} ==");
    println!(
        "{:>12} | {:>11} {:>8} | {:>11} {:>8} | {:>11} {:>8}",
        "x", "MQP t(s)", "pen", "MWK t(s)", "pen", "MQWK t(s)", "pen"
    );
}

/// Runs `REPS` independent workloads for the configuration and prints
/// the mean time/penalty per algorithm (the paper reports averages over
/// queries too).
fn run_config(cfg: &Config, figure: u8, x: &str) {
    let reps = REPS.load(Ordering::Relaxed).max(1);
    let mut time = [0.0f64; 3];
    let mut pen = [0.0f64; 3];
    for r in 0..reps {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(1000 * r as u64);
        let prep = prepare(&c);
        for (i, m) in run_all(&prep).iter().enumerate() {
            time[i] += m.time.as_secs_f64();
            pen[i] += m.penalty;
        }
    }
    let n = reps as f64;
    println!(
        "{x:>12} | {:>11.4} {:>8.4} | {:>11.4} {:>8.4} | {:>11.4} {:>8.4}",
        time[0] / n,
        pen[0] / n,
        time[1] / n,
        pen[1] / n,
        time[2] / n,
        pen[2] / n,
    );
    if let Some(f) = CSV.lock().expect("csv lock").as_mut() {
        for (i, algo) in ["MQP", "MWK", "MQWK"].iter().enumerate() {
            writeln!(
                f,
                "{figure},{},{x},{algo},{:.6},{:.6}",
                cfg.dataset.name(),
                time[i] / n,
                pen[i] / n
            )
            .expect("csv write");
        }
    }
}

/// Figure 7: cost vs dimensionality (Independent, Anti-correlated).
fn figure7(profile: Profile) {
    for kind in [DatasetKind::Independent, DatasetKind::Anticorrelated] {
        print_header(&format!(
            "Figure 7 — cost vs dimensionality ({})",
            kind.name()
        ));
        for d in [2usize, 3, 4, 5] {
            let mut cfg = Config::default_for(kind, profile);
            cfg.dim = d;
            run_config(&cfg, 7, &d.to_string());
        }
    }
}

/// Figure 8: cost vs dataset cardinality (Independent, Anti-correlated).
fn figure8(profile: Profile) {
    for kind in [DatasetKind::Independent, DatasetKind::Anticorrelated] {
        print_header(&format!("Figure 8 — cost vs cardinality ({})", kind.name()));
        for n in profile.cardinality_sweep() {
            let mut cfg = Config::default_for(kind, profile);
            cfg.n = n;
            run_config(&cfg, 8, &format!("{}K", n / 1000));
        }
    }
}

/// Figure 9: cost vs k (four dataset panels).
fn figure9(profile: Profile) {
    for kind in DatasetKind::figure_panels() {
        print_header(&format!("Figure 9 — cost vs k ({})", kind.name()));
        for k in [10usize, 20, 30, 40, 50] {
            let mut cfg = Config::default_for(kind, profile);
            cfg.k = k;
            run_config(&cfg, 9, &k.to_string());
        }
    }
}

/// Figure 10: cost vs actual rank of q under Wm (four panels).
fn figure10(profile: Profile) {
    for kind in DatasetKind::figure_panels() {
        print_header(&format!(
            "Figure 10 — cost vs actual rank of q ({})",
            kind.name()
        ));
        for rank in [11usize, 101, 501, 1001] {
            let mut cfg = Config::default_for(kind, profile);
            cfg.target_rank = rank;
            run_config(&cfg, 10, &rank.to_string());
        }
    }
}

/// Figure 11: cost vs |Wm| (four panels).
fn figure11(profile: Profile) {
    for kind in DatasetKind::figure_panels() {
        print_header(&format!("Figure 11 — cost vs |Wm| ({})", kind.name()));
        for m in 1usize..=5 {
            let mut cfg = Config::default_for(kind, profile);
            cfg.num_why_not = m;
            run_config(&cfg, 11, &m.to_string());
        }
    }
}

/// Figure 12: cost vs sample size (four panels).
fn figure12(profile: Profile) {
    for kind in DatasetKind::figure_panels() {
        print_header(&format!(
            "Figure 12 — cost vs sample size ({})",
            kind.name()
        ));
        for s in profile.sample_size_sweep() {
            let mut cfg = Config::default_for(kind, profile);
            cfg.n = profile.fig12_cardinality();
            cfg.sample_size = s;
            run_config(&cfg, 12, &s.to_string());
        }
    }
}

fn print_table1() {
    println!("Table 1 — parameter ranges and defaults (paper §5.1)");
    println!("  dimensionality d:        2, 3, 4, 5 (default 3)");
    println!("  cardinality |P|:         10K..1000K (default 100K)");
    println!("  k:                       10..50 (default 10)");
    println!("  actual rank of q:        11, 101, 501, 1001 (default 101)");
    println!("  |Wm|:                    1..5 (default 1)");
    println!("  sample size:             100..1600 (default 800)");
    println!("  tolerances:              α = β = γ = λ = 0.5");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figure = String::from("all");
    let mut profile = Profile::Quick;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--figure" => {
                figure = args.get(i + 1).cloned().unwrap_or_default();
                i += 2;
            }
            "--profile" => {
                profile = match args.get(i + 1).map(String::as_str) {
                    Some("paper") => Profile::Paper,
                    _ => Profile::Quick,
                };
                i += 2;
            }
            "--csv" => {
                let path = args.get(i + 1).cloned().unwrap_or_default();
                let mut f = std::fs::File::create(&path).expect("create csv file");
                writeln!(f, "figure,dataset,x,algorithm,mean_time_s,mean_penalty")
                    .expect("csv header");
                *CSV.lock().expect("csv lock") = Some(f);
                i += 2;
            }
            "--reps" => {
                let r = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or(3);
                REPS.store(r.max(1), Ordering::Relaxed);
                i += 2;
            }
            "--list" => {
                print_table1();
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: figures [--figure 7|8|9|10|11|12|all] [--profile quick|paper] [--reps N] [--csv FILE] [--list]"
                );
                std::process::exit(2);
            }
        }
    }

    println!(
        "WQRTQ figure regeneration — profile: {:?} (see README.md, \"Reproducing the paper's figures\")",
        profile
    );
    let started = Instant::now();
    let run = |f: &str| figure == "all" || figure == f;
    if run("7") {
        figure7(profile);
    }
    if run("8") {
        figure8(profile);
    }
    if run("9") {
        figure9(profile);
    }
    if run("10") {
        figure10(profile);
    }
    if run("11") {
        figure11(profile);
    }
    if run("12") {
        figure12(profile);
    }
    println!("\ntotal wall time: {:.1}s", started.elapsed().as_secs_f64());
}
