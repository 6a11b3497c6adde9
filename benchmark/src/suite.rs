//! `suite`: runs every workload in a fresh process, several times, and
//! collects the result lines into one report file that `compare` reads.

use crate::env;
use crate::json::Json;
use crate::metrics::{RUN_SECONDS, WORKLOADS};
use std::process::Command;
use std::time::Instant;

/// One `run` in a child process; returns its parsed result line.
fn run_once(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    Json::parse(last)
}

/// `suite [--runs N] [--seed N] [--seconds S] [--out FILE]`: `runs`
/// untraced runs of every workload, plus one traced run of each.
pub fn run(args: &[String]) -> Result<(), String> {
    let runs: usize = crate::parse(args, "--runs", 5)?;
    let seed: u64 = crate::parse(args, "--seed", 2015)?;
    let seconds: f64 = crate::parse(args, "--seconds", RUN_SECONDS as f64)?;
    let out = crate::flag(args, "--out").map_or_else(
        || env::out_dir().join("suite.json"),
        std::path::PathBuf::from,
    );
    let mut results = Vec::new();
    for r in 0..runs {
        for (workload, _) in WORKLOADS {
            for trace in 0..=u8::from(r == 0) {
                let start = Instant::now();
                let result = run_once(workload, seed, seconds, trace)?;
                let wall = start.elapsed().as_secs_f64();
                eprintln!(
                    "run {}/{runs} {workload} trace {trace}: {wall:.1} s, correct {}",
                    r + 1,
                    result.get("correct").and_then(Json::as_bool) == Some(true)
                );
                results.push(Json::obj([
                    ("workload", Json::str(workload)),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Num(f64::from(trace))),
                    ("wall_s", Json::Num(wall)),
                    ("result", result),
                ]));
            }
        }
    }
    let report = Json::obj([
        ("fingerprint", env::fingerprint()),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Arr(results)),
    ]);
    std::fs::write(&out, report.render()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{}", out.display());
    Ok(())
}
