//! `compare A.json B.json`: applies the regression bounds to two suite
//! reports (A the parent, B the change), workload by workload and
//! metric by metric — never a combined score.
//!
//! For each end-to-end metric × workload the verdict is
//!
//! * `improved` when every run of B reads better than every run of A;
//! * `unresolved` when the run-to-run spread (inter-quartile distance
//!   over the median, the larger of the two sides) exceeds the bound —
//!   the data cannot tell "unchanged" from "regressed";
//! * `REGRESSION` when B's median is worse than A's by more than the
//!   bound;
//! * `ok` otherwise.
//!
//! The exit code is non-zero on any regression or any incorrect run.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

/// The verdict on one metric × workload pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Every run of B beats every run of A.
    Improved,
    /// Spread wider than the bound.
    Unresolved,
    /// Median worse by more than the bound.
    Regression,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges one pairing from the runs of both sides.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if !a.is_empty() && b.iter().all(|&x| a.iter().all(|&y| better(x, y))) {
        return Verdict::Improved;
    }
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    if worse_by(def, median(a), median(b)) > bound {
        return Verdict::Regression;
    }
    Verdict::Ok
}

/// `(workload, metric) → values` over the runs of one report.
type Values = BTreeMap<(String, String), Vec<f64>>;

/// The values of one report's runs with `trace`, plus the number of
/// incorrect runs among them.
fn values(report: &Json, trace: f64) -> Result<(Values, usize), String> {
    let mut out = Values::new();
    let mut incorrect = 0;
    let runs = report
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("report has no runs array")?;
    for run in runs {
        if run.get("trace").and_then(Json::as_f64) != Some(trace) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let result = run.get("result").ok_or("run without result")?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            incorrect += 1;
        }
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok((out, incorrect))
}

/// The outcome of comparing two reports.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One line per end-to-end metric × workload, then per-layer rows.
    pub lines: Vec<String>,
    /// Pairings judged a regression.
    pub regressions: usize,
    /// Pairings whose spread exceeds the bound.
    pub unresolved: usize,
    /// Incorrect runs on either side.
    pub incorrect: usize,
}

impl Comparison {
    /// Whether `compare` should exit 0.
    pub fn passed(&self) -> bool {
        self.regressions == 0 && self.incorrect == 0
    }
}

/// Compares report `a` (parent) with report `b` (change).
pub fn compare_reports(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    let ((va, bad_a), (vb, bad_b)) = (values(a, 0.0)?, values(b, 0.0)?);
    out.incorrect = bad_a + bad_b;
    for (workload, _) in WORKLOADS {
        for def in &END_TO_END {
            let key = (workload.to_string(), def.name.to_string());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else {
                out.lines
                    .push(format!("{workload:<12} {:<18} missing", def.name));
                out.incorrect += 1;
                continue;
            };
            let verdict = judge(def, xa, xb);
            out.regressions += usize::from(verdict == Verdict::Regression);
            out.unresolved += usize::from(verdict == Verdict::Unresolved);
            out.lines.push(format!(
                "{workload:<12} {:<18} {:>14.4} -> {:>14.4} {:<5} worse by {:>+6.1}% (bound {:.0}%, spread {:.1}%/{:.1}%, n={}/{})  {}",
                def.name,
                median(xa),
                median(xb),
                def.unit,
                worse_by(def, median(xa), median(xb)) * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                spread(xa) * 100.0,
                spread(xb) * 100.0,
                xa.len(),
                xb.len(),
                verdict.name()
            ));
        }
    }
    // Per-layer metrics carry no bound: shown for the places they moved.
    let ((la, _), (lb, _)) = (values(a, 1.0)?, values(b, 1.0)?);
    for (workload, _) in WORKLOADS {
        for def in &PER_LAYER {
            let key = (workload.to_string(), def.name.to_string());
            if let (Some(xa), Some(xb)) = (la.get(&key), lb.get(&key)) {
                let (ma, mb) = (median(xa), median(xb));
                if ma != 0.0 || mb != 0.0 {
                    out.lines.push(format!(
                        "{workload:<12} {:<34} {ma:>14.4} -> {mb:>14.4} {:<8} x{:.3}",
                        def.name,
                        def.unit,
                        if ma != 0.0 { mb / ma } else { 0.0 }
                    ));
                }
            }
        }
    }
    Ok(out)
}

/// `compare A.json B.json`
pub fn run(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let result = compare_reports(&load(a)?, &load(b)?)?;
    for line in &result.lines {
        println!("{line}");
    }
    println!(
        "{} regression(s), {} unresolved, {} incorrect run(s)",
        result.regressions, result.unresolved, result.incorrect
    );
    if result.passed() {
        Ok(())
    } else {
        Err("compare: FAILED".into())
    }
}

/// A synthetic suite report: `runs` untraced runs per workload, every
/// end-to-end metric at 100 × (1 ± jitter) × `scale(metric)`.
fn synthetic(runs: usize, jitter: f64, phase: usize, scale: impl Fn(&MetricDef) -> f64) -> Json {
    let mut all = Vec::new();
    for (workload, _) in WORKLOADS {
        for r in 0..runs {
            // A fixed zig-zag in [-jitter, +jitter], shifted per report.
            let wobble = jitter * (((r + phase) % 5) as f64 - 2.0) / 2.0;
            let metrics = Json::obj(END_TO_END.iter().map(|d| {
                let value = 100.0 * (1.0 + wobble) * scale(d);
                (
                    d.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
                )
            }));
            all.push(Json::obj([
                ("workload", Json::str(workload)),
                ("seed", Json::Num(2015.0)),
                ("trace", Json::Num(0.0)),
                (
                    "result",
                    Json::obj([
                        ("correct", Json::Bool(true)),
                        ("attempted", Json::Num(1000.0)),
                        ("failed", Json::Num(0.0)),
                        ("metrics", metrics),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([("runs", Json::Arr(all))])
}

/// Scales a metric so it reads worse by `share`.
fn slowed(def: &MetricDef, share: f64) -> f64 {
    match def.better {
        Better::Lower => 1.0 + share,
        Better::Higher => 1.0 - share,
    }
}

/// `--self-test`: proves the gate passes an A/A pair and a slowdown of
/// half the bound, trips on an injected slowdown beyond the bound on
/// every metric × workload, reports wide spread as unresolved, and
/// counts an incorrect run.
pub fn self_test() -> Result<(), String> {
    let pairs = WORKLOADS.len() * END_TO_END.len();
    let base = synthetic(5, 0.01, 0, |_| 1.0);
    let check = |name: &str, b: &Json, want: (usize, usize)| -> Result<(), String> {
        let c = compare_reports(&base, b)?;
        if (c.regressions, c.unresolved) == want {
            println!(
                "self-test {name}: ok ({} regressions, {} unresolved)",
                want.0, want.1
            );
            Ok(())
        } else {
            Err(format!(
                "self-test {name}: expected {want:?} (regressions, unresolved), got ({}, {})",
                c.regressions, c.unresolved
            ))
        }
    };
    check("A/A pair", &synthetic(5, 0.01, 2, |_| 1.0), (0, 0))?;
    check(
        "half the bound",
        &synthetic(5, 0.01, 2, |d| slowed(d, d.bound.unwrap_or(0.0) / 2.0)),
        (0, 0),
    )?;
    // 20 % at least, and always five points past the metric's own bound.
    check(
        "injected slowdown",
        &synthetic(5, 0.01, 2, |d| {
            slowed(d, (d.bound.unwrap_or(0.0) + 0.05).max(0.2))
        }),
        (pairs, 0),
    )?;
    check("wide spread", &synthetic(5, 0.6, 2, |_| 1.0), (0, pairs))?;
    check(
        "improvement",
        &synthetic(5, 0.01, 2, |d| slowed(d, -0.2)),
        (0, 0),
    )?;
    let mut broken = synthetic(5, 0.01, 2, |_| 1.0).render();
    broken = broken.replacen("\"correct\": true", "\"correct\": false", 1);
    let c = compare_reports(&base, &Json::parse(&broken)?)?;
    if c.incorrect != 1 || c.passed() {
        return Err("self-test incorrect run: not counted".into());
    }
    println!("self-test incorrect run: ok");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = END_TO_END
            .iter()
            .find(|d| d.name == "latency_p50_us")
            .unwrap();
        let higher = END_TO_END
            .iter()
            .find(|d| d.name == "throughput_rps")
            .unwrap();
        let bound = lower.bound.unwrap();
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let worse: Vec<f64> = a.iter().map(|x| x * (1.0 + bound + 0.02)).collect();
        let better: Vec<f64> = a.iter().map(|x| x * 0.9).collect();
        assert_eq!(judge(lower, &a, &worse), Verdict::Regression);
        assert_eq!(judge(lower, &a, &better), Verdict::Improved);
        assert_eq!(judge(higher, &a, &better), Verdict::Ok);
        assert_eq!(judge(lower, &a, &a), Verdict::Ok);
        let noisy = [60.0, 140.0, 100.0, 30.0, 170.0];
        assert_eq!(judge(lower, &a, &noisy), Verdict::Unresolved);
    }
}
