//! `--record` and `--compare`: series of untraced runs of every workload,
//! each run in its own process, written to a results file or judged against
//! one. Runs alternate between workloads (run 1 of every workload, then
//! run 2, …) so a slow phase of the host does not land on one workload's
//! whole series.

use crate::args::{SeriesArgs, DEFAULT_SECONDS, RECORD_RUNS};
use crate::json::{self, Value};
use crate::metrics::end_to_end;
use crate::stats::{classify, median, spread, worsening, Verdict};
use crate::workload::{host_tags, Workload};
use std::process::Command;

/// One untraced run's result line and tag line.
struct RunResult {
    seed: u64,
    tags: Value,
    metrics: Value,
}

/// Runs `runs` untraced runs of every workload as child processes of this
/// executable, alternating workloads. A run that fails, prints no result or
/// reports incorrect output aborts the series.
fn run_series(
    runs: usize,
    seconds: u64,
    seed: u64,
) -> Result<Vec<(Workload, Vec<RunResult>)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut out: Vec<(Workload, Vec<RunResult>)> =
        Workload::ALL.iter().map(|&w| (w, Vec::new())).collect();
    for r in 0..runs {
        for (w, results) in out.iter_mut() {
            let run_seed = seed + r as u64;
            eprintln!("run {}/{runs}: {} seed {run_seed}", r + 1, w.name());
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "0"])
                .args([
                    "--seed",
                    &run_seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!(
                    "{} seed {run_seed}: exited with {}",
                    w.name(),
                    output.status
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines = stdout.lines().rev();
            let result = json::parse(lines.next().unwrap_or(""))?;
            let tags = lines
                .find_map(|l| l.strip_prefix("tags: "))
                .map(json::parse)
                .transpose()?
                .unwrap_or(Value::Null);
            if result.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!("{} seed {run_seed}: incorrect output", w.name()));
            }
            let metrics = result
                .get("metrics")
                .cloned()
                .ok_or("result without metrics")?;
            results.push(RunResult {
                seed: run_seed,
                tags,
                metrics,
            });
        }
    }
    Ok(out)
}

fn series_json(series: &[(Workload, Vec<RunResult>)], seconds: u64) -> Value {
    Value::obj([
        ("seconds", Value::Num(seconds as f64)),
        ("host", Value::obj(host_tags())),
        (
            "workloads",
            Value::obj(series.iter().map(|(w, runs)| {
                (
                    w.name(),
                    Value::Arr(
                        runs.iter()
                            .map(|r| {
                                Value::obj([
                                    ("seed", Value::Num(r.seed as f64)),
                                    ("tags", r.tags.clone()),
                                    ("metrics", r.metrics.clone()),
                                ])
                            })
                            .collect(),
                    ),
                )
            })),
        ),
    ])
}

/// The values of end-to-end metric `metric` across the runs of `workload`
/// in a results document.
fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// `--record`: writes a results file. Returns the process exit code.
pub fn record(args: &SeriesArgs) -> i32 {
    match run_series(RECORD_RUNS, DEFAULT_SECONDS, args.seed) {
        Ok(series) => {
            let doc = series_json(&series, DEFAULT_SECONDS);
            if let Err(e) = std::fs::write(&args.file, format!("{doc}\n")) {
                eprintln!("perfbench: write {}: {e}", args.file.display());
                return 1;
            }
            print!("{}", table(&doc, None).0);
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// `--compare`: runs every workload as often and as long as the reference
/// did, prints one row per workload × end-to-end metric and exits 1 if any
/// metric regressed beyond its bound.
pub fn compare(args: &SeriesArgs) -> i32 {
    let reference = match std::fs::read_to_string(&args.file)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perfbench: read {}: {e}", args.file.display());
            return 2;
        }
    };
    let seconds = reference.get("seconds").and_then(Value::as_f64);
    let runs = values(&reference, Workload::ALL[0].name(), "setup_s").len();
    let Some(seconds) = seconds.filter(|&s| s >= 1.0 && runs > 0) else {
        eprintln!(
            "perfbench: {}: no run length or no runs recorded",
            args.file.display()
        );
        return 2;
    };
    let seconds = seconds as u64;
    let series = match run_series(runs, seconds, args.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let (text, regressed) = table(&series_json(&series, seconds), Some(&reference));
    print!("{text}");
    i32::from(regressed)
}

/// One row per workload × end-to-end metric: the median, and — against a
/// reference — the reference median, the change relative to the bound,
/// the reference's own spread and the verdict. Also returns whether any
/// metric regressed.
fn table(current: &Value, reference: Option<&Value>) -> (String, bool) {
    let mut regressed = false;
    let mut out = format!(
        "{:<20} {:<26} {:>12} {:>12} {:>9} {:>7} {:>8}  {}\n",
        "workload", "metric", "reference", "current", "worse by", "bound", "spread", "verdict"
    );
    for w in Workload::ALL {
        for d in end_to_end() {
            let now = values(current, w.name(), &d.name);
            if now.is_empty() {
                continue;
            }
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let row = match reference.map(|r| values(r, w.name(), &d.name)) {
                Some(base) if !base.is_empty() => {
                    let verdict = classify(&base, &now, d.better, bound);
                    regressed |= verdict == Verdict::Regressed;
                    format!(
                        "{:>12.4} {:>12.4} {:>8.1}% {:>6.0}% {:>7.1}%  {}",
                        median(&base),
                        median(&now),
                        100.0 * worsening(&base, &now, d.better),
                        100.0 * bound,
                        100.0 * spread(&base),
                        verdict.name(),
                    )
                }
                Some(_) => format!("{:>12} {:>12.4}", "-", median(&now)),
                None => format!(
                    "{:>12} {:>12.4} {:>9} {:>6.0}% {:>7.1}%",
                    "-",
                    median(&now),
                    "-",
                    100.0 * bound,
                    100.0 * spread(&now)
                ),
            };
            let metric = format!("{} [{}]", d.name, d.unit);
            out.push_str(&format!("{:<20} {metric:<26} {row}\n", w.name()));
        }
    }
    (out, regressed)
}
