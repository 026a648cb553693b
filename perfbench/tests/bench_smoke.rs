//! Smoke test of the benchmark binary: every workload runs for about a
//! second untraced and traced, and the contract with `BENCHMARK.json` holds —
//! no failed request, every declared metric printed exactly once with its
//! unit, a trace of request-linked spans, and usage errors exiting with 2.

use perfbench::json::{self, Value};
use perfbench::metrics::{end_to_end, per_layer, Decl};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("read BENCHMARK.json")).expect("valid JSON")
}

/// The `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_in(dir: &Path, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir).expect("create the working directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn perfbench")
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The result object on the last stdout line, after checking it reports a
/// correct run whose metrics are exactly `expected`, each once, in units.
fn check_result(label: &str, out: &Output, expected: &[(String, String)]) {
    assert!(
        out.status.success(),
        "{label}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("UTF-8 output");
    let result = json::parse(stdout.lines().last().expect("a result line")).expect("result JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("result object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{label}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{label}");
    assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{label}");
    assert!(
        result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0,
        "{label}"
    );
    let printed: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{label}: {name}"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect();
    assert_eq!(
        printed, expected,
        "{label}: metrics differ from BENCHMARK.json"
    );
}

/// Chrome trace-event JSON whose spans link to requests: every event is a
/// complete event with a request id, and some request has child spans that
/// name it as their parent.
fn check_trace(label: &str, path: &Path) {
    let doc =
        json::parse(&std::fs::read_to_string(path).expect("trace written")).expect("trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty(), "{label}: empty trace");
    let request_of = |e: &Value| e.get("args")?.get("request")?.as_f64();
    for e in events {
        assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"), "{label}");
        assert!(e.get("ts").and_then(Value::as_f64).is_some(), "{label}");
        assert!(e.get("dur").and_then(Value::as_f64).is_some(), "{label}");
        assert!(
            request_of(e).is_some(),
            "{label}: span without a request id"
        );
    }
    let linked = events.iter().any(|root| {
        root.get("name").and_then(Value::as_str) == Some("request")
            && events.iter().any(|child| {
                request_of(child) == request_of(root)
                    && child
                        .get("args")
                        .and_then(|a| a.get("parent"))
                        .and_then(Value::as_str)
                        == Some("request")
            })
    });
    assert!(linked, "{label}: no request with child spans");
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let doc = benchmark_json();
    let e2e = declared(&doc, "end_to_end");
    let layers = declared(&doc, "per_layer");
    for w in doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
    {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        let dir = scratch(&format!("smoke-{name}"));
        let out = run_in(
            &dir,
            &[
                "--workload",
                name,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
        );
        check_result(&format!("{name} untraced"), &out, &e2e);
        let out = run_in(
            &dir,
            &[
                "--workload",
                name,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "1",
            ],
        );
        check_result(&format!("{name} traced"), &out, &layers);
        check_trace(
            name,
            &dir.join(format!(".perfbench/trace-{name}-seed1.json")),
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_catalogue() {
    let doc = benchmark_json();
    let as_pairs = |decls: Vec<Decl>| -> Vec<(String, String)> {
        decls
            .into_iter()
            .map(|d| (d.name, d.unit.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), as_pairs(end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), as_pairs(per_layer()));
    let listed = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    for (entry, decl) in listed.iter().zip(end_to_end()) {
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(decl.better.name())
        );
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            decl.bound,
            "{}",
            decl.name
        );
    }
    let listed = doc.get("per_layer").and_then(Value::as_array).unwrap();
    for (entry, decl) in listed.iter().zip(per_layer()) {
        assert_eq!(
            entry.get("better").and_then(Value::as_str),
            Some(decl.better.name())
        );
    }
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = perfbench::workload::Workload::ALL
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(names, ours);
}

#[test]
fn usage_errors_exit_with_2_and_print_no_result() {
    let dir = scratch("smoke-usage");
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "compile-cold", "--seed", "abc"],
        &["--workload", "compile-cold", "--seconds", "-3"],
        &["--workload", "compile-cold", "--trace", "2"],
        &["--workload"],
        &[],
    ] {
        let out = run_in(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
