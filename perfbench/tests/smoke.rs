//! Smoke mode: tiny budgets, every workload, both run kinds.
//!
//! Checks that each run prints exactly the metrics `BENCHMARK.json` names,
//! with their units, that the output check passes on honest results, and
//! that it fails on a tampered one.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 3] = ["detail-fp", "sampled-trace", "serve-mixed"];

/// `(name, unit)` of every metric of `kind` (`end_to_end` or `per_layer`).
fn declared(kind: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let bench = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Seq(metrics)) = bench.get(kind) else {
        panic!("BENCHMARK.json has no {kind} list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed metric {m:?}"),
        })
        .collect()
}

/// A working directory of its own, so runs leave nothing in the tree.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs one smoke run; returns its exit success and parsed result line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_elsq-perfbench"))
        .current_dir(workdir(&format!("{workload}-{trace}")))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = serde_json::parse_value(last).expect("last line is JSON");
    (out.status.success(), result)
}

fn printed(result: &Value) -> Vec<(String, String)> {
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        panic!("no metrics in {result:?}");
    };
    metrics
        .iter()
        .map(|(name, m)| match (m.get("value"), m.get("unit")) {
            (Some(Value::F64(_) | Value::U64(_) | Value::I64(_)), Some(Value::Str(u))) => {
                (name.clone(), u.clone())
            }
            _ => panic!("metric {name} lacks a numeric value or a unit: {m:?}"),
        })
        .collect()
}

fn count(result: &Value, key: &str) -> u64 {
    match result.get(key) {
        Some(Value::U64(n)) => *n,
        other => panic!("{key} is not a count: {other:?}"),
    }
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = declared(kind);
        for workload in WORKLOADS {
            let (ok, result) = run(workload, trace, &[]);
            assert!(ok, "{workload} trace={trace} failed: {result:?}");
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            assert_eq!(count(&result, "failed"), 0, "{workload}");
            assert!(count(&result, "attempted") >= 1, "{workload}");
            assert_eq!(printed(&result), expected, "{workload} trace={trace}");
        }
    }
}

#[test]
fn a_tampered_result_fails_the_output_check() {
    for workload in ["detail-fp", "serve-mixed"] {
        let (ok, result) = run(workload, false, &["--tamper"]);
        assert!(!ok, "{workload}: a tampered run must exit non-zero");
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        assert!(count(&result, "failed") >= 1, "{workload}");
    }
}
