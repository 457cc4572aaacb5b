//! Self-tests of the benchmark. Every workload, run briefly, prints every
//! metric `BENCHMARK.json` declares, finite and tagged with its unit; and
//! a deliberately corrupted answer is counted as failed.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` builds the
//! checkout's `ghr` first.

use ghr_types::Json;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
}

fn tmp() -> &'static Path {
    Path::new(env!("CARGO_TARGET_TMPDIR"))
}

/// The release `ghr` of this checkout, built once, in a target directory
/// of its own so the build never waits on the lock `cargo test` holds.
fn ghr() -> &'static Path {
    static GHR: OnceLock<PathBuf> = OnceLock::new();
    GHR.get_or_init(|| {
        let target = tmp().join("ghr-build");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args([
                "build",
                "--release",
                "--offline",
                "-p",
                "ghr-cli",
                "--bin",
                "ghr",
            ])
            .arg("--manifest-path")
            .arg(repo().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building ghr failed");
        target.join("release").join("ghr")
    })
}

fn declared() -> Json {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn workloads() -> Vec<String> {
    declared()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Run one workload for a second; return its result line and all stdout.
fn run(workload: &str, trace: bool, corrupt: bool) -> (Json, String) {
    let dir = tmp().join(format!("{workload}-{trace}-{corrupt}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--ghr")
        .arg(ghr())
        .arg("--dir")
        .arg(&dir);
    if corrupt {
        cmd.arg("--corrupt-answer");
    }
    let out = cmd.output().expect("perfbench runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    (Json::parse(last).expect("the last line is JSON"), stdout)
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).expect(key)
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let declared = declared();
    for workload in workloads() {
        for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let (result, stdout) = run(&workload, trace, false);
            let ctx = format!("{workload} --trace {}", u8::from(trace));
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{ctx}: {stdout}"
            );
            assert!(count(&result, "attempted") >= 1.0, "{ctx}");
            assert_eq!(count(&result, "failed"), 0.0, "{ctx}");
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{ctx}: no metrics object");
            };
            let wanted = declared.get(kind).and_then(Json::as_arr).expect(kind);
            assert_eq!(
                metrics.len(),
                wanted.len(),
                "{ctx}: exactly the {kind} metrics"
            );
            for metric in wanted {
                let name = metric.get("name").and_then(Json::as_str).expect("name");
                let unit = metric.get("unit").and_then(Json::as_str).expect("unit");
                let got = result
                    .path(&["metrics", name])
                    .unwrap_or_else(|| panic!("{ctx}: no {name}"));
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{ctx}: {name}"
                );
                let value = got
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{ctx}: {name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{ctx}: end-to-end {name} must never read 0");
                }
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("metric {name} = "))
                            && l.ends_with(&format!(" {unit}"))),
                    "{ctx}: {name} is not printed with its unit"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_answer_is_counted_as_failed() {
    for workload in workloads() {
        let (result, _) = run(&workload, false, true);
        assert_eq!(
            result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        assert!(count(&result, "failed") >= 1.0, "{workload}");
    }
}
