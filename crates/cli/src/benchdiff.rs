//! `ghr bench diff` — compare committed `BENCH_*.json` artifacts.
//!
//! CI uploads `BENCH_loadgen.json` on every run and the repo pins one
//! at the root; a perf change is only an argument when the two can be
//! compared mechanically. This subcommand reads two or more report
//! files with the workspace's own std-only JSON reader
//! ([`ghr_types::Json`]) — the first file is the baseline, every later
//! file is a candidate — aligns their `phases` arrays by phase name,
//! and renders the throughput, tail-latency, and hot-path counter
//! deltas per phase. Phases present in only one file render with `-`
//! instead of silently disappearing, so a report that *lost* a phase
//! (e.g. a run without `warm_recombine`) is visible in the diff. A phase
//! of fewer than 1000 requests on either side keeps its p99 values but
//! shows `-` as the p99 delta. Keys outside the phases are ignored, so
//! older reports that carried a top-level locked-cache speedup scalar
//! still diff against current ones.

use ghr_core::report::Table;
use ghr_types::Json;
use std::fmt::Write as _;

/// Fewest requests a phase needs for its p99 delta to mean anything:
/// below it the p99 is one of the phase's few slowest samples (of the
/// in-process phases, `cold` times 16 requests and `warm_recombine` 8,
/// so their p99 is their maximum).
const P99_MIN_REQUESTS: f64 = 1000.0;

/// One phase's numbers as pulled out of a report file.
struct PhaseNums {
    requests: Option<f64>,
    throughput_rps: Option<f64>,
    p50_ms: Option<f64>,
    p99_ms: Option<f64>,
    evaluated: Option<f64>,
}

/// One parsed report: display label (the path, plus the report's own
/// `--label` stamp when it carries one) and phase rows in order.
struct BenchFile {
    label: String,
    phases: Vec<(String, PhaseNums)>,
}

fn load(path: &str) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let phases = doc
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"phases\" array (not a bench report?)"))?
        .iter()
        .map(|phase| {
            let name = phase
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let num = |keys: &[&str]| phase.path(keys).and_then(Json::as_f64);
            (
                name,
                PhaseNums {
                    requests: num(&["requests"]),
                    throughput_rps: num(&["throughput_rps"]),
                    p50_ms: num(&["latency_ms", "p50"]),
                    p99_ms: num(&["latency_ms", "p99"]),
                    evaluated: num(&["hot_path", "evaluated"]),
                },
            )
        })
        .collect();
    // A report stamped with `ghr loadgen --label NAME` names itself in
    // the diff header, so two artifacts from the same path template
    // (e.g. regenerated BENCH files) stay tellable-apart.
    let label = match doc.get("label").and_then(Json::as_str) {
        Some(name) => format!("{path} [{name}]"),
        None => path.to_string(),
    };
    Ok(BenchFile { label, phases })
}

fn fmt_num(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) if v == v.trunc() && v.abs() < 1e15 => format!("{v}"),
        Some(v) => format!("{v:.4}"),
    }
}

/// `candidate vs baseline` as a signed percentage, `-` when either side
/// is missing or the baseline is zero (a 0 → N counter regression still
/// shows through the absolute columns).
fn fmt_delta(base: Option<f64>, cand: Option<f64>) -> String {
    match (base, cand) {
        (Some(b), Some(c)) if b != 0.0 => format!("{:+.1}%", (c - b) / b * 100.0),
        _ => "-".to_string(),
    }
}

/// `ghr bench diff BASELINE.json CANDIDATE.json [MORE.json...]` —
/// phase-aligned throughput/latency/counter deltas between bench
/// report files (the first file is the baseline).
pub fn cmd_bench_diff(rest: &[String]) -> Result<String, String> {
    if rest.len() < 2 {
        return Err("bench diff needs at least two report files: \
             ghr bench diff BASELINE.json CANDIDATE.json [MORE.json...]"
            .to_string());
    }
    let files: Vec<BenchFile> = rest.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
    let (baseline, candidates) = files.split_first().expect("len checked >= 2");

    // Phase order: baseline's order first, then any candidate-only
    // phases in first-appearance order.
    let mut phase_names: Vec<&str> = baseline.phases.iter().map(|(n, _)| n.as_str()).collect();
    for file in candidates {
        for (name, _) in &file.phases {
            if !phase_names.contains(&name.as_str()) {
                phase_names.push(name);
            }
        }
    }
    let find = |file: &BenchFile, name: &str| -> Option<usize> {
        file.phases.iter().position(|(n, _)| n == name)
    };

    let mut out = String::new();
    let _ = writeln!(out, "bench diff: baseline {}", baseline.label);
    for (i, c) in candidates.iter().enumerate() {
        let _ = writeln!(out, "  candidate {}: {}", i + 1, c.label);
    }
    out.push('\n');

    // Each metric with whether its delta needs P99_MIN_REQUESTS.
    type Pick = fn(&PhaseNums) -> Option<f64>;
    let metrics: [(&str, Pick, bool); 4] = [
        ("rps", |p| p.throughput_rps, false),
        ("p50 ms", |p| p.p50_ms, false),
        ("p99 ms", |p| p.p99_ms, true),
        ("evaluated", |p| p.evaluated, false),
    ];
    let small = |p: Option<&PhaseNums>| {
        p.and_then(|p| p.requests)
            .is_some_and(|n| n < P99_MIN_REQUESTS)
    };
    let mut t = Table::new(["phase", "metric", "baseline", "candidate", "delta"]);
    for name in &phase_names {
        let base = find(baseline, name).map(|i| &baseline.phases[i].1);
        for file in candidates {
            let cand = find(file, name).map(|i| &file.phases[i].1);
            for (label, pick, tail) in &metrics {
                let b = base.and_then(pick);
                let c = cand.and_then(pick);
                // Skip metrics absent on both sides (e.g. hot_path on
                // socket-mode reports) to keep the table readable.
                if b.is_none() && c.is_none() {
                    continue;
                }
                let delta = if *tail && (small(base) || small(cand)) {
                    "-".to_string()
                } else {
                    fmt_delta(b, c)
                };
                t.row([
                    name.to_string(),
                    label.to_string(),
                    fmt_num(b),
                    fmt_num(c),
                    delta,
                ]);
            }
        }
    }
    out.push_str(&t.to_markdown());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_report(dir: &std::path::Path, name: &str, body: &str) -> String {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn labelled_reports_name_themselves_in_the_header() {
        let dir = std::env::temp_dir().join(format!("ghr-benchdiff-label-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let labelled = report(1000.0, false).replacen(
            "\"bench\": \"loadgen\",",
            "\"bench\": \"loadgen\",\n  \"label\": \"router-2w\",",
            1,
        );
        let base = write_report(&dir, "a.json", &report(1000.0, false));
        let cand = write_report(&dir, "b.json", &labelled);
        let out = cmd_bench_diff(&[base, cand]).unwrap();
        assert!(out.contains("b.json [router-2w]"), "{out}");
        assert!(out.contains("a.json\n"), "plain path stays bare: {out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn report(rps: f64, extra_phase: bool) -> String {
        let mut phases = format!(
            "{{\"name\": \"warm\", \"throughput_rps\": {rps}, \
             \"latency_ms\": {{\"p50\": 0.001, \"p99\": 0.002}}, \
             \"hot_path\": {{\"evaluated\": 0}}}}"
        );
        if extra_phase {
            phases.push_str(
                ",\n    {\"name\": \"warm_recombine\", \"throughput_rps\": 1000, \
                 \"latency_ms\": {\"p50\": 0.01, \"p99\": 0.02}, \
                 \"hot_path\": {\"evaluated\": 0}}",
            );
        }
        format!("{{\n  \"bench\": \"loadgen\",\n  \"phases\": [\n    {phases}\n  ]\n}}\n")
    }

    #[test]
    fn diff_aligns_phases_and_reports_deltas() {
        let dir = std::env::temp_dir().join(format!("ghr-benchdiff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = write_report(&dir, "base.json", &report(1000.0, false));
        let cand = write_report(&dir, "cand.json", &report(2000.0, true));
        let out = cmd_bench_diff(&[base, cand]).unwrap();
        assert!(out.contains("| phase"), "{out}");
        assert!(out.contains("+100.0%"), "rps doubled: {out}");
        // The candidate-only phase still renders, with `-` baselines.
        assert!(out.contains("warm_recombine"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn small_phases_show_no_p99_delta() {
        let dir = std::env::temp_dir().join(format!("ghr-benchdiff-small-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let with_requests = |rps: f64, requests: u32| {
            report(rps, true)
                .replacen(
                    "\"name\": \"warm\",",
                    "\"name\": \"warm\", \"requests\": 50000,",
                    1,
                )
                .replacen(
                    "\"name\": \"warm_recombine\",",
                    &format!("\"name\": \"warm_recombine\", \"requests\": {requests},"),
                    1,
                )
        };
        // The p99 row's cells: phase, metric, baseline, candidate, delta.
        let p99 = |out: &str, phase: &str| -> Vec<String> {
            let row = out
                .lines()
                .find(|l| l.starts_with(&format!("| {phase} ")) && l.contains("p99 ms"))
                .unwrap_or_else(|| panic!("no {phase} p99 row: {out}"));
            row.split('|')
                .map(|cell| cell.trim().to_string())
                .filter(|cell| !cell.is_empty())
                .collect()
        };
        let base = write_report(&dir, "base.json", &with_requests(1000.0, 8));
        let cand = write_report(&dir, "cand.json", &with_requests(2000.0, 8));
        let out = cmd_bench_diff(&[base.clone(), cand]).unwrap();
        // The 8-request phase keeps its absolute p99s but no delta; the
        // 50 000-request phase keeps both.
        assert_eq!(p99(&out, "warm_recombine")[2..], ["0.0200", "0.0200", "-"]);
        assert_eq!(p99(&out, "warm")[4], "+0.0%", "{out}");
        // One small side is enough.
        let big = write_report(&dir, "big.json", &with_requests(2000.0, 5000));
        let out = cmd_bench_diff(&[base, big.clone()]).unwrap();
        assert_eq!(p99(&out, "warm_recombine")[4], "-", "{out}");
        // Reports without a request count diff as before.
        let plain = write_report(&dir, "plain.json", &report(1000.0, true));
        let out = cmd_bench_diff(&[plain, big]).unwrap();
        assert_eq!(p99(&out, "warm_recombine")[4], "+0.0%", "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reports_carrying_the_retired_speedup_scalar_still_diff() {
        let dir = std::env::temp_dir().join(format!("ghr-benchdiff-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // An older report: current phases plus the trailing locked-cache
        // speedup scalar that current reports no longer carry.
        let old = report(1000.0, false).replacen(
            "  ]\n}",
            "  ],\n  \"warm_speedup_vs_locked\": 1.25\n}",
            1,
        );
        // A report from the per-thread replica caches: its hot path also
        // carries the retired lock and replica counters.
        let replicas = report(1050.0, false).replacen(
            "\"evaluated\": 0}",
            "\"evaluated\": 0, \"warm_lock_acquisitions\": 0, \"replica_syncs\": 0, \
             \"replica_snapshot_hits\": 200, \"warm_locks\": {\"response\": 0, \
             \"point\": 0, \"series\": 0, \"corun\": 0}}",
            1,
        );
        let base = write_report(&dir, "old.json", &old);
        let mid = write_report(&dir, "replicas.json", &replicas);
        let cand = write_report(&dir, "new.json", &report(1100.0, false));
        let out = cmd_bench_diff(&[base, mid, cand]).unwrap();
        assert!(out.contains("+5.0%"), "replica-era rps still aligns: {out}");
        assert!(out.contains("+10.0%"), "warm rps still aligns: {out}");
        assert!(!out.contains("speedup"), "no speedup line: {out}");
        assert!(!out.contains("warm locks"), "no retired lock row: {out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diff_rejects_bad_inputs() {
        assert!(cmd_bench_diff(&[]).is_err());
        assert!(cmd_bench_diff(&["one.json".to_string()]).is_err());
        let err = cmd_bench_diff(&[
            "/nonexistent-a.json".to_string(),
            "/nonexistent-b.json".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");

        let dir = std::env::temp_dir().join(format!("ghr-benchdiff-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let not_bench = write_report(&dir, "x.json", "{\"no\": \"phases\"}");
        let err = cmd_bench_diff(&[not_bench.clone(), not_bench]).unwrap_err();
        assert!(err.contains("phases"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
