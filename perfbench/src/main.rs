//! `perfbench` — the repository's benchmark: four workloads against the
//! release `ghr` binary and the public API of its crates, every answer
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! perfbench --workload <serve-warm|router-warm|cold-stream|study-cold>
//!           --seed N --seconds S --trace 0|1 --ghr PATH --dir DIR
//!           [--corrupt-answer]
//! ```
//!
//! `--dir` is an empty scratch directory the run works in (stores,
//! sockets, logs). `--trace 0` prints the end-to-end metrics; `--trace 1`
//! replays the workload and prints the per-layer metrics. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--corrupt-answer` flips one byte of one answer before it
//! is checked, so the self-tests can prove a wrong answer is caught.
//! NOTES.md explains the workloads and what each metric should move.

mod cold;
mod proc;
mod study;
mod util;
mod warm;
mod wire;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every end-to-end metric, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("store_mb", "MB"),
    ("table1_max_err_pct", "%"),
    ("sec4_max_err_pct", "%"),
];

/// Every per-layer metric, printed by every traced run. A layer the
/// workload does not load reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.line_us_p50", "us"),
    ("serve.render_us_p50", "us"),
    ("serve.log_bytes_per_req", "B"),
    ("serve.cpu_us_per_req", "us"),
    ("serve.ctx_switches_per_req", "count"),
    ("transport.us_p50", "us"),
    ("engine.respond_us_p50", "us"),
    ("engine.response_hit_rate", "ratio"),
    ("engine.evaluated_per_req", "count"),
    ("engine.coalesced", "count"),
    ("engine.replica_log_mb", "MB"),
    ("engine.stage_log_len", "count"),
    ("plan.us_p50", "us"),
    ("plan.items_per_req", "count"),
    ("exec.teams_ms", "ms"),
    ("exec.series_ms", "ms"),
    ("exec.assemble_ms", "ms"),
    ("store.flush_ms_p50", "ms"),
    ("store.flush_share", "ratio"),
    ("store.bytes_written_per_req", "B"),
    ("store.rows", "count"),
    ("store.open_ms", "ms"),
    ("corun.series_ms_p50", "ms"),
    ("corun.point_ms_p50", "ms"),
    ("corun.reps_per_s", "1/s"),
    ("mem.migrated_gb", "GB"),
    ("mem.cpu_remote_gb", "GB"),
    ("mem.gpu_remote_gb", "GB"),
    ("gpusim.point_us_p50", "us"),
    ("gpusim.points_per_req", "count"),
    ("kernels.checksum_us_p50", "us"),
    ("kernels.placement_us_p50", "us"),
    ("router.route_key_us_p50", "us"),
    ("router.overhead_us_p50", "us"),
    ("router.cpu_us_per_req", "us"),
    ("router.ctx_switches_per_req", "count"),
    ("worker.cpu_us_per_req", "us"),
    ("router.worker_sessions_per_1k", "count"),
    ("router.forwarded", "count"),
    ("router.rerouted", "count"),
    ("router.rejected", "count"),
    ("router.ring_share_max", "ratio"),
    ("router.burst8_parked", "count"),
    ("router.burst8_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ghr: PathBuf,
    pub dir: PathBuf,
    pub corrupt: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut corrupt = false;
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--corrupt-answer" => corrupt = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--ghr" | "--dir" => {
                    let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                    flags.insert(a.as_str(), v.as_str());
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let need = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
        let seconds: f64 = need("--seconds")?
            .parse()
            .map_err(|_| "--seconds needs a number".to_string())?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds {seconds} out of range (0, 120]"));
        }
        Ok(Args {
            workload: need("--workload")?.to_string(),
            seed: need("--seed")?
                .parse()
                .map_err(|_| "--seed needs an unsigned integer".to_string())?,
            seconds,
            trace: match need("--trace")? {
                "0" => false,
                "1" => true,
                v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
            },
            ghr: PathBuf::from(need("--ghr")?),
            dir: PathBuf::from(need("--dir")?),
            corrupt,
        })
    }
}

/// What one run measured and how many of its answers were wrong.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks that are not single answers (a broken connection, a
    /// fidelity line missing from an answer).
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed before the result (digests, counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked answer.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: {what}");
        self.problems.push(what);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The end-to-end timings of the run, from its quietest slices;
    /// returns the throughput.
    pub fn set_timing(&mut self, slices: &[util::Slice]) -> f64 {
        let m = util::Slice::quiet(slices);
        let loud = slices.iter().map(|s| s.steal).fold(0.0, f64::max);
        self.note(format!(
            "{} of {} slices used; CPU stolen by other guests: at most {:.1}% in those, up to {:.1}% in all",
            m.used,
            slices.len(),
            m.steal * 100.0,
            loud * 100.0
        ));
        self.set("throughput_rps", m.rate);
        self.set("latency_p50_ms", m.p50_us / 1000.0);
        self.set("latency_p90_ms", m.p90_us / 1000.0);
        m.rate
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `exec.<kind>_ms`: executor stage time per request for each stage
    /// kind (the part of a stage name after its request label).
    pub fn set_stage_ms(&mut self, stages: &[ghr_types::StageTiming], requests: usize) {
        for (metric, kind) in [
            ("exec.teams_ms", "teams"),
            ("exec.series_ms", "series"),
            ("exec.assemble_ms", "assemble"),
        ] {
            let ms: f64 = stages
                .iter()
                .filter(|s| s.name.rsplit(": ").next() == Some(kind))
                .map(|s| s.millis)
                .sum();
            self.set(metric, ms / requests.max(1) as f64);
        }
    }
}

/// The result line and the human-readable lines before it.
fn render(args: &Args, mut out: Outcome) -> Result<String, String> {
    if out.attempted == 0 {
        return Err(format!("{} checked no answers", args.workload));
    }
    let ok = (out.attempted - out.failed) as f64 / out.attempted as f64;
    out.set("ok_pct", ok * 100.0);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut text = String::new();
    for note in &out.notes {
        let _ = writeln!(text, "{note}");
    }
    let mut json = String::new();
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            // A layer the workload does not load, or a run cut short by
            // a failed round trip (reported as not correct).
            None if args.trace || !out.problems.is_empty() => 0.0,
            None => return Err(format!("{} did not measure {name}", args.workload)),
        };
        // An empty float sum is -0.0; print it as 0.
        let value = value + 0.0;
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        let _ = writeln!(text, "metric {name} = {value} {unit}");
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    let _ = writeln!(
        text,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        out.attempted, out.failed
    );
    Ok(text)
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = Args::parse(argv)?;
    let ghr = std::fs::canonicalize(&args.ghr)
        .map_err(|e| format!("cannot find the ghr binary {}: {e}", args.ghr.display()))?;
    let args = Args { ghr, ..args };
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    std::env::set_current_dir(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    proc::become_subreaper();
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "serve-warm" => warm::run(&args, false, &mut out)?,
        "router-warm" => warm::run(&args, true, &mut out)?,
        "cold-stream" => cold::run(&args, &mut out)?,
        "study-cold" => study::run(&args, &mut out)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    render(&args, out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
