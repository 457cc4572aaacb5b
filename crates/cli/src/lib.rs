//! `ghr` — regenerate any table or figure of the paper from the command
//! line.
//!
//! ```text
//! ghr table1 [--compare]        Table 1 (baseline vs optimized)
//! ghr fig1 <c1|c2|c3|c4> [--csv]  Fig. 1 panel for one case
//! ghr fig2a|fig2b|fig4a|fig4b   co-execution series (all four cases)
//! ghr fig3|fig5                 optimized/baseline speedups per p
//! ghr summary                   Section IV aggregate numbers vs the paper
//! ghr autotune                  tuned (teams, V) per case
//! ghr dot|scan|gemv <case>      descriptor-timed workload sweep + checksum
//! ghr verify [m]                functional verification at m elements
//! ghr bench [--quick]           time the real kernels (scalar vs SIMD)
//! ghr calibrate [sweeps]        re-fit the GPU model against Table 1
//! ghr calibrate cpu [--quick]   fit the CPU model to measured throughput
//! ghr machine                   print the simulated node description
//! ghr all <dir>                 write every artifact as markdown into dir
//! ghr plan <command|all>        dry-run: print the lowered work-item DAG
//! ghr serve [--socket PATH]     concurrent request loop over one warm engine
//! ghr client --socket PATH ...  send request lines to a serve endpoint
//! ghr loadgen --socket PATH     drive load at a live serve/router endpoint
//! ghr cache <stats|clear|path>  inspect or drop the persistent result cache
//! ```
//!
//! Every experiment command routes through the engine's declarative
//! pipeline: the command resolves to a [`ghr_core::Request`], the planner
//! lowers it into a deduplicated DAG of cacheable work items, and the
//! executor walks that DAG, fanning each stage across threads.
//! `ghr plan <command>` prints the lowered DAG without executing
//! anything; `ghr serve` keeps
//! one engine warm across many requests so repeats are answered from the
//! response cache with zero re-planning (see [`serve`]).
//!
//! Every command accepts the global flags `--threads N` (at most N
//! threads per engine fan stage, the caller included; default
//! `GHR_THREADS`, then the host's available parallelism; `--threads 1`
//! forces the serial reference path),
//! `--stats` (append engine counters — points evaluated, cache hit
//! rate, persistent-store traffic, wall time — to the output) and
//! `--stats-json` (emit the same counters plus per-stage executor timings
//! as one JSON object on stderr, leaving stdout byte-identical). Output is
//! byte-identical at every thread count. Every command reads its flags
//! with one grammar: a value flag takes `--x v` or `--x=v`, a bare `--x`
//! is a switch, and anything else is a positional word.
//!
//! Results persist across processes in a versioned on-disk store
//! (`$GHR_CACHE_DIR`, else `$XDG_CACHE_HOME/ghr`, else `~/.cache/ghr`);
//! `--cache-dir DIR` overrides the location and `--no-cache` disables it
//! for one invocation. A second `ghr all` over the same store re-renders
//! every artifact without evaluating a single point.
//!
//! The functional reductions behind `verify`, `bench` and `calibrate cpu`
//! run on the vectorized kernel layer in `ghr-parallel::simd`; the
//! `GHR_SIMD` environment variable (`off|sse2|avx2|neon|auto`) forces a
//! backend, and `--stats` reports which one was selected.

use flags::{count, seconds, Arg, Flags};
use ghr_core::{
    accuracy::accuracy_study,
    autotune::TunedConfig,
    case::Case,
    corun::{AllocSite, CorunConfig, CorunSeries},
    engine::Engine,
    kernels::{WorkloadResult, FUNC_M, GEMV_COLS_DEFAULT},
    plot::AsciiChart,
    reduction::{KernelKind, ReductionSpec},
    report::{fmt_gbps, fmt_speedup, Table},
    request::{Request, Response},
    sched::{compare_policies, comparison_table},
    study::CorunStudy,
    sweep::SweepResult,
    table1::Table1,
    verify,
    whatif::WhatIfStudy,
};
use ghr_gpusim::calibrate;
use ghr_machine::MachineConfig;
use ghr_omp::OmpRuntime;
use ghr_types::DType;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

pub mod benchdiff;
mod flags;
pub mod loadgen;
pub mod router;
pub mod serve;

pub fn usage() -> &'static str {
    "usage: ghr <table1|fig1|fig2a|fig2b|fig3|fig4a|fig4b|fig5|summary|autotune|dot|scan|gemv|\
sched|accuracy|whatif|sensitivity|explain|verify|bench|calibrate|machine|all|plan|serve|router|\
client|loadgen|cache> [args]\n\
     co-run figures accept --plot and --advice; fig1 accepts --csv and --plot;\n\
     `ghr cache <stats|clear|path>` inspects or drops the persistent store;\n\
     `ghr bench [--quick] [--v N] [--kernel-threads N]` times the real scalar\n\
     and SIMD kernels on this host (GHR_SIMD=off|sse2|avx2|neon|auto forces\n\
     a backend); `ghr calibrate cpu [--quick]` fits the CPU model to those\n\
     measurements; `ghr dot|scan|gemv <c1..c4> [--m N] [--cols N]` sweeps the\n\
     teams axis for a descriptor-timed workload (GEMV takes --cols; every\n\
     run appends the real kernels' functional checksum, bit-identical\n\
     across SIMD backends);\n\
     `ghr plan <command|all>` prints the lowered work-item DAG (a dry run:\n\
     stages, items, predicted cache hits — nothing executes); `ghr serve\n\
     [--socket PATH | --tcp HOST:PORT] [--sessions N] [--max-idle SECS]\n\
     [--max-inflight N] [--max-frame BYTES]` answers line-delimited experiment\n\
     requests over one warm engine — connections run concurrently on up to N\n\
     sessions (default: engine threads); a bare --tcp PORT\n\
     binds loopback (external binds must be named and warn); past the\n\
     --max-inflight budget arrivals get `ghr-error reason=overload`\n\
     immediately; lines over --max-frame bytes are rejected as oversized;\n\
     quit/exit ends one session, `ghr-shutdown`/SIGTERM drains the server;\n\
     `ghr router [--socket PATH | --tcp HOST:PORT] [--workers N |\n\
     --attach SOCK ... | --attach-tcp HOST:PORT ...] [--sessions N]\n\
     [--worker-inflight N] [--pipeline K] [--retire-after SECS]\n\
     [--max-idle SECS] [--max-frame BYTES]` consistent-hashes request ids\n\
     onto N serve workers (spawned children sharing --cache-dir, or attached\n\
     already-running endpoints — unix or cross-host TCP) and streams their\n\
     frames back byte-identically, up to K request lines in flight per\n\
     connection with responses in arrival order — a dead worker's range\n\
     re-routes to its ring successor (and retires for good after\n\
     --retire-after seconds), a `ghr-join ENDPOINT` control line attaches a\n\
     worker at runtime moving only its vnode share of keys, a spent\n\
     per-worker budget answers reason=overload, and --stats-json renders the\n\
     per-worker forwarded/rejected/rerouted ledger at drain; `ghr client\n\
     [--socket PATH | --tcp HOST:PORT] [request...]` sends request lines to\n\
     a serve/router endpoint and prints the frames; `ghr loadgen\n\
     (--socket PATH | --tcp HOST:PORT) [--requests N] [--conns N]\n\
     [--catalog N] [--zipf S] [--rate RPS] [--seed N] [--overload-conns N]\n\
     [--failover-pid PID [--failover-after N]] [--label L]\n\
     [--out FILE|--no-out]` drives open/closed-loop load (zipf-distributed\n\
     request ids) at a live serve/router endpoint and reports per-phase and\n\
     per-class throughput and p50/p95/p99 latency (JSON to\n\
     BENCH_loadgen.json by default); `ghr bench diff\n\
     BASELINE.json CANDIDATE.json [MORE...]` compares committed bench\n\
     reports phase by phase;\n\
     global flags: --threads N (or GHR_THREADS; engine worker threads),\n\
     --stats (append points evaluated / cache hit rate / store traffic / wall time),\n\
     --stats-json (engine counters + per-stage timings as JSON on stderr),\n\
     --cache-dir DIR (persistent store location; default GHR_CACHE_DIR, then\n\
     ~/.cache/ghr) and --no-cache (skip the persistent store entirely);\n\
     every value flag takes `--x v` or `--x=v`, and a bare `--x` is a switch;\n\
     run `ghr help` or see the crate docs for details"
}

/// Global flags shared by every command, stripped from the argument list
/// before command-specific parsing.
struct GlobalOpts {
    /// Engine worker threads; 0 = resolve via `GHR_THREADS`, then the
    /// host's available parallelism.
    threads: usize,
    /// Append engine counters to the output.
    stats: bool,
    /// Emit engine counters + per-stage timings as JSON on stderr.
    stats_json: bool,
    /// Skip the persistent store for this invocation.
    no_cache: bool,
    /// Explicit persistent-store directory (overrides `GHR_CACHE_DIR`).
    cache_dir: Option<String>,
}

fn parse_global(rest: &[String]) -> Result<(GlobalOpts, Vec<String>), String> {
    let mut opts = GlobalOpts {
        threads: 0,
        stats: false,
        stats_json: false,
        no_cache: false,
        cache_dir: None,
    };
    let mut filtered = Vec::with_capacity(rest.len());
    let mut flags = Flags::new(rest);
    while let Some(arg) = flags.next() {
        match arg {
            Arg::Flag("--stats") => opts.stats = flags.switch()?,
            Arg::Flag("--stats-json") => opts.stats_json = flags.switch()?,
            Arg::Flag("--no-cache") => opts.no_cache = flags.switch()?,
            Arg::Flag("--threads") => opts.threads = count("thread count", flags.value()?)?,
            Arg::Flag("--cache-dir") => opts.cache_dir = Some(flags.value()?.to_string()),
            // Everything else is the command's own to parse.
            _ => filtered.push(flags.raw().to_string()),
        }
    }
    Ok((opts, filtered))
}

/// Where this invocation keeps its persistent store, if anywhere.
///
/// `--no-cache` wins outright; an explicit `--cache-dir` or
/// `GHR_CACHE_DIR` is always honored; otherwise the home-directory
/// default applies — except under `cargo test`, where falling back to the
/// developer's real `~/.cache/ghr` would make test output depend on (and
/// pollute) state outside the test tree.
fn effective_cache_dir(opts: &GlobalOpts) -> Option<PathBuf> {
    if opts.no_cache {
        return None;
    }
    if let Some(dir) = &opts.cache_dir {
        return Some(PathBuf::from(dir));
    }
    match std::env::var("GHR_CACHE_DIR") {
        Ok(dir) if !dir.is_empty() => Some(PathBuf::from(dir)),
        _ if cfg!(test) => None,
        _ => ghr_core::resolve_cache_dir(None),
    }
}

pub fn run(cmd: &str, rest: &[String]) -> Result<String, String> {
    if matches!(cmd, "help" | "--help" | "-h") {
        return Ok(format!("{}\n", usage()));
    }
    let (opts, rest) = parse_global(rest)?;
    let cache_dir = effective_cache_dir(&opts);
    if cmd == "cache" {
        return cmd_cache(cache_dir.as_deref(), &rest);
    }
    if cmd == "client" {
        return cmd_client(&rest);
    }
    if cmd == "loadgen" {
        return loadgen::cmd_loadgen(&rest);
    }
    // The router has no engine of its own — it forwards to workers that
    // each hold one — so it runs before engine construction, like the
    // other engine-less commands.
    if cmd == "router" {
        return router::cmd_router(
            cache_dir.as_deref(),
            opts.no_cache,
            opts.threads,
            opts.stats_json,
            &rest,
        );
    }
    let mut engine = Engine::new(MachineConfig::gh200(), opts.threads);
    if let Some(dir) = &cache_dir {
        engine = engine.with_store_dir(dir);
    }
    // Serve sessions run on their own threads over this one engine, so it
    // lives behind an `Arc`; every other command just derefs through it.
    let engine = Arc::new(engine);
    let start = std::time::Instant::now();
    let mut out = dispatch(&engine, cmd, &rest)?;
    if let Err(e) = engine.flush_store() {
        let _ = writeln!(out, "\nwarning: persistent cache flush failed: {e}");
    }
    if opts.stats {
        let s = engine.stats();
        let _ = writeln!(
            out,
            "\nengine: {} points evaluated, {} cache hits ({:.1}% hit rate), \
             {} threads, wall {:.1} ms",
            s.evaluated,
            s.hits,
            s.hit_rate() * 100.0,
            s.threads,
            start.elapsed().as_secs_f64() * 1000.0
        );
        if engine.store().is_some() {
            let _ = writeln!(
                out,
                "persistent cache: {} entries loaded, {} hits, {} misses, {} stored",
                s.persistent_loaded, s.persistent_hits, s.persistent_misses, s.persistent_stored
            );
        }
        if s.sweep_evaluated > 0 {
            let _ = writeln!(
                out,
                "refined sweeps: {} grid points evaluated, {} skipped",
                s.sweep_evaluated, s.sweep_skipped
            );
        }
        if s.requests > 0 {
            let _ = writeln!(
                out,
                "pipeline: {} requests, {} response hits, {} coalesced, {} stages executed",
                s.requests,
                s.response_hits,
                s.coalesced,
                engine.stages_executed()
            );
            let _ = writeln!(
                out,
                "in-flight: {} claims, {} joins",
                s.inflight_claims, s.inflight_joins
            );
        }
        let _ = writeln!(out, "kernel backend: {}", ghr_parallel::simd::report());
    }
    if opts.stats_json {
        eprintln!(
            "{}",
            serve::stats_json(
                &engine.stats(),
                &engine.stage_timings(),
                start.elapsed().as_secs_f64() * 1000.0
            )
        );
    }
    Ok(out)
}

/// `ghr cache <stats|clear|path>` — manage the persistent store without
/// constructing an engine.
fn cmd_cache(dir: Option<&std::path::Path>, rest: &[String]) -> Result<String, String> {
    let sub = rest.first().map(String::as_str).unwrap_or("stats");
    let Some(dir) = dir else {
        return Ok("persistent cache disabled (no cache directory; \
                   set GHR_CACHE_DIR or pass --cache-dir)\n"
            .to_string());
    };
    let fingerprint = ghr_core::engine::machine_fingerprint(&MachineConfig::gh200());
    match sub {
        "path" => {
            let file = dir.join(ghr_core::store::store_file_name(fingerprint));
            Ok(format!("{}\n", file.display()))
        }
        "stats" => {
            let store = ghr_core::PersistentStore::open(dir, fingerprint);
            let size = std::fs::metadata(store.path())
                .map(|m| m.len())
                .unwrap_or(0);
            let mut out = String::new();
            let _ = writeln!(out, "persistent cache at {}", store.path().display());
            let _ = writeln!(
                out,
                "  {} entries for this machine fingerprint ({fingerprint:016x}), {size} bytes",
                store.loaded()
            );
            let others = cache_store_files(dir)?
                .into_iter()
                .filter(|p| p.as_path() != store.path())
                .count();
            let _ = writeln!(
                out,
                "  {others} store file(s) for other fingerprints/schemas"
            );
            let _ = writeln!(
                out,
                "hot path (per process, not persisted): response hits and coalesced \
                 evaluations\n  (--stats) and in-memory cache bytes (--stats-json) are \
                 engine counters\n  on any command or serve run"
            );
            Ok(out)
        }
        "clear" => {
            let files = cache_store_files(dir)?;
            let mut removed = 0usize;
            for f in &files {
                std::fs::remove_file(f).map_err(|e| format!("{}: {e}", f.display()))?;
                removed += 1;
            }
            Ok(format!(
                "removed {removed} store file(s) from {}\n",
                dir.display()
            ))
        }
        other => Err(format!(
            "unknown cache subcommand {other:?}; use stats|clear|path"
        )),
    }
}

/// Every `results-*.ghr` store file in `dir` (any schema or fingerprint);
/// nothing else in the directory is ever touched.
fn cache_store_files(dir: &std::path::Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(files), // missing dir = empty cache
    };
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("results-") && name.ends_with(".ghr") {
            files.push(entry.path());
        }
    }
    files.sort();
    Ok(files)
}

pub(crate) fn dispatch(engine: &Arc<Engine>, cmd: &str, rest: &[String]) -> Result<String, String> {
    if let Some(render) = Render::parse(cmd, rest) {
        return render.answer(engine, rest);
    }
    let machine = engine.machine();
    match cmd {
        "machine" => cmd_machine(machine),
        "sched" => {
            let case = parse_case(rest.first().map(String::as_str).unwrap_or("c1"))?;
            cmd_sched(machine, case)
        }
        "accuracy" => cmd_accuracy(),
        "explain" => cmd_explain(machine, rest),
        "sensitivity" => cmd_sensitivity(),
        "verify" => {
            let m = match rest.first() {
                Some(s) => s
                    .parse::<u64>()
                    .map_err(|_| format!("bad element count {s:?}"))?,
                None => 1_000_000,
            };
            cmd_verify(machine, m)
        }
        // `bench diff` compares report files; bare `bench` runs kernels.
        "bench" if rest.first().is_some_and(|a| a == "diff") => {
            benchdiff::cmd_bench_diff(&rest[1..])
        }
        "bench" => cmd_bench(rest),
        "calibrate" => {
            if rest.first().map(String::as_str) == Some("cpu") {
                return cmd_calibrate_cpu(machine, &rest[1..]);
            }
            let sweeps = match rest.first() {
                Some(s) => s
                    .parse::<u32>()
                    .map_err(|_| format!("bad sweep count {s:?}"))?,
                None => 40,
            };
            cmd_calibrate(sweeps)
        }
        "all" => {
            let dir = rest
                .first()
                .ok_or_else(|| "`ghr all` needs an output directory".to_string())?;
            cmd_all(engine, dir)
        }
        "plan" => cmd_plan(engine, rest),
        "serve" => cmd_serve(engine, rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// The experiment commands that resolve to a declarative request (and are
/// therefore plannable and servable).
pub(crate) const SERVABLE: &str =
    "table1, fig1 <case>, fig2a, fig2b, fig3, fig4a, fig4b, fig5, summary, autotune, whatif, \
     dot <case>, scan <case>, gemv <case>";

/// Resolve an experiment command line to the declarative [`Request`] it
/// runs — the single source of truth shared by `ghr plan`, `ghr serve`,
/// the router's `route_key` and the one-shot commands. `Ok(None)` means
/// the command exists but is not request-backed (`bench`, `verify`,
/// `machine`, …).
pub(crate) fn request_for(cmd: &str, rest: &[String]) -> Result<Option<Request>, String> {
    Render::parse(cmd, rest)
        .map(|render| render.request(rest))
        .transpose()
}

/// The servable experiment commands: each resolves to a declarative
/// [`Request`] and renders its response through [`Render::body`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Table1,
    Fig1,
    Fig2a,
    Fig2b,
    Fig3,
    Fig4a,
    Fig4b,
    Fig5,
    Summary,
    Autotune,
    WhatIf,
    Dot,
    Scan,
    Gemv,
}

impl Command {
    fn parse(cmd: &str) -> Option<Self> {
        Some(match cmd {
            "table1" => Command::Table1,
            "fig1" => Command::Fig1,
            "fig2a" => Command::Fig2a,
            "fig2b" => Command::Fig2b,
            "fig3" => Command::Fig3,
            "fig4a" => Command::Fig4a,
            "fig4b" => Command::Fig4b,
            "fig5" => Command::Fig5,
            "summary" => Command::Summary,
            "autotune" => Command::Autotune,
            "whatif" => Command::WhatIf,
            "dot" => Command::Dot,
            "scan" => Command::Scan,
            "gemv" => Command::Gemv,
            _ => return None,
        })
    }

    /// Whether this is one of the four co-run figures (fig2a/2b/4a/4b).
    fn is_corun_fig(self) -> bool {
        matches!(
            self,
            Command::Fig2a | Command::Fig2b | Command::Fig4a | Command::Fig4b
        )
    }
}

/// How one servable command line is answered: its command plus every
/// switch that command's renderer reads, parsed once, so the request,
/// the renderer and the body memo's key ([`Render::variant`]) read the
/// same options. A switch the command's renderer ignores stays unset:
/// `table1 --csv` renders, and keys, as `table1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Render {
    command: Command,
    compare: bool,
    csv: bool,
    plot: bool,
    advice: bool,
}

impl Render {
    /// The render options of `cmd rest…`, or `None` when `cmd` is not a
    /// servable command.
    pub(crate) fn parse(cmd: &str, rest: &[String]) -> Option<Self> {
        let command = Command::parse(cmd)?;
        let has = |switch: &str| rest.iter().any(|a| a == switch);
        Some(Render {
            command,
            compare: command == Command::Table1 && has("--compare"),
            csv: command == Command::Fig1 && has("--csv"),
            plot: (command == Command::Fig1 || command.is_corun_fig()) && has("--plot"),
            advice: command.is_corun_fig() && has("--advice"),
        })
    }

    /// The command and its switches packed into one word: the body
    /// memo's key next to the request id ([`Engine::render_once`]).
    pub(crate) fn variant(self) -> u32 {
        self.command as u32
            | u32::from(self.compare) << 8
            | u32::from(self.csv) << 9
            | u32::from(self.plot) << 10
            | u32::from(self.advice) << 11
    }

    /// The declarative request the line resolves to.
    pub(crate) fn request(self, rest: &[String]) -> Result<Request, String> {
        let corun = |alloc, optimized| Request::corun_fig(alloc, optimized, self.advice);
        Ok(match self.command {
            Command::Table1 => Request::Table1,
            Command::Fig1 => Request::fig1(parse_case(
                rest.first().map(String::as_str).unwrap_or("c1"),
            )?),
            Command::Fig2a => corun(AllocSite::A1, false),
            Command::Fig2b => corun(AllocSite::A1, true),
            Command::Fig4a => corun(AllocSite::A2, false),
            Command::Fig4b => corun(AllocSite::A2, true),
            Command::Fig3 => Request::speedup_fig(AllocSite::A1),
            Command::Fig5 => Request::speedup_fig(AllocSite::A2),
            Command::Summary => Request::Study {
                m: None,
                n_reps: None,
            },
            Command::Autotune => Request::autotune_all(),
            Command::WhatIf => Request::WhatIf,
            Command::Dot => parse_workload("dot", rest)?,
            Command::Scan => parse_workload("scan", rest)?,
            Command::Gemv => parse_workload("gemv", rest)?,
        })
    }

    /// Render the line's body from its evaluated response. The one-shot
    /// command and `ghr serve` both render here, so a serve frame body is
    /// byte-identical to the `ghr <command>` output.
    pub(crate) fn body(self, response: &Response) -> Result<String, String> {
        let shape = |e: ghr_types::GhrError| e.to_string();
        let corun = |alloc, optimized| -> Result<String, String> {
            let series = response.corun().map_err(shape)?;
            Ok(render_corun_fig(
                alloc,
                optimized,
                self.plot,
                self.advice,
                series,
            ))
        };
        Ok(match self.command {
            Command::Table1 => render_table1(response.table1().map_err(shape)?, self.compare),
            Command::Fig1 => render_fig1(response.sweep().map_err(shape)?, self.csv, self.plot),
            Command::Fig2a => corun(AllocSite::A1, false)?,
            Command::Fig2b => corun(AllocSite::A1, true)?,
            Command::Fig4a => corun(AllocSite::A2, false)?,
            Command::Fig4b => corun(AllocSite::A2, true)?,
            Command::Fig3 => render_speedup_fig(AllocSite::A1, response.corun().map_err(shape)?),
            Command::Fig5 => render_speedup_fig(AllocSite::A2, response.corun().map_err(shape)?),
            Command::Summary => render_summary(response.study().map_err(shape)?),
            Command::Autotune => render_autotune(response.autotune().map_err(shape)?),
            Command::WhatIf => render_whatif(response.whatif().map_err(shape)?),
            Command::Dot | Command::Scan | Command::Gemv => {
                render_workload(response.workload().map_err(shape)?)
            }
        })
    }

    /// Evaluate the line on `engine` and render it — the one-shot path.
    fn answer(self, engine: &Engine, rest: &[String]) -> Result<String, String> {
        let response = engine
            .run(&self.request(rest)?)
            .map_err(|e| e.to_string())?;
        self.body(&response)
    }
}

/// Parse `ghr dot|scan|gemv [case] [--m N] [--cols N]` into its request.
/// The case defaults to C1; `--cols` is GEMV-only.
fn parse_workload(cmd: &str, rest: &[String]) -> Result<Request, String> {
    let mut case: Option<Case> = None;
    let mut m: Option<u64> = None;
    let mut cols: Option<u32> = None;
    let mut flags = Flags::new(rest);
    while let Some(arg) = flags.next() {
        match arg {
            Arg::Flag("--m") => m = Some(count("element count", flags.value()?)?),
            Arg::Flag("--cols") => cols = Some(count("row length", flags.value()?)?),
            Arg::Word(word) if case.is_none() => case = Some(parse_case(word)?),
            _ => return Err(format!("unknown {cmd} argument {:?}", flags.raw())),
        }
    }
    if cols.is_some() && cmd != "gemv" {
        return Err(format!("--cols only applies to gemv, not {cmd}"));
    }
    let case = case.unwrap_or(Case::C1);
    Ok(match cmd {
        "dot" => Request::Dot { case, m },
        "scan" => Request::Scan { case, m },
        _ => Request::Gemv {
            case,
            cols: cols.unwrap_or(GEMV_COLS_DEFAULT),
            m,
        },
    })
}

/// Render a [`WorkloadResult`]: the sweep table plus the GPU-vs-CPU
/// roofline, the first-touch placement it implies, and the functional
/// checksum (bit-identical across SIMD backends by the kernel contract,
/// so this output byte-diffs clean under any forced `GHR_SIMD`).
fn render_workload(r: &WorkloadResult) -> String {
    let desc = r.descriptor();
    let case = r.case;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} {case} ({}) — descriptor-timed teams sweep, combine={}, V={}\n",
        r.kind.name(),
        case.signature(),
        desc.combine.name(),
        case.v_optimized(),
    );
    let mut t = Table::new(["teams", "GB/s"]);
    for p in &r.points {
        t.row([p.teams.to_string(), fmt_gbps(p.gbps)]);
    }
    out.push_str(&t.to_markdown());
    let _ = writeln!(
        out,
        "\nbest: {} GB/s at teams={} ({} elements, {:.2} GB moved, \
         intensity {:.3} flop/byte)",
        fmt_gbps(r.best_gbps),
        r.best_teams,
        r.m,
        desc.bytes_moved(r.m) as f64 / 1e9,
        desc.arithmetic_intensity(r.m),
    );
    let _ = writeln!(
        out,
        "cpu roofline over the same bytes: {} GB/s",
        fmt_gbps(r.cpu_gbps)
    );
    let _ = writeln!(
        out,
        "first touch: {} memory (the {} leg wins the roofline)",
        r.placement,
        if r.placement == ghr_core::Placement::Device {
            "GPU"
        } else {
            "CPU"
        },
    );
    let _ = writeln!(
        out,
        "functional checksum at {FUNC_M} elements: {}",
        r.checksum
    );
    out
}

/// The request set behind `ghr all`'s artifact sweep, in artifact order —
/// what `ghr plan all` lowers into one combined, cross-request-
/// deduplicated plan.
fn all_requests() -> Vec<Request> {
    let mut requests = vec![Request::Table1];
    requests.extend(Case::ALL.into_iter().map(Request::fig1));
    requests.extend([
        Request::corun_fig(AllocSite::A1, false, false),
        Request::corun_fig(AllocSite::A1, true, false),
        Request::speedup_fig(AllocSite::A1),
        Request::corun_fig(AllocSite::A2, false, false),
        Request::corun_fig(AllocSite::A2, true, false),
        Request::speedup_fig(AllocSite::A2),
        Request::Study {
            m: None,
            n_reps: None,
        },
        Request::autotune_all(),
        Request::WhatIf,
    ]);
    for case in Case::ALL {
        requests.extend([Request::dot(case), Request::scan(case), Request::gemv(case)]);
    }
    requests
}

/// `ghr plan <command|all>` — lower the command's request(s) and print the
/// resulting DAG without executing anything.
fn cmd_plan(engine: &Engine, rest: &[String]) -> Result<String, String> {
    let sub = rest.first().map(String::as_str).ok_or_else(|| {
        format!("`ghr plan` needs a command to lower: one of {SERVABLE}, or `all`")
    })?;
    let requests = if sub == "all" {
        all_requests()
    } else {
        vec![request_for(sub, &rest[1..])?.ok_or_else(|| {
            format!("{sub:?} does not lower to a request; plannable: {SERVABLE}, or `all`")
        })?]
    };
    let plan = engine.plan_many(&requests).map_err(|e| e.to_string())?;
    let summary = plan.summary();
    let mut out = String::new();
    let _ = writeln!(out, "plan for {} (id {})\n", summary.request, summary.id);
    let mut t = Table::new(["stage", "items", "predicted hits", "mode"]);
    for stage in &summary.stages {
        t.row([
            stage.name.clone(),
            if stage.adaptive {
                "?".to_string()
            } else {
                stage.items.to_string()
            },
            stage.predicted_hits.to_string(),
            if stage.adaptive {
                "adaptive".to_string()
            } else {
                "fan".to_string()
            },
        ]);
    }
    out.push_str(&t.to_markdown());
    let _ = writeln!(
        out,
        "\ntotals: {} work items, {} predicted cache hits ({:.1}%), {} duplicate items folded",
        summary.items(),
        summary.predicted_hits(),
        summary.predicted_hit_ratio() * 100.0,
        summary.deduped
    );
    if summary.adaptive_stages() > 0 {
        let _ = writeln!(
            out,
            "({} adaptive stage(s) choose their probes at run time from the coarse results)",
            summary.adaptive_stages()
        );
    }
    let _ = writeln!(
        out,
        "nothing was executed; run the command itself to evaluate"
    );
    Ok(out)
}

/// `ghr serve [--socket PATH] [--sessions N] [--max-idle SECS]
/// [--max-inflight N] [--max-frame BYTES]` — the long-lived request loop
/// (see [`serve`]). Stdin is one sequential session (frame order is the
/// batch order); a socket serves up to N concurrent sessions over the
/// shared engine. Frames stream to stdout (or each session's stream); the
/// returned string stays empty on the stdin path so framing is never
/// polluted. `--max-inflight` bounds requests inside the engine at once —
/// arrivals past the budget get `ghr-error reason=overload` immediately;
/// `--max-frame` tightens (or widens) the accepted request-line length.
fn cmd_serve(engine: &Arc<Engine>, rest: &[String]) -> Result<String, String> {
    let mut socket: Option<&str> = None;
    let mut tcp: Option<&str> = None;
    let mut sessions: Option<usize> = None;
    let mut max_idle: Option<std::time::Duration> = None;
    let mut max_inflight: Option<usize> = None;
    let mut max_frame: usize = serve::MAX_REQUEST_LINE;
    let mut flags = Flags::new(rest);
    while let Some(arg) = flags.next() {
        match arg {
            Arg::Flag("--socket") => socket = Some(flags.value()?),
            Arg::Flag("--tcp") => tcp = Some(flags.value()?),
            Arg::Flag("--sessions") => sessions = Some(count("session count", flags.value()?)?),
            Arg::Flag("--max-idle") => max_idle = Some(seconds("idle timeout", flags.value()?)?),
            Arg::Flag("--max-inflight") => {
                max_inflight = Some(count("in-flight budget", flags.value()?)?)
            }
            Arg::Flag("--max-frame") => max_frame = count("frame cap", flags.value()?)?,
            _ => return Err(format!("unknown serve argument {:?}", flags.raw())),
        }
    }
    if socket.is_some() && tcp.is_some() {
        return Err("--socket and --tcp are mutually exclusive (one listening place)".to_string());
    }
    let endpoint = match (socket, tcp) {
        (Some(path), None) => Some(ghr_types::Endpoint::unix(path)),
        (None, Some(spec)) => Some(ghr_types::Endpoint::tcp(spec)?),
        _ => None,
    };
    match endpoint {
        None => {
            let stdin = std::io::stdin();
            let mut out = std::io::stdout().lock();
            let mut err = std::io::stderr().lock();
            // One sequential session, but the admission budget and frame
            // cap apply exactly as on the socket path.
            let admission = max_inflight.map(serve::Admission::new);
            let config = serve::SessionConfig {
                max_frame,
                admission: admission.as_ref(),
            };
            let shutdown = std::sync::atomic::AtomicBool::new(false);
            serve::serve_session(
                engine,
                0,
                &mut stdin.lock(),
                &mut out,
                &mut err,
                &shutdown,
                &config,
            )?;
            Ok(String::new())
        }
        #[cfg(unix)]
        Some(endpoint) => {
            let opts = serve::ServeOptions {
                sessions: sessions.unwrap_or_else(|| engine.threads()),
                max_idle,
                max_inflight,
                max_frame,
            };
            serve::serve_endpoint(engine, &endpoint, &opts)
        }
        #[cfg(not(unix))]
        Some(_) => {
            let _ = (sessions, max_idle, max_inflight, max_frame);
            Err(
                "--socket/--tcp serving needs a unix platform; pipe requests over stdin"
                    .to_string(),
            )
        }
    }
}

/// `ghr client (--socket PATH | --tcp HOST:PORT) [request...]` — send
/// request lines to a running serve/router endpoint and print the raw
/// frames. Each argument is one full request line (quote multi-word
/// requests: `'fig1 c3'`); with no requests the connection just opens
/// and closes. The write side is shut down after sending, so the session
/// drains on EOF — no trailing `quit` needed (send `ghr-shutdown` as a
/// request line to stop the server). All request lines are written up
/// front, so against a pipelining router they are in flight together
/// and the frames stream back in this argument order.
fn cmd_client(rest: &[String]) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut socket: Option<&str> = None;
    let mut tcp: Option<&str> = None;
    let mut lines: Vec<&str> = Vec::new();
    let mut flags = Flags::new(rest);
    while let Some(arg) = flags.next() {
        match arg {
            Arg::Flag("--socket") => socket = Some(flags.value()?),
            Arg::Flag("--tcp") => tcp = Some(flags.value()?),
            Arg::Word(line) => lines.push(line),
            Arg::Flag(_) => return Err(format!("unknown client argument {:?}", flags.raw())),
        }
    }
    let endpoint = match (socket, tcp) {
        (Some(path), None) => ghr_types::Endpoint::unix(path),
        (None, Some(spec)) => ghr_types::Endpoint::tcp(spec)?,
        (Some(_), Some(_)) => {
            return Err("--socket and --tcp are mutually exclusive".to_string());
        }
        (None, None) => {
            return Err("ghr client needs --socket PATH or --tcp HOST:PORT".to_string());
        }
    };
    let mut stream = endpoint
        .connect()
        .map_err(|e| format!("cannot connect to {endpoint}: {e}"))?;
    let mut payload = String::new();
    for line in &lines {
        payload.push_str(line);
        payload.push('\n');
    }
    stream
        .write_all(payload.as_bytes())
        .map_err(|e| format!("write to {endpoint} failed: {e}"))?;
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("cannot half-close {endpoint}: {e}"))?;
    let mut out = String::new();
    stream
        .read_to_string(&mut out)
        .map_err(|e| format!("read from {endpoint} failed: {e}"))?;
    Ok(out)
}

fn parse_case(s: &str) -> Result<Case, String> {
    match s.to_ascii_lowercase().as_str() {
        "c1" => Ok(Case::C1),
        "c2" => Ok(Case::C2),
        "c3" => Ok(Case::C3),
        "c4" => Ok(Case::C4),
        other => Err(format!("unknown case {other:?}; use c1..c4")),
    }
}

fn cmd_machine(machine: &MachineConfig) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "CPU : {}", machine.cpu.name);
    let _ = writeln!(
        out,
        "      {} cores @ {}, stream {}",
        machine.cpu.cores, machine.cpu.clock, machine.cpu.mem_stream_bw
    );
    let _ = writeln!(out, "GPU : {}", machine.gpu.name);
    let _ = writeln!(
        out,
        "      {} SMs @ {}, HBM peak {}",
        machine.gpu.sm_count, machine.gpu.clock, machine.gpu.hbm_peak_bw
    );
    let _ = writeln!(out, "Link: {}", machine.link.name);
    let _ = writeln!(
        out,
        "      GPU reads CPU mem {}, CPU reads GPU mem {}, migration {}",
        machine.link.gpu_reads_cpu_mem,
        machine.link.cpu_reads_gpu_mem,
        machine.link.migration.counter_migration_bw
    );
    let _ = writeln!(out, "Page: {}", machine.page_size);
    Ok(out)
}

fn render_table1(t: &Table1, compare: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — baseline vs optimized sum reduction on the GPU (peak {} GB/s)\n",
        t.peak_gbps
    );
    out.push_str(&t.to_table().to_markdown());
    if compare {
        let _ = writeln!(out, "\nComparison against the paper:\n");
        out.push_str(&t.to_comparison_table().to_markdown());
        let _ = writeln!(
            out,
            "\nmax relative error vs paper: {:.2}%",
            t.max_relative_error() * 100.0
        );
    }
    out
}

fn render_fig1(r: &SweepResult, csv: bool, plot: bool) -> String {
    let case = r.sweep.case;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 1 ({case}, {}) — GB/s vs teams axis and V, thread_limit 256\n",
        case.signature()
    );
    out.push_str(&if csv {
        r.to_table().to_csv()
    } else {
        r.to_table().to_markdown()
    });
    if plot {
        let markers = ['1', '2', '4', '8', 'a', 'b'];
        let mut chart = AsciiChart::new(66, 16).log_x().labels("teams", "GB/s");
        for (&v, m) in r.sweep.vs.iter().zip(markers) {
            chart = chart.series(
                m,
                r.sweep
                    .teams_axis
                    .iter()
                    .filter_map(|&t| r.gbps_at(t, v).map(|g| (t as f64, g))),
            );
        }
        let _ = writeln!(out, "\n{}", chart.render());
    }
    let best = r.best();
    let _ = writeln!(
        out,
        "\nbest: {} GB/s at teams={} v={}",
        fmt_gbps(best.gbps),
        best.teams_axis,
        best.v
    );
    out
}

/// Render fig2a/2b/4a/4b from the four per-case series (the
/// [`Request::corun_fig`] response order).
fn render_corun_fig(
    alloc: AllocSite,
    optimized: bool,
    plot: bool,
    advice: bool,
    series: &[Arc<CorunSeries>],
) -> String {
    let which = if optimized { "optimized" } else { "baseline" };
    let mut out = String::new();
    let _ =
        writeln!(
        out,
        "Co-execution in UM mode — {which} kernels, allocation at {alloc} (GB/s vs CPU part p){}\n",
        if advice { " — with preferred-location advice" } else { "" }
    );
    let mut t = Table::new(["p", "C1", "C2", "C3", "C4"]);
    for i in 0..=10 {
        let mut row = vec![format!("{:.1}", i as f64 / 10.0)];
        for s in series {
            row.push(fmt_gbps(s.points[i].gbps));
        }
        t.row(row);
    }
    out.push_str(&t.to_markdown());
    if plot {
        let markers = ['1', '2', '3', '4'];
        let mut chart = AsciiChart::new(66, 16).labels("p (CPU part)", "GB/s");
        for (s, m) in series.iter().zip(markers) {
            chart = chart.series(m, s.points.iter().map(|pt| (pt.p, pt.gbps)));
        }
        let _ = writeln!(out, "\n{}", chart.render());
    }
    let _ = writeln!(out, "\npeak speedup over GPU-only:");
    for (case, s) in Case::ALL.into_iter().zip(series) {
        let _ = writeln!(
            out,
            "  {case}: {}x (peak {} GB/s at p={:.1})",
            fmt_speedup(s.peak_speedup_over_gpu_only()),
            fmt_gbps(s.peak().gbps),
            s.peak().p
        );
    }
    out
}

/// Render fig3/fig5 from the eight `[base, opt]`-interleaved series (the
/// [`Request::speedup_fig`] response order).
fn render_speedup_fig(alloc: AllocSite, series: &[Arc<CorunSeries>]) -> String {
    let mut out = String::new();
    let fig = if alloc == AllocSite::A1 {
        "Fig. 3"
    } else {
        "Fig. 5"
    };
    let _ = writeln!(
        out,
        "{fig} — speedup of optimized over baseline co-execution, allocation at {alloc}\n"
    );
    let mut columns = Vec::new();
    for pair in series.chunks(2) {
        columns.push(pair[1].speedup_vs(&pair[0]));
    }
    let mut t = Table::new(["p", "C1", "C2", "C3", "C4"]);
    for i in 0..=10 {
        let mut row = vec![format!("{:.1}", i as f64 / 10.0)];
        for col in &columns {
            row.push(fmt_speedup(col[i].1));
        }
        t.row(row);
    }
    out.push_str(&t.to_markdown());
    out
}

fn render_summary(study: &CorunStudy) -> String {
    let sum = study.summary();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Section IV aggregate quantities, paper vs this reproduction:\n"
    );
    out.push_str(&sum.to_comparison_table().to_markdown());
    let _ = writeln!(out, "\nper-case peak speedups over GPU-only:");
    let _ = writeln!(
        out,
        "  Fig 2a (baseline, A1): ours {:?} (paper [2.732, 2.246, 2.692, 2.297])",
        sum.a1_base_peaks.map(|x| (x * 1000.0).round() / 1000.0)
    );
    let _ = writeln!(
        out,
        "  Fig 2b (optimized, A1): ours {:?} (paper [2.253, 3.385, 2.100, 2.197])",
        sum.a1_opt_peaks.map(|x| (x * 1000.0).round() / 1000.0)
    );
    let _ = writeln!(
        out,
        "  Fig 4b (optimized, A2): ours {:?} (paper [1.139, 1.062, 1.050, 1.017])",
        sum.a2_opt_peaks.map(|x| (x * 1000.0).round() / 1000.0)
    );
    out
}

fn render_autotune(tuned: &[TunedConfig]) -> String {
    let mut t = Table::new(["Case", "teams axis", "V", "GB/s", "paper V"]);
    for tuned in tuned {
        t.row([
            tuned.case.label().to_string(),
            tuned.teams_axis.to_string(),
            tuned.v.to_string(),
            fmt_gbps(tuned.gbps),
            tuned.case.v_optimized().to_string(),
        ]);
    }
    format!(
        "Autotuned configurations (paper space: teams 128..65536, V 1..32):\n\n{}",
        t.to_markdown()
    )
}

fn cmd_verify(machine: &MachineConfig, m: u64) -> Result<String, String> {
    let rt = OmpRuntime::new(machine.clone());
    let m = Case::C1.m_scaled(m);
    let mut out = String::new();
    let _ = writeln!(out, "functional verification at {m} elements:");
    for case in Case::ALL {
        for spec in [
            ReductionSpec::baseline(case),
            ReductionSpec::optimized_paper(case),
        ] {
            verify::verify_spec(&rt, &spec, m).map_err(|e| format!("{}: {e}", spec.label()))?;
            let _ = writeln!(out, "  {:<40} ok", spec.label());
        }
        let spec = ReductionSpec::optimized_paper(case);
        for p in [2u64, 5, 8] {
            verify::verify_split(&rt, &spec, m, p, 10)
                .map_err(|e| format!("{case} split p={p}/10: {e}"))?;
        }
        let _ = writeln!(out, "  {case} co-execution splits (p=0.2/0.5/0.8)    ok");
    }
    Ok(out)
}

fn cmd_sched(machine: &MachineConfig, case: Case) -> Result<String, String> {
    // Scaled to ~40 MB so the chunk-granular policies stay responsive.
    let outcomes = compare_policies(machine, case, 10_000_000, 200).map_err(|e| e.to_string())?;
    Ok(format!(
        "Co-scheduling policy comparison for {case} (extension beyond the paper;\n\
         UM mode, array initialized on the CPU, optimized kernel, 200 reps):\n\n{}",
        comparison_table(&outcomes).to_markdown()
    ))
}

fn cmd_explain(machine: &MachineConfig, rest: &[String]) -> Result<String, String> {
    let case = parse_case(rest.first().map(String::as_str).unwrap_or("c1"))?;
    let p_index: u32 = rest
        .get(1)
        .map(|s| s.parse().map_err(|_| format!("bad p index {s:?} (0..10)")))
        .transpose()?
        .unwrap_or(1);
    let alloc = match rest.get(2).map(String::as_str) {
        None | Some("a1") => AllocSite::A1,
        Some("a2") => AllocSite::A2,
        Some(other) => return Err(format!("unknown allocation site {other:?}")),
    };
    let kind = match rest.get(3).map(String::as_str) {
        None | Some("opt") => ReductionSpec::optimized_paper(case).kind,
        Some("base") => KernelKind::Baseline,
        Some(other) => return Err(format!("unknown kernel {other:?} (base|opt)")),
    };
    let cfg = CorunConfig::paper(case, kind, alloc);
    let e = ghr_core::explain::explain_corun_point(machine, &cfg, p_index)
        .map_err(|x| x.to_string())?;
    Ok(format!(
        "Per-repetition trace for {case}, p={:.1}, {alloc} ({} warmup reps):\n\n{}",
        e.p,
        e.warmup_reps(),
        e.to_table(8).to_markdown()
    ))
}

fn render_whatif(s: &WhatIfStudy) -> String {
    format!(
        "What could the runtime recover without touching user code?\n\
         (the paper: \"the heuristics may be further optimized\")\n\n{}\n\
         Either runtime fix removes the team-pipeline bottleneck and lands on\n\
         the V=1 concurrency ceiling; the remaining gap to the optimized row\n\
         requires the paper's source-level V unrolling.\n",
        s.to_table().to_markdown()
    )
}

fn cmd_accuracy() -> Result<String, String> {
    let counts: Vec<u64> = (14..=24).step_by(2).map(|i| 1u64 << i).collect();
    let study = accuracy_study(&counts).map_err(|e| e.to_string())?;
    Ok(format!(
        "f32 summation error vs a Kahan f64 reference (units of eps x |sum|):\n\n{}\n\
         The device's tree order beats the serial loop at scale — the paper's\n\
         CPU-vs-GPU verification tolerance exists because of the *serial* error.\n",
        study.to_table().to_markdown()
    ))
}

fn cmd_sensitivity() -> Result<String, String> {
    let sens = calibrate::sensitivity_analysis(
        &ghr_machine::GpuSpec::h100_sxm_gh200(),
        &ghr_gpusim::GpuModelParams::default(),
        0.2,
    );
    let mut t = Table::new(["parameter", "err at -20%", "err at +20%"]);
    let mut rows = sens;
    rows.sort_by(|a, b| b.worst().total_cmp(&a.worst()));
    let fmt_err = |e: f64| {
        if e.is_finite() {
            format!("{:.1}%", e * 100.0)
        } else {
            "out of domain".to_string()
        }
    };
    for s in &rows {
        t.row([s.field.to_string(), fmt_err(s.err_down), fmt_err(s.err_up)]);
    }
    Ok(format!(
        "Sensitivity of the Table-1 fit to each fitted parameter\n\
         (mean relative error after a +/-20% perturbation; shipped fit: 0.3%):\n\n{}\n\
         Large numbers = the paper's data pins the parameter; small numbers =\n\
         the eight observations barely constrain it.\n\n\
         GPU-model ablation: C1 baseline / optimized GB/s with one mechanism\n\
         removed or made ideal:\n\n{}",
        t.to_markdown(),
        gpu_ablation()?.to_markdown()
    ))
}

/// The Table-1 C1 pair under GPU-model parameters with one mechanism
/// removed: which mechanism produces which feature of the paper's numbers.
fn gpu_ablation() -> Result<Table, String> {
    use ghr_gpusim::{GpuModel, GpuModelParams};
    let spec = ghr_machine::GpuSpec::h100_sxm_gh200();
    let fitted = GpuModelParams::default();
    let rows = [
        ("fitted (shipped defaults)", fitted),
        (
            "no per-team overhead",
            GpuModelParams {
                team_overhead_ns: 0.0,
                combine_ns_i32: 0.0,
                ..fitted
            },
        ),
        (
            "unlimited memory concurrency",
            GpuModelParams {
                mlp_factor: 10.0,
                ..fitted
            },
        ),
        (
            "free loop overhead",
            GpuModelParams {
                instr_base: 0.0,
                ..fitted
            },
        ),
        (
            "ideal HBM streaming",
            GpuModelParams {
                hbm_efficiency_4b: 1.0,
                ..fitted
            },
        ),
    ];
    let mut t = Table::new(["ablation", "base GB/s", "opt GB/s", "speedup"]);
    for (label, params) in rows {
        let model = GpuModel::with_params(spec.clone(), params);
        let gbps = |launch| {
            model
                .bandwidth(&launch)
                .map(|b| b.as_gbps())
                .map_err(|e| e.to_string())
        };
        let base = gbps(calibrate::baseline_launch(1))?;
        let opt = gbps(calibrate::optimized_launch(1))?;
        t.row([
            label.to_string(),
            format!("{base:.0}"),
            format!("{opt:.0}"),
            format!("{:.2}", opt / base),
        ]);
    }
    Ok(t)
}

fn cmd_calibrate(sweeps: u32) -> Result<String, String> {
    let spec = ghr_machine::GpuSpec::h100_sxm_gh200();
    let start = ghr_gpusim::GpuModelParams::default();
    let start_err = calibrate::mean_relative_error(
        &ghr_gpusim::GpuModel::new(spec.clone()),
        &calibrate::table1_observations(),
    );
    let fit = calibrate::fit(spec, start, sweeps);
    Ok(format!(
        "calibration against Table 1 ({} observations):\n\
         \u{20}  shipped defaults: mean relative error {:.4}\n\
         \u{20}  after {} evaluations ({sweeps} sweeps): {:.4}\n\
         \u{20}  fitted params: {:#?}\n",
        calibrate::table1_observations().len(),
        start_err,
        fit.evaluations,
        fit.error,
        fit.params
    ))
}

/// Flags shared by `ghr bench` and `ghr calibrate cpu`.
struct BenchOpts {
    /// CI-friendly grid: fewer shapes, fewer repetitions, smaller arrays.
    quick: bool,
    /// Pin the unroll factor instead of sweeping the default set.
    v: Option<usize>,
    /// Pin the kernel worker-thread count (`--threads` already names the
    /// evaluation engine's fan width, hence the distinct flag).
    kernel_threads: Option<usize>,
}

fn parse_bench(rest: &[String]) -> Result<BenchOpts, String> {
    let mut opts = BenchOpts {
        quick: false,
        v: None,
        kernel_threads: None,
    };
    let mut flags = Flags::new(rest);
    while let Some(arg) = flags.next() {
        match arg {
            Arg::Flag("--quick") => opts.quick = flags.switch()?,
            Arg::Flag("--v") => opts.v = Some(count("unroll factor", flags.value()?)?),
            Arg::Flag("--kernel-threads") => {
                opts.kernel_threads = Some(count("thread count", flags.value()?)?)
            }
            _ => return Err(format!("unknown bench argument {:?}", flags.raw())),
        }
    }
    if let Some(v) = opts.v {
        ghr_parallel::validate_v(v).map_err(|e| e.to_string())?;
    }
    Ok(opts)
}

/// `ghr bench` — time the real scalar and SIMD kernels on this host with
/// the std-only warmup + min-of-N harness.
fn cmd_bench(rest: &[String]) -> Result<String, String> {
    let opts = parse_bench(rest)?;
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut grid = ghr_parallel::microbench::default_grid(opts.quick, host);
    if let Some(v) = opts.v {
        for s in &mut grid {
            s.v = v;
        }
    }
    if let Some(threads) = opts.kernel_threads {
        for s in &mut grid {
            s.threads = threads;
        }
    }
    grid.dedup();
    let backend = ghr_parallel::Backend::active();
    let mut t = Table::new([
        "dtype",
        "V",
        "threads",
        "backend",
        "scalar GB/s",
        "simd GB/s",
        "speedup",
        "parity",
    ]);
    let mut mismatches = 0usize;
    for spec in &grid {
        let pair = ghr_parallel::measure_pair(spec, backend).map_err(|e| e.to_string())?;
        if !pair.parity() {
            mismatches += 1;
        }
        t.row([
            spec.dtype.to_string(),
            spec.v.to_string(),
            spec.threads.to_string(),
            pair.simd.backend.label().to_string(),
            format!("{:.2}", pair.scalar.gbps()),
            format!("{:.2}", pair.simd.gbps()),
            format!("{:.2}x", pair.speedup()),
            if pair.parity() { "ok" } else { "MISMATCH" }.to_string(),
        ]);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "std-only microbenchmark of the real reduction kernels on this host\n\
         ({} elements per point, min of {} timed reps; scalar unrolled vs SIMD):\n",
        grid.first().map(|s| s.n).unwrap_or(0),
        grid.first().map(|s| s.reps).unwrap_or(0),
    );
    out.push_str(&t.to_markdown());
    let _ = writeln!(out, "\nkernel backend: {}", ghr_parallel::simd::report());
    if mismatches == 0 {
        let _ = writeln!(
            out,
            "parity: ok ({}/{} points bit-identical to the scalar kernel)",
            grid.len(),
            grid.len()
        );
    } else {
        let _ = writeln!(
            out,
            "parity: FAILED ({mismatches}/{} points differ from the scalar kernel)",
            grid.len()
        );
    }
    Ok(out)
}

/// `ghr calibrate cpu` — fit the CPU compute model to the throughput the
/// kernels actually sustain on this host.
fn cmd_calibrate_cpu(machine: &MachineConfig, rest: &[String]) -> Result<String, String> {
    let opts = parse_bench(rest)?;
    if opts.kernel_threads.is_some() {
        return Err("calibration always measures at threads=1 (the model's \
                    thread scaling is linear by construction)"
            .to_string());
    }
    let v = opts.v.unwrap_or(32);
    let (n, warmup, reps) = if opts.quick {
        (1 << 20, 1, 3)
    } else {
        (1 << 22, 2, 7)
    };
    let backend = ghr_parallel::Backend::active();
    let dtypes = [DType::I32, DType::I8, DType::F32, DType::F64];
    let mut samples = Vec::new();
    for dtype in dtypes {
        let spec = ghr_parallel::BenchSpec {
            dtype,
            v,
            threads: 1,
            n,
            warmup,
            reps,
        };
        let s = ghr_parallel::measure(&spec, backend).map_err(|e| e.to_string())?;
        if !s.parity_with_scalar {
            return Err(format!(
                "refusing to calibrate: {dtype} SIMD sum differs from the scalar kernel"
            ));
        }
        samples.push(ghr_cpusim::MeasuredSample {
            dtype,
            v,
            threads: 1,
            elems_per_sec: s.elems_per_sec,
        });
    }
    let start = ghr_cpusim::CpuModelParams::default();
    let fit =
        ghr_cpusim::fit_from_samples(&machine.cpu, start, &samples).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CPU compute-model calibration against measured kernel throughput\n\
         (this host, backend {}, V={v}, threads=1, {n} elements per sample):\n",
        ghr_parallel::simd::report()
    );
    let _ = writeln!(
        out,
        "  shipped params: elems_per_cycle_4b={:.2} widen_i8_penalty={:.2} \
         (mean rel err {:.1}%)",
        fit.start.elems_per_cycle_4b,
        fit.start.widen_i8_penalty,
        fit.start_err * 100.0
    );
    let _ = writeln!(
        out,
        "  fitted params:  elems_per_cycle_4b={:.2} widen_i8_penalty={:.2} \
         (mean rel err {:.1}%)",
        fit.params.elems_per_cycle_4b,
        fit.params.widen_i8_penalty,
        fit.err * 100.0
    );
    if fit.converged {
        let _ = writeln!(out, "  fit converged after {} rounds", fit.iterations);
    } else {
        let _ = writeln!(
            out,
            "  fit did NOT converge after {} rounds",
            fit.iterations
        );
    }
    let mut t = Table::new([
        "case",
        "measured Melem/s/core",
        "modelled Melem/s/core",
        "rel err",
    ]);
    for r in &fit.residuals {
        t.row([
            r.dtype.to_string(),
            format!("{:.1}", r.measured_eps / 1e6),
            format!("{:.1}", r.modeled_eps / 1e6),
            format!("{:.1}%", r.rel_err() * 100.0),
        ]);
    }
    let _ = writeln!(
        out,
        "\nmeasured vs modelled compute rate per case (roofline residual):\n\n{}",
        t.to_markdown()
    );
    let _ = writeln!(
        out,
        "note: only the compute leg is fitted; the memory leg keeps the Grace\n\
         datasheet STREAM numbers — this build host is not a Grace, but the\n\
         clock-normalized instruction-throughput shape transfers."
    );
    Ok(out)
}

fn cmd_all(engine: &Engine, dir: &str) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let machine = engine.machine();
    let mut written = Vec::new();
    let save = |name: &str, content: String, written: &mut Vec<String>| -> Result<(), String> {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, content).map_err(|e| e.to_string())?;
        written.push(path);
        Ok(())
    };
    // One engine serves every artifact, so the overlapping grids (the
    // optimized Table-1 points inside the Fig. 1 sweeps, the fig2/fig4
    // series inside fig3/fig5 and summary, the sweeps under autotune)
    // are evaluated once. Each artifact is its one-shot command's output.
    let answer = |line: &str| -> Result<String, String> {
        let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let render = Render::parse(&words[0], &words[1..]).expect("a servable artifact line");
        render.answer(engine, &words[1..])
    };
    save("table1.md", answer("table1 --compare")?, &mut written)?;
    for case in Case::ALL {
        let label = case.label().to_ascii_lowercase();
        save(
            &format!("fig1_{label}.md"),
            answer(&format!("fig1 {label}"))?,
            &mut written,
        )?;
    }
    for fig in [
        "fig2a", "fig2b", "fig3", "fig4a", "fig4b", "fig5", "summary", "autotune",
    ] {
        save(&format!("{fig}.md"), answer(fig)?, &mut written)?;
    }
    save("sched.md", cmd_sched(machine, Case::C1)?, &mut written)?;
    save("accuracy.md", cmd_accuracy()?, &mut written)?;
    save("whatif.md", answer("whatif")?, &mut written)?;
    save("sensitivity.md", cmd_sensitivity()?, &mut written)?;
    // The descriptor-timed workloads: model-priced sweeps plus a real
    // functional checksum per case, so the artifact set (and the
    // GHR_SIMD off-vs-auto byte-diff over it) covers dot/scan/gemv.
    for case in Case::ALL {
        let label = case.label().to_ascii_lowercase();
        for kind in ["dot", "scan", "gemv"] {
            save(
                &format!("{kind}_{label}.md"),
                answer(&format!("{kind} {label}"))?,
                &mut written,
            )?;
        }
    }
    // Deterministic (unlike bench/calibrate-cpu, which time real kernels),
    // and it routes every case through the substrate kernels — so a forced
    // GHR_SIMD backend is genuinely exercised by this artifact set.
    save("verify.md", cmd_verify(machine, 1_000_000)?, &mut written)?;
    Ok(format!(
        "wrote {} files:\n  {}\n",
        written.len(),
        written.join("\n  ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_usage() {
        let out = run("help", &[]).unwrap();
        assert!(out.contains("usage: ghr"));
        assert!(usage().contains("table1"));
        assert!(usage().contains("--threads"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run("frobnicate", &[]).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn case_parsing() {
        assert_eq!(parse_case("C2").unwrap(), Case::C2);
        assert_eq!(parse_case("c4").unwrap(), Case::C4);
        assert!(parse_case("c5").is_err());
    }

    #[test]
    fn machine_command_describes_the_node() {
        let out = run("machine", &[]).unwrap();
        assert!(out.contains("Grace"));
        assert!(out.contains("H100"));
        assert!(out.contains("NVLink-C2C"));
    }

    #[test]
    fn table1_command_reproduces_paper() {
        let out = run("table1", &["--compare".to_string()]).unwrap();
        assert!(out.contains("| C2   | 172"));
        assert!(out.contains("max relative error"));
    }

    #[test]
    fn fig1_csv_flag_switches_format() {
        let md = run("fig1", &["c1".to_string()]).unwrap();
        assert!(!md.contains("log scale"));
        let plotted = run("fig1", &["c1".to_string(), "--plot".to_string()]).unwrap();
        assert!(plotted.contains("log scale"));
        assert!(md.contains("| teams |"));
        let csv = run("fig1", &["c1".to_string(), "--csv".to_string()]).unwrap();
        assert!(csv.contains("teams,v1,v2"));
    }

    #[test]
    fn verify_command_checks_all_cases() {
        let out = run("verify", &["100000".to_string()]).unwrap();
        assert_eq!(out.matches(" ok").count(), 12);
    }

    #[test]
    fn bad_arguments_are_reported() {
        assert!(run("verify", &["not-a-number".to_string()]).is_err());
        assert!(run("fig1", &["c9".to_string()]).is_err());
        assert!(run("all", &[]).is_err());
        assert!(run("explain", &["c1".to_string(), "42".to_string()]).is_err());
    }

    #[test]
    fn threads_flag_is_parsed_in_both_forms() {
        let a = run("table1", &args(&["--threads", "2"])).unwrap();
        let b = run("table1", &args(&["--threads=2"])).unwrap();
        assert_eq!(a, b);
        assert!(run("table1", &args(&["--threads", "0"])).is_err());
        assert!(run("table1", &args(&["--threads", "lots"])).is_err());
        assert!(run("table1", &args(&["--threads"])).is_err());
    }

    #[test]
    fn output_is_byte_identical_across_thread_counts() {
        for cmd in ["table1", "fig1", "autotune", "whatif"] {
            let serial = run(cmd, &args(&["--threads", "1"])).unwrap();
            let parallel = run(cmd, &args(&["--threads", "8"])).unwrap();
            assert_eq!(serial, parallel, "{cmd}");
        }
        // Command-specific flags still work with global flags present.
        let serial = run("fig1", &args(&["c2", "--csv", "--threads", "1"])).unwrap();
        let parallel = run("fig1", &args(&["c2", "--threads", "8", "--csv"])).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stats_flag_appends_engine_counters() {
        let out = run("table1", &args(&["--stats", "--threads", "2"])).unwrap();
        assert!(out.contains("points evaluated"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        assert!(out.contains("wall"), "{out}");
        assert!(out.contains("2 threads"), "{out}");
        assert!(out.contains("kernel backend: "), "{out}");
        // No store attached (tests never fall back to ~/.cache), so no
        // persistent-cache line.
        assert!(!out.contains("persistent cache"), "{out}");
        // Without the flag the counters stay out of the output.
        let plain = run("table1", &[]).unwrap();
        assert!(!plain.contains("points evaluated"));
    }

    fn cache_tmp(tag: &str) -> String {
        use std::sync::atomic::{AtomicU32, Ordering};
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ghr-cli-cache-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn second_run_answers_from_the_persistent_cache() {
        let dir = cache_tmp("rerun");
        let first = run(
            "table1",
            &args(&["--stats", "--cache-dir", &dir, "--threads", "2"]),
        )
        .unwrap();
        assert!(first.contains("8 points evaluated"), "{first}");
        assert!(
            first.contains("persistent cache: 0 entries loaded"),
            "{first}"
        );
        assert!(first.contains("8 stored"), "{first}");
        // A fresh process (engine) over the same directory evaluates
        // nothing and renders byte-identical rows.
        let second = run(
            "table1",
            &args(&["--stats", "--cache-dir", &dir, "--threads", "2"]),
        )
        .unwrap();
        assert!(second.contains("0 points evaluated"), "{second}");
        assert!(second.contains("8 hits, 0 misses"), "{second}");
        let body = |s: &str| s.split("\nengine:").next().unwrap().to_string();
        assert_eq!(body(&first), body(&second));
    }

    #[test]
    fn no_cache_flag_disables_the_store() {
        let dir = cache_tmp("nocache");
        let out = run(
            "table1",
            &args(&["--stats", "--no-cache", "--cache-dir", &dir]),
        )
        .unwrap();
        assert!(!out.contains("persistent cache"), "{out}");
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
    }

    #[test]
    fn cache_subcommand_reports_and_clears() {
        let dir = cache_tmp("subcmd");
        let path = run("cache", &args(&["path", "--cache-dir", &dir])).unwrap();
        assert!(path.contains(&dir), "{path}");
        assert!(path.trim_end().ends_with(".ghr"), "{path}");

        let empty = run("cache", &args(&["stats", "--cache-dir", &dir])).unwrap();
        assert!(empty.contains("0 entries"), "{empty}");

        run("table1", &args(&["--cache-dir", &dir])).unwrap();
        let full = run("cache", &args(&["stats", "--cache-dir", &dir])).unwrap();
        assert!(full.contains("8 entries"), "{full}");

        let cleared = run("cache", &args(&["clear", "--cache-dir", &dir])).unwrap();
        assert!(cleared.contains("removed 1 store file"), "{cleared}");
        let after = run("cache", &args(&["stats", "--cache-dir", &dir])).unwrap();
        assert!(after.contains("0 entries"), "{after}");

        assert!(run("cache", &args(&["frobnicate", "--cache-dir", &dir])).is_err());
    }

    #[test]
    fn cache_subcommand_without_a_directory_says_disabled() {
        // Under cfg(test) there is no home-directory fallback, so with no
        // explicit flag the cache is simply off.
        if std::env::var("GHR_CACHE_DIR").is_ok() {
            return; // respect an externally-forced cache dir
        }
        let out = run("cache", &args(&["stats"])).unwrap();
        assert!(out.contains("persistent cache disabled"), "{out}");
    }

    /// Serve's flags are checked before anything binds or reads stdin.
    #[test]
    fn serve_rejects_bad_flags_before_serving() {
        for (flags, want) in [
            (&["--max-frame=0"][..], "bad frame cap \"0\""),
            (&["--sessions"][..], "--sessions needs a value"),
            (&["--max-idle=-1"][..], "bad idle timeout \"-1\""),
            (&["--max-inflight", "x"][..], "bad in-flight budget \"x\""),
            (
                &["--socket=/tmp/s", "--tcp", "7421"][..],
                "mutually exclusive",
            ),
            (&["--bogus"][..], "unknown serve argument \"--bogus\""),
        ] {
            let err = run("serve", &args(flags)).unwrap_err();
            assert!(err.contains(want), "{flags:?}: {err}");
        }
    }

    #[test]
    fn bench_quick_reports_backend_and_parity() {
        let out = run("bench", &args(&["--quick", "--v", "8"])).unwrap();
        assert!(out.contains("| dtype |"), "{out}");
        assert!(out.contains("kernel backend: "), "{out}");
        assert!(out.contains("parity: ok (4/4"), "{out}");
        // All four paper input types are measured.
        for dtype in ["i32", "i8", "f32", "f64"] {
            assert!(out.contains(dtype), "{out}");
        }
    }

    #[test]
    fn bench_rejects_bad_arguments() {
        assert!(run("bench", &args(&["--v", "3"])).is_err());
        assert!(run("bench", &args(&["--v"])).is_err());
        assert!(run("bench", &args(&["--kernel-threads", "0"])).is_err());
        assert!(run("bench", &args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn calibrate_cpu_fits_and_converges() {
        let out = run("calibrate", &args(&["cpu", "--quick"])).unwrap();
        assert!(out.contains("fit converged"), "{out}");
        assert!(out.contains("elems_per_cycle_4b="), "{out}");
        assert!(out.contains("widen_i8_penalty="), "{out}");
        assert!(out.contains("rel err"), "{out}");
        // The GPU calibration path is untouched.
        assert!(run("calibrate", &args(&["cpu", "--kernel-threads", "4"])).is_err());
    }

    #[test]
    fn refined_sweep_counters_appear_for_autotune() {
        let out = run("autotune", &args(&["--stats", "--threads", "2"])).unwrap();
        assert!(out.contains("refined sweeps:"), "{out}");
        assert!(out.contains("skipped"), "{out}");
    }

    #[test]
    fn plan_dry_run_prints_the_dag_without_executing() {
        let out = run("plan", &args(&["table1"])).unwrap();
        assert!(out.contains("plan for table1 (id "), "{out}");
        assert!(out.contains("table1: kernels"), "{out}");
        assert!(out.contains("8 work items"), "{out}");
        assert!(out.contains("nothing was executed"), "{out}");
        // Dry-running is free: a follow-up cold run still evaluates all
        // eight kernels (the plan itself touched no caches).
        let stats = run("plan", &args(&["table1", "--stats"])).unwrap();
        assert!(stats.contains("0 points evaluated"), "{stats}");
    }

    #[test]
    fn plan_all_folds_duplicates_across_requests() {
        let out = run("plan", &args(&["all"])).unwrap();
        assert!(out.contains("236 duplicate items folded"), "{out}");
        assert!(out.contains("adaptive stage(s)"), "{out}");
        assert!(out.contains("autotune x4 C1: refine"), "{out}");
    }

    #[test]
    fn workload_commands_render_sweep_roofline_and_checksum() {
        let dot = run("dot", &args(&["c1"])).unwrap();
        assert!(dot.contains("dot C1 (i32 -> i32)"), "{dot}");
        assert!(dot.contains("| teams |"), "{dot}");
        assert!(dot.contains("best: "), "{dot}");
        assert!(dot.contains("cpu roofline over the same bytes:"), "{dot}");
        // A saturated GPU sweep beats the Grace STREAM rate, so first
        // touch lands the pages in device memory.
        assert!(dot.contains("first touch: device"), "{dot}");
        assert!(
            dot.contains("functional checksum at 65536 elements:"),
            "{dot}"
        );
        // The case defaults to C1.
        assert_eq!(run("dot", &[]).unwrap(), dot);
        let gemv = run("gemv", &args(&["c2", "--cols", "512"])).unwrap();
        assert!(gemv.contains("gemv C2 (i8 -> i64)"), "{gemv}");
        assert!(gemv.contains("combine=gemv-row"), "{gemv}");
        let scan = run("scan", &args(&["c3", "--m", "1048576"])).unwrap();
        assert!(scan.contains("scan C3 (f32 -> f32)"), "{scan}");
        assert!(scan.contains("1048576 elements"), "{scan}");
    }

    #[test]
    fn workload_commands_reject_bad_arguments() {
        assert!(run("dot", &args(&["--m", "0"])).is_err());
        assert!(run("dot", &args(&["c1", "--cols", "8"])).is_err());
        assert!(run("scan", &args(&["c9"])).is_err());
        assert!(run("gemv", &args(&["--cols"])).is_err());
        assert!(run("dot", &args(&["c1", "c2"])).is_err());
    }

    #[test]
    fn plan_covers_workload_commands() {
        let out = run("plan", &args(&["dot", "c2"])).unwrap();
        assert!(out.contains("dot C2: teams"), "{out}");
        assert!(out.contains("7 work items"), "{out}");
        assert!(out.contains("nothing was executed"), "{out}");
    }

    #[test]
    fn workload_second_run_answers_from_the_persistent_cache() {
        let dir = cache_tmp("workload");
        let first = run("dot", &args(&["c3", "--stats", "--cache-dir", &dir])).unwrap();
        assert!(first.contains("7 points evaluated"), "{first}");
        assert!(first.contains("7 stored"), "{first}");
        // A fresh engine over the same store re-renders without
        // evaluating a single kernel point.
        let second = run("dot", &args(&["c3", "--stats", "--cache-dir", &dir])).unwrap();
        assert!(second.contains("0 points evaluated"), "{second}");
        assert!(second.contains("7 hits, 0 misses"), "{second}");
        let body = |s: &str| s.split("\nengine:").next().unwrap().to_string();
        assert_eq!(body(&first), body(&second));
    }

    #[test]
    fn render_variants_key_exactly_the_switches_each_renderer_reads() {
        let variant = |line: &str| {
            let words = args(&line.split_whitespace().collect::<Vec<_>>());
            Render::parse(&words[0], &words[1..]).unwrap().variant()
        };
        // A switch the command's renderer ignores does not split its key.
        assert_eq!(variant("table1 --csv --plot"), variant("table1"));
        assert_eq!(variant("fig1 c2 --compare"), variant("fig1 c2"));
        assert_eq!(variant("dot c1 --plot"), variant("dot c1"));
        assert_eq!(
            variant("fig1 c2 --plot --csv"),
            variant("fig1 c2 --csv --plot")
        );
        // Every command and every switch it reads does.
        let mut keys: Vec<u32> = [
            "table1",
            "table1 --compare",
            "fig1",
            "fig1 --csv",
            "fig1 --plot",
            "fig1 --csv --plot",
            "fig2a",
            "fig2a --plot",
            "fig2a --advice",
            "fig2b",
            "fig4a",
            "fig4b",
            "fig3",
            "fig5",
            "summary",
            "autotune",
            "whatif",
            "dot",
            "scan",
            "gemv",
        ]
        .iter()
        .map(|l| variant(l))
        .collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "variants must be distinct");
        assert!(Render::parse("bench", &[]).is_none());
    }

    #[test]
    fn plan_rejects_unplannable_commands() {
        assert!(run("plan", &[]).is_err());
        let err = run("plan", &args(&["bench"])).unwrap_err();
        assert!(err.contains("plannable"), "{err}");
    }
}
