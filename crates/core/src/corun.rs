//! CPU+GPU co-execution of the reduction in unified-memory mode
//! (the paper's Section IV, Listings 7–8).
//!
//! The harness replays the paper's loop nest against the page-placement
//! simulator:
//!
//! ```c
//! // A1: allocate + initialize the input array          <- pages on CPU
//! for (p = 0; p <= 1; p += 0.1) {
//!     // A2: allocate + initialize the input array      <- pages on CPU
//!     LenH = M * p; LenD = M - LenH;
//!     // start timing
//!     for (n = 0; n < N; n++) {
//!         #pragma omp parallel
//!         {
//!             #pragma omp master
//!             { /* target ... nowait over in[LenH..M] */ }
//!             /* for simd over in[0..LenH] */
//!         }
//!     }
//!     // stop timing; bandwidth = 1e-9 * M * sizeof(T) * N / elapsed
//! }
//! ```
//!
//! Each repetition's CPU and GPU legs stream their halves through
//! [`ghr_mem::UnifiedMemory`]; the returned byte classes (local / remote /
//! migrated) are priced with the machine's bandwidths, the two legs overlap
//! (`nowait` + the implicit barrier = `max`), and an optional third
//! pipeline models LPDDR5X contention when both devices pull from CPU
//! memory simultaneously.

use crate::case::Case;
use crate::explain::RepTrace;
use crate::pricing::LegPricer;
use crate::reduction::{KernelKind, ReductionSpec};
use crate::report::{fmt_gbps, Table};
use ghr_machine::MachineConfig;
use ghr_mem::{RegionId, UnifiedMemory};
use ghr_types::{Bytes, Result, SimTime};

/// Where the input array is allocated relative to the `p` loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocSite {
    /// Once, before the `p` loop (the paper's A1).
    A1,
    /// Freshly inside every `p` iteration (the paper's A2).
    A2,
}

impl std::fmt::Display for AllocSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AllocSite::A1 => "A1",
            AllocSite::A2 => "A2",
        })
    }
}

/// Configuration of one co-execution series (one curve of Figs. 2/4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorunConfig {
    /// The evaluation case.
    pub case: Case,
    /// Baseline (Listing 2) or optimized (Listing 5) device kernel.
    pub kind: KernelKind,
    /// Allocation site.
    pub alloc: AllocSite,
    /// Repetitions per `p` value (paper: 200).
    pub n_reps: u32,
    /// Number of `p` steps (paper: 10, i.e. p = 0.0, 0.1, …, 1.0).
    pub p_steps: u32,
    /// Element count (paper: the case's full scale).
    pub m: u64,
    /// Simulated CPU threads for the host leg (paper: all 72 cores).
    pub cpu_threads: u32,
    /// Model LPDDR5X contention between the CPU leg and GPU-side remote
    /// reads / migrations.
    pub lpddr_contention: bool,
    /// Extension: issue `cudaMemAdvise`-style preferred-location advice
    /// for the two halves before each `p` iteration (CPU part → host,
    /// GPU part → device). The paper's program gives no advice; with it,
    /// A1's pathology (the CPU forever reading HBM remotely) disappears.
    pub advise_split: bool,
}

impl CorunConfig {
    /// The paper's configuration for a case/kernel/site.
    pub fn paper(case: Case, kind: KernelKind, alloc: AllocSite) -> Self {
        CorunConfig {
            case,
            kind,
            alloc,
            n_reps: 200,
            p_steps: 10,
            m: case.m_paper(),
            cpu_threads: 72,
            lpddr_contention: true,
            advise_split: false,
        }
    }

    /// Enable the memory-advice extension (see
    /// [`CorunConfig::advise_split`]).
    pub fn with_advice(mut self) -> Self {
        self.advise_split = true;
        self
    }

    /// Scale down for fast tests (element count and repetitions).
    pub fn scaled(mut self, m: u64, n_reps: u32) -> Self {
        self.m = self.case.m_scaled(m);
        self.n_reps = n_reps;
        self
    }

    fn spec(&self) -> ReductionSpec {
        ReductionSpec {
            case: self.case,
            kind: self.kind,
        }
    }
}

/// One measured point (one `p` value) of a co-execution series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorunPoint {
    /// CPU fraction of the workload.
    pub p: f64,
    /// The paper's bandwidth metric over the N repetitions.
    pub gbps: f64,
    /// Total modelled time of the N repetitions.
    pub total: SimTime,
    /// Bytes migrated CPU→GPU during this `p` iteration.
    pub migrated_to_gpu: Bytes,
    /// Bytes the CPU leg read remotely (from HBM over the link).
    pub cpu_remote: Bytes,
    /// Bytes the GPU leg read remotely (from CPU memory over the link).
    pub gpu_remote: Bytes,
}

/// A full co-execution series: bandwidth as a function of `p`.
#[derive(Debug, Clone)]
pub struct CorunSeries {
    /// The configuration that produced it.
    pub config: CorunConfig,
    /// Points in ascending `p` order.
    pub points: Vec<CorunPoint>,
}

/// Run one co-execution series.
pub fn run_corun(machine: &MachineConfig, config: &CorunConfig) -> Result<CorunSeries> {
    let points = SeriesRunner::new(machine, config).run_to(config.p_steps, |_, _| {})?;
    Ok(CorunSeries {
        config: *config,
        points,
    })
}

/// Evaluate a single `p` point of an **A2** co-run series in isolation.
///
/// Each A2 iteration frees and re-allocates the array, so no allocation or
/// page-placement state survives from one `p` value to the next: evaluating
/// point `i` against a fresh [`UnifiedMemory`] is byte-identical to what
/// the sequential loop in [`run_corun`] produces for that index. That makes
/// each of the 11 points an independent, cacheable work item the engine
/// fans across threads. A1 series carry allocation state across `p` and
/// must stay sequential; asking for an A1 point here is rejected.
pub fn run_corun_point(
    machine: &MachineConfig,
    config: &CorunConfig,
    i: u32,
) -> Result<CorunPoint> {
    if config.alloc != AllocSite::A2 {
        return Err(ghr_types::GhrError::invalid(
            "alloc",
            format!(
                "per-point evaluation requires A2 (independent re-allocation per p); \
                 got {} which carries state across the p loop",
                config.alloc
            ),
        ));
    }
    if i > config.p_steps {
        return Err(ghr_types::GhrError::invalid(
            "p index",
            format!("index {i} out of range 0..={}", config.p_steps),
        ));
    }
    let runner = SeriesRunner::new(machine, config);
    let mut um = UnifiedMemory::new(machine);
    let rid = alloc_and_init(&mut um, runner.total_bytes);
    runner.eval_point(&mut um, rid, i, |_| {})
}

/// The paper's loop nest, shared by the series loop ([`run_corun`]), the
/// A2 per-point entry ([`run_corun_point`]) and the per-repetition
/// diagnostics ([`crate::explain`]), so all three price the same reps.
pub(crate) struct SeriesRunner<'a> {
    machine: &'a MachineConfig,
    config: &'a CorunConfig,
    pricer: LegPricer,
    elem_size: u64,
    total_bytes: Bytes,
    region: ghr_omp::TargetRegion,
}

impl<'a> SeriesRunner<'a> {
    pub(crate) fn new(machine: &'a MachineConfig, config: &'a CorunConfig) -> Self {
        let elem_size = config.case.elem().size_bytes();
        SeriesRunner {
            machine,
            config,
            pricer: LegPricer::new(machine, config.cpu_threads),
            elem_size,
            total_bytes: Bytes(config.m * elem_size),
            region: config.spec().region(),
        }
    }

    /// Run the `p` loop from point 0 through point `last` in order, with
    /// the configured allocation site, and return those points. Each
    /// repetition of point `i` is also handed to `observe(i, ..)`.
    pub(crate) fn run_to(
        &self,
        last: u32,
        mut observe: impl FnMut(u32, RepTrace),
    ) -> Result<Vec<CorunPoint>> {
        let mut um = UnifiedMemory::new(self.machine);
        let mut rid: Option<RegionId> = None;
        if self.config.alloc == AllocSite::A1 {
            rid = Some(alloc_and_init(&mut um, self.total_bytes));
        }
        let mut points = Vec::with_capacity(last as usize + 1);
        for i in 0..=last {
            if self.config.alloc == AllocSite::A2 {
                if let Some(old) = rid.take() {
                    um.free(old);
                }
                rid = Some(alloc_and_init(&mut um, self.total_bytes));
            }
            let rid = rid.expect("region allocated");
            points.push(self.eval_point(&mut um, rid, i, |rep| observe(i, rep))?);
        }
        Ok(points)
    }

    /// Evaluate point `i` (p = i / p_steps) against `rid` in `um`,
    /// handing each repetition to `observe` as it completes.
    fn eval_point(
        &self,
        um: &mut UnifiedMemory,
        rid: RegionId,
        i: u32,
        mut observe: impl FnMut(RepTrace),
    ) -> Result<CorunPoint> {
        let config = self.config;
        let case = config.case;
        let p = i as f64 / config.p_steps as f64;

        let len_h = config.m * i as u64 / config.p_steps as u64;
        let len_d = config.m - len_h;
        let len_h_bytes = Bytes(len_h * self.elem_size);
        let len_d_bytes = Bytes(len_d * self.elem_size);

        if config.advise_split {
            use ghr_mem::MemAdvise;
            use ghr_types::Device;
            if len_h > 0 {
                um.advise(
                    rid,
                    Bytes::ZERO,
                    len_h_bytes,
                    MemAdvise::PreferredLocation(Device::Host),
                );
            }
            if len_d > 0 {
                um.advise(
                    rid,
                    len_h_bytes,
                    len_d_bytes,
                    MemAdvise::PreferredLocation(Device::GPU0),
                );
            }
        }

        // Resolve the device launch once per p (the geometry depends on
        // LenD through the runtime heuristics for the baseline kernel).
        let gpu_local = if len_d > 0 {
            Some(self.pricer.gpu_model().reduce(&self.region.resolve_launch(
                len_d,
                case.elem(),
                case.acc(),
            )?)?)
        } else {
            None
        };
        let cpu_ref = if len_h > 0 {
            Some(
                self.pricer
                    .cpu_model()
                    .reduce_local(len_h, case.elem(), config.cpu_threads),
            )
        } else {
            None
        };

        let migrated_before = um.stats().migrated_to_gpu;
        let mut total = SimTime::ZERO;
        let mut cpu_remote = Bytes::ZERO;
        let mut gpu_remote = Bytes::ZERO;

        for rep in 0..config.n_reps {
            let rep_migrated_before = um.stats().migrated_to_gpu;
            let cpu_leg = match cpu_ref {
                Some(ref cb) => self.pricer.cpu_leg(um, rid, Bytes::ZERO, len_h_bytes, cb),
                None => crate::pricing::PricedLeg::idle(),
            };
            let gpu_leg = match gpu_local {
                Some(ref gb) => self.pricer.gpu_leg(um, rid, len_h_bytes, len_d_bytes, gb),
                None => crate::pricing::PricedLeg::idle(),
            };
            cpu_remote += cpu_leg.outcome.remote;
            gpu_remote += gpu_leg.outcome.remote;
            // `nowait` + implicit barrier: the legs overlap; optionally a
            // shared-LPDDR pipeline binds them together.
            let t_rep = self
                .pricer
                .rep_time(&cpu_leg, &gpu_leg, config.lpddr_contention);
            total += t_rep;
            observe(RepTrace {
                rep,
                t_cpu: cpu_leg.time,
                t_gpu: gpu_leg.time,
                t_rep,
                cpu_remote: cpu_leg.outcome.remote,
                gpu_remote: gpu_leg.outcome.remote,
                migrated: um
                    .stats()
                    .migrated_to_gpu
                    .saturating_sub(rep_migrated_before),
            });
        }

        Ok(CorunPoint {
            p,
            gbps: total
                .bandwidth_for(Bytes(self.total_bytes.0 * config.n_reps as u64))
                .as_gbps(),
            total,
            migrated_to_gpu: um.stats().migrated_to_gpu.saturating_sub(migrated_before),
            cpu_remote,
            gpu_remote,
        })
    }
}

fn alloc_and_init(um: &mut UnifiedMemory, bytes: Bytes) -> RegionId {
    let rid = um.alloc(bytes);
    // Initialization runs on the CPU (first touch places pages there);
    // like the paper, it is outside the timed section.
    um.cpu_access(rid, Bytes::ZERO, bytes);
    rid
}

impl CorunSeries {
    /// The GPU-only endpoint (`p = 0`).
    pub fn gpu_only_gbps(&self) -> f64 {
        self.points.first().expect("non-empty series").gbps
    }

    /// The CPU-only endpoint (`p = 1`).
    pub fn cpu_only_gbps(&self) -> f64 {
        self.points.last().expect("non-empty series").gbps
    }

    /// The best point of the series.
    pub fn peak(&self) -> &CorunPoint {
        self.points
            .iter()
            .max_by(|a, b| a.gbps.total_cmp(&b.gbps))
            .expect("non-empty series")
    }

    /// Peak bandwidth relative to the GPU-only endpoint — the quantity the
    /// paper reports as "speedup over the GPU-only execution".
    pub fn peak_speedup_over_gpu_only(&self) -> f64 {
        self.peak().gbps / self.gpu_only_gbps()
    }

    /// Per-`p` speedup of this series over `baseline` (Figs. 3 and 5).
    pub fn speedup_vs(&self, baseline: &CorunSeries) -> Vec<(f64, f64)> {
        assert_eq!(self.points.len(), baseline.points.len());
        self.points
            .iter()
            .zip(&baseline.points)
            .map(|(a, b)| {
                debug_assert!((a.p - b.p).abs() < 1e-12);
                (a.p, a.gbps / b.gbps)
            })
            .collect()
    }

    /// Render the series as a two-column table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["p (CPU part)", "GB/s"]);
        for pt in &self.points {
            t.row([format!("{:.1}", pt.p), fmt_gbps(pt.gbps)]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig::gh200()
    }

    fn series(kind: KernelKind, alloc: AllocSite) -> CorunSeries {
        // Paper scale for timing fidelity; the page walk is fast enough in
        // tests because C1's region is 64k pages.
        let cfg = CorunConfig::paper(Case::C1, kind, alloc);
        run_corun(&machine(), &cfg).unwrap()
    }

    fn opt() -> KernelKind {
        KernelKind::Optimized {
            teams_axis: 65536,
            v: 4,
        }
    }

    #[test]
    fn series_has_eleven_points() {
        let s = series(KernelKind::Baseline, AllocSite::A1);
        assert_eq!(s.points.len(), 11);
        assert!((s.points[0].p - 0.0).abs() < 1e-12);
        assert!((s.points[10].p - 1.0).abs() < 1e-12);
        assert!(s.points.iter().all(|p| p.gbps > 0.0));
    }

    #[test]
    fn a1_optimized_peak_speedup_matches_paper_band() {
        // Paper: 2.253 for C1.
        let s = series(opt(), AllocSite::A1);
        let sp = s.peak_speedup_over_gpu_only();
        assert!((1.8..=2.8).contains(&sp), "peak speedup {sp:.3}");
    }

    #[test]
    fn a1_corun_beats_both_endpoints() {
        for kind in [KernelKind::Baseline, opt()] {
            let s = series(kind, AllocSite::A1);
            let peak = s.peak().gbps;
            assert!(peak > s.gpu_only_gbps(), "{kind:?}");
            assert!(peak > s.cpu_only_gbps(), "{kind:?}");
        }
    }

    #[test]
    fn a2_optimized_peak_speedup_is_modest() {
        // Paper: 1.139 for C1 — the per-p migration cost eats the benefit.
        let s = series(opt(), AllocSite::A2);
        let sp = s.peak_speedup_over_gpu_only();
        assert!((1.0..=1.4).contains(&sp), "peak speedup {sp:.3}");
    }

    #[test]
    fn cpu_only_ratio_a1_vs_a2_matches_paper() {
        // Paper: A1's CPU-only run is 1.367x slower because the array is
        // HBM-resident after the p=0 iteration and Grace reads it remotely.
        let a1 = series(opt(), AllocSite::A1);
        let a2 = series(opt(), AllocSite::A2);
        let ratio = a2.cpu_only_gbps() / a1.cpu_only_gbps();
        assert!(
            (ratio - 1.367).abs() < 0.06,
            "CPU-only A2/A1 ratio {ratio:.3}"
        );
    }

    #[test]
    fn a1_migrates_only_in_the_first_p_iteration() {
        let s = series(opt(), AllocSite::A1);
        assert!(s.points[0].migrated_to_gpu.0 > 0);
        for pt in &s.points[1..] {
            assert_eq!(pt.migrated_to_gpu, Bytes::ZERO, "p={}", pt.p);
        }
    }

    #[test]
    fn a2_migrates_every_p_iteration_proportionally() {
        let s = series(opt(), AllocSite::A2);
        for pt in &s.points {
            if pt.p < 1.0 {
                assert!(pt.migrated_to_gpu.0 > 0, "p={}", pt.p);
            }
        }
        // More GPU share -> more migration.
        assert!(s.points[0].migrated_to_gpu > s.points[5].migrated_to_gpu);
        assert_eq!(s.points[10].migrated_to_gpu, Bytes::ZERO);
    }

    #[test]
    fn a1_cpu_leg_reads_remotely_after_p0() {
        let s = series(opt(), AllocSite::A1);
        assert_eq!(s.points[0].cpu_remote, Bytes::ZERO);
        for pt in &s.points[1..] {
            assert!(pt.cpu_remote.0 > 0, "p={}", pt.p);
        }
    }

    #[test]
    fn a2_cpu_leg_is_always_local() {
        let s = series(opt(), AllocSite::A2);
        for pt in &s.points {
            assert_eq!(pt.cpu_remote, Bytes::ZERO, "p={}", pt.p);
        }
    }

    #[test]
    fn fig3_shape_optimized_over_baseline_a1() {
        let base = series(KernelKind::Baseline, AllocSite::A1);
        let optimized = series(opt(), AllocSite::A1);
        let speedups = optimized.speedup_vs(&base);
        // Large at small p, ~1 at p=1 (paper: 0.996..10.654, significant
        // when the GPU part is at least 50%).
        assert!(speedups[0].1 > 2.0, "p=0 speedup {:.3}", speedups[0].1);
        let at_p1 = speedups.last().unwrap().1;
        assert!((at_p1 - 1.0).abs() < 0.02, "p=1 speedup {at_p1:.3}");
        // The speedup peaks while the GPU holds most of the work (p <= 0.3)
        // and decays towards 1 afterwards.
        let peak_idx = speedups
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .unwrap()
            .0;
        assert!(peak_idx <= 3, "peak at p={}", speedups[peak_idx].0);
        for w in speedups[peak_idx..].windows(2) {
            assert!(w[1].1 <= w[0].1 + 0.05, "{speedups:?}");
        }
    }

    #[test]
    fn memory_advice_cures_a1_cpu_only_pathology() {
        // Without advice, A1's CPU-only endpoint reads HBM remotely
        // forever (329 GB/s); with per-p preferred-location advice the
        // CPU part migrates back once per p step and runs locally.
        let machine = machine();
        let plain = run_corun(
            &machine,
            &CorunConfig::paper(Case::C1, opt(), AllocSite::A1),
        )
        .unwrap();
        let advised = run_corun(
            &machine,
            &CorunConfig::paper(Case::C1, opt(), AllocSite::A1).with_advice(),
        )
        .unwrap();
        assert!(
            advised.cpu_only_gbps() > 1.3 * plain.cpu_only_gbps(),
            "advised {:.0} vs plain {:.0}",
            advised.cpu_only_gbps(),
            plain.cpu_only_gbps()
        );
        // And the advised co-run is at least as good everywhere.
        for (a, p) in advised.points.iter().zip(&plain.points) {
            assert!(a.gbps >= p.gbps * 0.95, "p={}", a.p);
        }
    }

    #[test]
    fn scaled_config_shrinks_work() {
        let cfg = CorunConfig::paper(Case::C1, opt(), AllocSite::A1).scaled(100_000, 10);
        assert_eq!(cfg.n_reps, 10);
        assert!(cfg.m <= 100_000);
        let s = run_corun(&machine(), &cfg).unwrap();
        assert_eq!(s.points.len(), 11);
    }

    #[test]
    fn a2_per_point_entry_matches_sequential_loop() {
        let cfg = CorunConfig::paper(Case::C1, opt(), AllocSite::A2);
        let seq = run_corun(&machine(), &cfg).unwrap();
        for (i, expect) in seq.points.iter().enumerate() {
            let got = run_corun_point(&machine(), &cfg, i as u32).unwrap();
            assert_eq!(&got, expect, "p index {i}");
        }
    }

    #[test]
    fn per_point_entry_rejects_a1_and_out_of_range() {
        let a1 = CorunConfig::paper(Case::C1, opt(), AllocSite::A1);
        assert!(run_corun_point(&machine(), &a1, 0).is_err());
        let a2 = CorunConfig::paper(Case::C1, opt(), AllocSite::A2);
        assert!(run_corun_point(&machine(), &a2, a2.p_steps + 1).is_err());
    }

    #[test]
    fn table_rendering() {
        let cfg = CorunConfig::paper(Case::C1, opt(), AllocSite::A1).scaled(320_000, 5);
        let s = run_corun(&machine(), &cfg).unwrap();
        let md = s.to_table().to_markdown();
        assert!(md.contains("0.5"));
        assert!(md.contains("GB/s"));
    }
}
