//! The analytic kernel timing model.

use crate::launch::LaunchConfig;
use crate::params::GpuModelParams;
use ghr_machine::GpuSpec;
use ghr_types::{Bandwidth, Bytes, CombinePattern, GhrError, KernelDescriptor, Result, SimTime};

/// Timing breakdown of one modelled kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuKernelBreakdown {
    /// Launch / target-region entry overhead.
    pub launch: SimTime,
    /// Time for the memory system to deliver the input.
    pub memory: SimTime,
    /// Time for the SMs to issue the loop instructions.
    pub compute: SimTime,
    /// Time for the per-team pipeline (prologue + tree + combine),
    /// serialized across SMs.
    pub team_pipeline: SimTime,
    /// Total modelled time: `launch + max(memory, compute, team_pipeline)`.
    pub total: SimTime,
    /// The Little's-law bandwidth limit from in-flight bytes.
    pub concurrency_bw: Bandwidth,
    /// The supply-side bandwidth roof (HBM efficiency or remote link).
    pub roof_bw: Bandwidth,
    /// Input bytes / total — the paper's reported metric.
    pub effective_bw: Bandwidth,
}

impl GpuKernelBreakdown {
    /// Which pipeline bounds the kernel.
    pub fn bound_by(&self) -> &'static str {
        let m = self.memory.max(self.compute).max(self.team_pipeline);
        if m == self.memory {
            "memory"
        } else if m == self.compute {
            "compute"
        } else {
            "team-pipeline"
        }
    }
}

/// The GPU kernel timing model (see the crate docs for the mechanisms).
#[derive(Debug, Clone)]
pub struct GpuModel {
    spec: GpuSpec,
    params: GpuModelParams,
}

impl GpuModel {
    /// Build a model with default (GH200-fitted) parameters.
    pub fn new(spec: GpuSpec) -> Self {
        GpuModel {
            spec,
            params: GpuModelParams::default(),
        }
    }

    /// Build with explicit parameters.
    pub fn with_params(spec: GpuSpec, params: GpuModelParams) -> Self {
        GpuModel { spec, params }
    }

    /// The hardware description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The fitted parameters.
    pub fn params(&self) -> &GpuModelParams {
        &self.params
    }

    /// Mutable access to the parameters (used by the calibration search).
    pub fn params_mut(&mut self) -> &mut GpuModelParams {
        &mut self.params
    }

    /// Model one kernel execution with data resident in HBM.
    pub fn reduce(&self, cfg: &LaunchConfig) -> Result<GpuKernelBreakdown> {
        self.reduce_with_supply(cfg, None)
    }

    /// Model one kernel execution with the memory side limited to
    /// `supply_bw` (e.g. a remote NVLink-C2C read path in unified-memory
    /// mode). `None` means local HBM.
    ///
    /// This is the sum-reduction special case of [`GpuModel::time_kernel`]
    /// and is pinned (by test) to stay bit-identical to the original
    /// hard-coded reduction model.
    pub fn reduce_with_supply(
        &self,
        cfg: &LaunchConfig,
        supply_bw: Option<Bandwidth>,
    ) -> Result<GpuKernelBreakdown> {
        self.time_kernel(
            cfg,
            &KernelDescriptor::sum_reduction(cfg.elem, cfg.acc),
            supply_bw,
        )
    }

    /// Model one execution of *any* described kernel.
    ///
    /// The three-leg structure is unchanged from the reduction model — the
    /// descriptor only parameterizes what each leg is fed:
    ///
    /// * **memory** — bytes moved grow with `input_streams` (each loop
    ///   iteration keeps proportionally more bytes in flight, so Little's
    ///   law scales too) and with the output stream for non-scalar
    ///   [`ghr_types::OutputCardinality`];
    /// * **compute** — the per-element instruction term scales with
    ///   `flops_per_elem`, and loads per iteration follow the widened
    ///   per-iteration byte footprint;
    /// * **team pipeline** — the per-team epilogue cost follows the
    ///   [`CombinePattern`] (see MODEL.md for the mapping).
    pub fn time_kernel(
        &self,
        cfg: &LaunchConfig,
        desc: &KernelDescriptor,
        supply_bw: Option<Bandwidth>,
    ) -> Result<GpuKernelBreakdown> {
        cfg.validate()?;
        if desc.elem != cfg.elem || desc.acc != cfg.acc {
            return Err(GhrError::invalid(
                "descriptor",
                format!(
                    "dtype mismatch: descriptor {}→{}, launch {}→{}",
                    desc.elem, desc.acc, cfg.elem, cfg.acc
                ),
            ));
        }
        if desc.input_streams == 0 {
            return Err(GhrError::invalid("descriptor", "input_streams must be > 0"));
        }
        let p = &self.params;
        let spec = &self.spec;
        let streams = desc.input_streams as u64;

        // --- occupancy -----------------------------------------------------
        let resident = spec.teams_resident_per_sm(cfg.threads_per_team) as u64;
        let active_teams = cfg.num_teams.min(spec.sm_count as u64 * resident);
        let active_threads = active_teams * cfg.threads_per_team as u64;

        // --- memory: Little's law vs the supply roof -----------------------
        let bytes_per_iter = cfg.bytes_per_thread_iter() * streams;
        let inflight_bytes = active_threads as f64 * bytes_per_iter as f64 * p.mlp_factor;
        let concurrency_bw = Bandwidth(inflight_bytes / (spec.hbm_latency_ns * 1e-9));
        let hbm_roof = spec.hbm_peak_bw * p.hbm_efficiency(cfg.elem);
        let roof_bw = match supply_bw {
            Some(s) => hbm_roof.min(s),
            None => hbm_roof,
        };
        let mem_bw = roof_bw.min(concurrency_bw);
        let bytes_moved = Bytes(cfg.input_bytes().0 * streams + desc.output_bytes(cfg.m));
        let memory = mem_bw.time_for(bytes_moved);

        // --- compute: warp instruction issue -------------------------------
        let loads_per_iter = bytes_per_iter.div_ceil(p.max_vector_load_bytes) as f64;
        let instr_per_iter = p.instr_base
            + p.instr_per_elem(cfg.elem) * desc.flops_per_elem * cfg.v as f64
            + p.instr_per_load * loads_per_iter;
        let warp_iters =
            (cfg.num_teams * cfg.warps_per_team() as u64 * cfg.iterations_per_thread()) as f64;
        let sms_used = cfg.num_teams.min(spec.sm_count as u64) as f64;
        let issue_rate = sms_used * spec.issue_width as f64 * spec.clock.hz();
        let compute = SimTime::secs(warp_iters * instr_per_iter / issue_rate);

        // --- team pipeline: prologue + epilogue per the combine pattern ----
        let combine_ns = match desc.combine {
            CombinePattern::Reduce | CombinePattern::AxpyDot => match p.combine_strategy {
                crate::params::CombineStrategy::AtomicPerTeam => p.combine_ns(cfg.acc),
                // Two-pass: partials stream to a buffer (cheap, ~coalesced
                // store per team) and a second kernel reduces them.
                crate::params::CombineStrategy::TwoPassKernel => 1.0,
            },
            // Decoupled look-back: each team publishes its aggregate and
            // reads its predecessor's running prefix — two round trips.
            CombinePattern::Scan => 2.0 * p.combine_ns(cfg.acc),
            // Rows complete inside their team; no device-wide combine.
            CombinePattern::GemvRow => 0.0,
        };
        let per_team_ns = p.team_overhead_ns + combine_ns;
        let waves = cfg.num_teams.div_ceil(spec.sm_count as u64);
        let team_pipeline = SimTime::nanos(waves as f64 * per_team_ns);

        // The second pass reads the partials buffer and launches again
        // (only the two-pass reduction strategy pays it; scan's look-back
        // is already charged in the per-team epilogue).
        let second_pass = match desc.combine {
            CombinePattern::Reduce | CombinePattern::AxpyDot => match p.combine_strategy {
                crate::params::CombineStrategy::AtomicPerTeam => SimTime::ZERO,
                crate::params::CombineStrategy::TwoPassKernel => {
                    let partial_bytes = Bytes(cfg.num_teams * cfg.acc.size_bytes());
                    p.launch_overhead + hbm_roof.time_for(partial_bytes)
                }
            },
            CombinePattern::Scan | CombinePattern::GemvRow => SimTime::ZERO,
        };

        let total = p.launch_overhead + memory.max(compute).max(team_pipeline) + second_pass;
        debug_assert!(total.is_valid_span());
        Ok(GpuKernelBreakdown {
            launch: p.launch_overhead,
            memory,
            compute,
            team_pipeline,
            total,
            concurrency_bw,
            roof_bw,
            effective_bw: total.bandwidth_for(bytes_moved),
        })
    }

    /// Convenience: the paper's bandwidth metric for one kernel execution.
    pub fn bandwidth(&self, cfg: &LaunchConfig) -> Result<Bandwidth> {
        Ok(self.reduce(cfg)?.effective_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_types::DType;

    fn model() -> GpuModel {
        GpuModel::new(GpuSpec::h100_sxm_gh200())
    }

    const M4: u64 = 1_048_576_000;

    /// The four baseline configurations exactly as the NVHPC runtime
    /// launches them (profiled in the paper: 128 threads/team, grid =
    /// M/128 capped at 0xFFFFFF).
    fn baseline(case: usize) -> LaunchConfig {
        match case {
            1 => LaunchConfig {
                num_teams: M4 / 128,
                threads_per_team: 128,
                v: 1,
                m: M4,
                elem: DType::I32,
                acc: DType::I32,
            },
            2 => LaunchConfig {
                num_teams: 0xFF_FFFF,
                threads_per_team: 128,
                v: 1,
                m: 4 * M4,
                elem: DType::I8,
                acc: DType::I64,
            },
            3 => LaunchConfig {
                num_teams: M4 / 128,
                threads_per_team: 128,
                v: 1,
                m: M4,
                elem: DType::F32,
                acc: DType::F32,
            },
            4 => LaunchConfig {
                num_teams: M4 / 128,
                threads_per_team: 128,
                v: 1,
                m: M4,
                elem: DType::F64,
                acc: DType::F64,
            },
            _ => unreachable!(),
        }
    }

    /// The paper's chosen optimized configurations: teams-axis 65536,
    /// V = 4 for C1/C3/C4 and V = 32 for C2, thread_limit 256
    /// (num_teams = 65536 / V).
    fn optimized(case: usize) -> LaunchConfig {
        match case {
            1 => LaunchConfig {
                num_teams: 65536 / 4,
                threads_per_team: 256,
                v: 4,
                m: M4,
                elem: DType::I32,
                acc: DType::I32,
            },
            2 => LaunchConfig {
                num_teams: 65536 / 32,
                threads_per_team: 256,
                v: 32,
                m: 4 * M4,
                elem: DType::I8,
                acc: DType::I64,
            },
            3 => LaunchConfig {
                num_teams: 65536 / 4,
                threads_per_team: 256,
                v: 4,
                m: M4,
                elem: DType::F32,
                acc: DType::F32,
            },
            4 => LaunchConfig {
                num_teams: 65536 / 4,
                threads_per_team: 256,
                v: 4,
                m: M4,
                elem: DType::F64,
                acc: DType::F64,
            },
            _ => unreachable!(),
        }
    }

    fn assert_close(actual: f64, target: f64, tol_pct: f64, what: &str) {
        let err = (actual - target).abs() / target * 100.0;
        assert!(
            err <= tol_pct,
            "{what}: got {actual:.1}, target {target:.1} ({err:.2}% off)"
        );
    }

    #[test]
    fn table1_baseline_bandwidths() {
        let m = model();
        let targets = [620.0, 172.0, 271.0, 526.0];
        for (case, target) in (1..=4).zip(targets) {
            let bw = m.bandwidth(&baseline(case)).unwrap().as_gbps();
            assert_close(bw, target, 2.0, &format!("baseline C{case}"));
        }
    }

    #[test]
    fn table1_optimized_bandwidths() {
        let m = model();
        let targets = [3795.0, 3596.0, 3790.0, 3833.0];
        for (case, target) in (1..=4).zip(targets) {
            let bw = m.bandwidth(&optimized(case)).unwrap().as_gbps();
            assert_close(bw, target, 2.0, &format!("optimized C{case}"));
        }
    }

    #[test]
    fn table1_speedups() {
        let m = model();
        let targets = [6.120, 20.906, 13.985, 7.287];
        for (case, target) in (1..=4).zip(targets) {
            let base = m.bandwidth(&baseline(case)).unwrap().as_gbps();
            let opt = m.bandwidth(&optimized(case)).unwrap().as_gbps();
            assert_close(opt / base, target, 4.0, &format!("speedup C{case}"));
        }
    }

    #[test]
    fn baselines_are_team_pipeline_bound() {
        let m = model();
        for case in 1..=4 {
            let b = m.reduce(&baseline(case)).unwrap();
            assert_eq!(b.bound_by(), "team-pipeline", "C{case}: {b:?}");
        }
    }

    #[test]
    fn optimized_are_memory_bound() {
        let m = model();
        for case in 1..=4 {
            let b = m.reduce(&optimized(case)).unwrap();
            assert_eq!(b.bound_by(), "memory", "C{case}: {b:?}");
        }
    }

    #[test]
    fn bandwidth_saturates_near_4096_teams_for_c1() {
        // Fig. 1a: sweeping the teams axis with V=4, the knee is around
        // 4096 (teams-axis value; num_teams = teams/4).
        let m = model();
        let bw_at = |teams: u64| {
            let cfg = LaunchConfig {
                num_teams: (teams / 4).max(1),
                threads_per_team: 256,
                v: 4,
                m: M4,
                elem: DType::I32,
                acc: DType::I32,
            };
            m.bandwidth(&cfg).unwrap().as_gbps()
        };
        let at_1024 = bw_at(1024);
        let at_4096 = bw_at(4096);
        let at_65536 = bw_at(65536);
        // Still climbing well below the knee...
        assert!(at_1024 < 0.75 * at_65536, "{at_1024} vs {at_65536}");
        // ...but within 5% of the plateau at 4096.
        assert!(at_4096 > 0.95 * at_65536, "{at_4096} vs {at_65536}");
    }

    #[test]
    fn c2_saturates_later_than_c1() {
        // Fig. 1b: C2 needs far more teams to saturate (paper: 32768 vs
        // 4096). Compare the teams-axis point where each case reaches 90%
        // of its own plateau.
        let m = model();
        let plateau = |elem: DType, acc: DType, mult: u64, v: u32| {
            let cfg = LaunchConfig {
                num_teams: 65536 / v as u64,
                threads_per_team: 256,
                v,
                m: mult * M4,
                elem,
                acc,
            };
            m.bandwidth(&cfg).unwrap().as_gbps()
        };
        let knee = |elem: DType, acc: DType, mult: u64, v: u32| {
            let top = plateau(elem, acc, mult, v);
            let mut teams = 128u64;
            while teams <= 65536 {
                let cfg = LaunchConfig {
                    num_teams: (teams / v as u64).max(1),
                    threads_per_team: 256,
                    v,
                    m: mult * M4,
                    elem,
                    acc,
                };
                if m.bandwidth(&cfg).unwrap().as_gbps() >= 0.9 * top {
                    return teams;
                }
                teams *= 2;
            }
            teams
        };
        let knee_c1 = knee(DType::I32, DType::I32, 1, 4);
        let knee_c2 = knee(DType::I8, DType::I64, 4, 32);
        assert!(
            knee_c2 >= 2 * knee_c1,
            "knee C1 {knee_c1}, knee C2 {knee_c2}"
        );
    }

    #[test]
    fn best_v_is_4_for_c1_and_32_for_c2_at_65536_teams() {
        let m = model();
        let best_v = |elem: DType, acc: DType, mult: u64| {
            let mut best = (0u32, 0.0f64);
            for v in [1u32, 2, 4, 8, 16, 32] {
                let cfg = LaunchConfig {
                    num_teams: 65536 / v as u64,
                    threads_per_team: 256,
                    v,
                    m: mult * M4,
                    elem,
                    acc,
                };
                let bw = m.bandwidth(&cfg).unwrap().as_gbps();
                // First-wins on ties: prefer the smallest saturating V,
                // like the paper's choice.
                if bw > best.1 * (1.0 + 1e-9) {
                    best = (v, bw);
                }
            }
            best.0
        };
        assert_eq!(best_v(DType::I32, DType::I32, 1), 4);
        assert_eq!(best_v(DType::I8, DType::I64, 4), 32);
    }

    #[test]
    fn remote_supply_caps_the_roof() {
        let m = model();
        let cfg = optimized(1);
        let local = m.reduce(&cfg).unwrap();
        let remote = m
            .reduce_with_supply(&cfg, Some(Bandwidth::gbps(380.0)))
            .unwrap();
        assert!(remote.total > local.total);
        assert!(remote.effective_bw.as_gbps() <= 380.0);
        assert!(remote.effective_bw.as_gbps() > 350.0);
    }

    #[test]
    fn more_teams_never_hurt_below_plateau() {
        let m = model();
        let mut last = 0.0;
        for g in [16u64, 64, 256, 1024, 4096, 16384] {
            let cfg = LaunchConfig {
                num_teams: g,
                threads_per_team: 256,
                v: 4,
                m: M4,
                elem: DType::F32,
                acc: DType::F32,
            };
            let bw = m.bandwidth(&cfg).unwrap().as_gbps();
            assert!(bw >= last - 1e-9, "g={g}: {bw} < {last}");
            last = bw;
        }
    }

    #[test]
    fn invalid_launch_is_rejected() {
        let m = model();
        let mut cfg = optimized(1);
        cfg.v = 5;
        assert!(m.reduce(&cfg).is_err());
    }

    /// Verbatim transcription of the pre-descriptor reduction model. The
    /// refactor's contract is that `KernelDescriptor::sum_reduction` feeds
    /// `time_kernel` the exact same arithmetic, bit for bit.
    fn original_reduction_model(m: &GpuModel, cfg: &LaunchConfig) -> GpuKernelBreakdown {
        let p = m.params();
        let spec = m.spec();
        let resident = spec.teams_resident_per_sm(cfg.threads_per_team) as u64;
        let active_teams = cfg.num_teams.min(spec.sm_count as u64 * resident);
        let active_threads = active_teams * cfg.threads_per_team as u64;
        let inflight_bytes =
            active_threads as f64 * cfg.bytes_per_thread_iter() as f64 * p.mlp_factor;
        let concurrency_bw = Bandwidth(inflight_bytes / (spec.hbm_latency_ns * 1e-9));
        let roof_bw = spec.hbm_peak_bw * p.hbm_efficiency(cfg.elem);
        let mem_bw = roof_bw.min(concurrency_bw);
        let memory = mem_bw.time_for(cfg.input_bytes());
        let loads_per_iter = (cfg.bytes_per_thread_iter()).div_ceil(p.max_vector_load_bytes) as f64;
        let instr_per_iter = p.instr_base
            + p.instr_per_elem(cfg.elem) * cfg.v as f64
            + p.instr_per_load * loads_per_iter;
        let warp_iters =
            (cfg.num_teams * cfg.warps_per_team() as u64 * cfg.iterations_per_thread()) as f64;
        let sms_used = cfg.num_teams.min(spec.sm_count as u64) as f64;
        let issue_rate = sms_used * spec.issue_width as f64 * spec.clock.hz();
        let compute = SimTime::secs(warp_iters * instr_per_iter / issue_rate);
        let per_team_ns = p.team_overhead_ns + p.combine_ns(cfg.acc);
        let waves = cfg.num_teams.div_ceil(spec.sm_count as u64);
        let team_pipeline = SimTime::nanos(waves as f64 * per_team_ns);
        let total = p.launch_overhead + memory.max(compute).max(team_pipeline);
        GpuKernelBreakdown {
            launch: p.launch_overhead,
            memory,
            compute,
            team_pipeline,
            total,
            concurrency_bw,
            roof_bw,
            effective_bw: total.bandwidth_for(cfg.input_bytes()),
        }
    }

    #[test]
    fn sum_reduction_descriptor_is_bit_identical_to_the_original_model() {
        let m = model();
        let mut checked = 0usize;
        for case in 1..=4 {
            for cfg in [baseline(case), optimized(case)] {
                let old = original_reduction_model(&m, &cfg);
                let new = m
                    .time_kernel(
                        &cfg,
                        &KernelDescriptor::sum_reduction(cfg.elem, cfg.acc),
                        None,
                    )
                    .unwrap();
                assert_eq!(
                    old.total.as_secs().to_bits(),
                    new.total.as_secs().to_bits(),
                    "C{case} {cfg:?}"
                );
                assert_eq!(
                    old.effective_bw.as_gbps().to_bits(),
                    new.effective_bw.as_gbps().to_bits(),
                    "C{case} {cfg:?}"
                );
                assert_eq!(old.memory, new.memory, "C{case}");
                assert_eq!(old.compute, new.compute, "C{case}");
                assert_eq!(old.team_pipeline, new.team_pipeline, "C{case}");
                assert_eq!(old.concurrency_bw, new.concurrency_bw, "C{case}");
                checked += 1;
            }
        }
        // And across a teams × V grid, through the public reduce() path.
        for teams in [1u64, 7, 132, 1024, 16384, 0xFF_FFFF] {
            for v in [1u32, 4, 32] {
                let cfg = LaunchConfig {
                    num_teams: teams,
                    threads_per_team: 128,
                    v,
                    m: M4,
                    elem: DType::I8,
                    acc: DType::I64,
                };
                let old = original_reduction_model(&m, &cfg);
                let new = m.reduce(&cfg).unwrap();
                assert_eq!(
                    old.total.as_secs().to_bits(),
                    new.total.as_secs().to_bits(),
                    "teams={teams} v={v}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 26);
    }

    #[test]
    fn dot_descriptor_moves_twice_the_bytes() {
        let m = model();
        let cfg = optimized(1);
        let sum = m.reduce(&cfg).unwrap();
        let dot = m
            .time_kernel(&cfg, &KernelDescriptor::dot(cfg.elem, cfg.acc), None)
            .unwrap();
        // Two streams through the same roof: the memory leg doubles...
        assert!((dot.memory.as_secs() / sum.memory.as_secs() - 2.0).abs() < 1e-9);
        // ...and the effective bandwidth (bytes moved / time) stays at the
        // roof, since the optimized geometry is memory-bound either way.
        assert_eq!(dot.bound_by(), "memory");
    }

    #[test]
    fn scan_descriptor_charges_the_output_stream_and_lookback() {
        let m = model();
        let cfg = optimized(3);
        let sum = m.reduce(&cfg).unwrap();
        let scan = m
            .time_kernel(&cfg, &KernelDescriptor::scan(cfg.elem, cfg.acc), None)
            .unwrap();
        // Scan reads m and writes m accumulators: memory leg doubles.
        assert!(scan.memory > sum.memory);
        // Per-team epilogue pays two combines instead of one.
        assert!(scan.team_pipeline > sum.team_pipeline);
    }

    #[test]
    fn gemv_descriptor_has_no_device_wide_combine() {
        let m = model();
        let cfg = baseline(4);
        let sum = m.reduce(&cfg).unwrap();
        let gemv = m
            .time_kernel(
                &cfg,
                &KernelDescriptor::gemv_row(cfg.elem, cfg.acc, 256),
                None,
            )
            .unwrap();
        // At the baseline's huge grid the reduction is team-pipeline-bound;
        // dropping the device-wide combine leaves only the team prologue.
        assert!(gemv.team_pipeline < sum.team_pipeline);
    }

    #[test]
    fn descriptor_dtype_mismatch_is_rejected() {
        let m = model();
        let cfg = optimized(1);
        let wrong = KernelDescriptor::sum_reduction(DType::F64, DType::F64);
        assert!(m.time_kernel(&cfg, &wrong, None).is_err());
    }

    #[test]
    fn breakdown_is_self_consistent() {
        let m = model();
        let b = m.reduce(&optimized(4)).unwrap();
        assert_eq!(
            b.total,
            b.launch + b.memory.max(b.compute).max(b.team_pipeline)
        );
        assert!(b.effective_bw.as_gbps() > 0.0);
        assert!(b.roof_bw <= m.spec().hbm_peak_bw);
    }
}
