//! Heterogeneous co-scheduling policies — an extension beyond the paper.
//!
//! The paper sweeps a *static* CPU fraction `p` and reads the optimum off
//! the chart. Its related-work section points at dynamic approaches
//! (Nozal & Bosque's co-execution runtimes, iMLBench's co-running); this
//! module implements and compares four policies on the same simulated node
//! and unified-memory substrate:
//!
//! * [`SplitPolicy::Static`] — the paper's fixed fraction;
//! * [`SplitPolicy::Oracle`] — the best static fraction found by grid
//!   search over steady-state rates (what the paper's Fig. 2 sweep
//!   ultimately identifies);
//! * [`SplitPolicy::Adaptive`] — per-repetition feedback: re-split by the
//!   throughputs observed in the previous repetition (converges to the
//!   oracle without a sweep, but *moves the boundary*, which churns page
//!   placement in UM — an effect invisible in the paper's static design);
//! * [`SplitPolicy::DynamicChunks`] — a shared chunk queue: both devices
//!   greedily grab fixed-size chunks until the queue drains (fine-grained
//!   balance, maximal placement churn).

use crate::case::Case;
use crate::pricing::{LegPricer, PricedLeg};
use crate::reduction::{KernelKind, ReductionSpec};
use crate::report::{fmt_gbps, Table};
use ghr_machine::MachineConfig;
use ghr_mem::UnifiedMemory;
use ghr_types::{Bytes, GhrError, Result, SimTime};

/// A policy deciding how each repetition's work splits across devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitPolicy {
    /// Fixed CPU fraction (the paper's design).
    Static {
        /// CPU fraction in `[0, 1]`.
        p: f64,
    },
    /// Best static fraction by grid search over the steady-state rates.
    Oracle,
    /// Throughput-feedback re-splitting with an initial probe fraction.
    Adaptive {
        /// CPU fraction used for the first repetition.
        p0: f64,
    },
    /// Shared queue of `chunks` equal chunks per repetition, grabbed
    /// greedily by whichever device frees up first.
    DynamicChunks {
        /// Chunks per repetition (>= 1).
        chunks: u32,
    },
}

impl std::fmt::Display for SplitPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitPolicy::Static { p } => write!(f, "static(p={p:.2})"),
            SplitPolicy::Oracle => write!(f, "oracle"),
            SplitPolicy::Adaptive { p0 } => write!(f, "adaptive(p0={p0:.2})"),
            SplitPolicy::DynamicChunks { chunks } => write!(f, "dynamic({chunks} chunks)"),
        }
    }
}

/// Configuration of one scheduling experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// The evaluation case.
    pub case: Case,
    /// Device kernel variant.
    pub kind: KernelKind,
    /// The policy under test.
    pub policy: SplitPolicy,
    /// Repetitions (paper: 200).
    pub n_reps: u32,
    /// Element count.
    pub m: u64,
    /// Simulated host threads.
    pub cpu_threads: u32,
}

impl SchedConfig {
    /// Paper-scale configuration with the optimized kernel.
    pub fn paper(case: Case, policy: SplitPolicy) -> Self {
        SchedConfig {
            case,
            kind: ReductionSpec::optimized_paper(case).kind,
            policy,
            n_reps: 200,
            m: case.m_paper(),
            cpu_threads: 72,
        }
    }

    /// Scale down for tests.
    pub fn scaled(mut self, m: u64, n_reps: u32) -> Self {
        self.m = self.case.m_scaled(m);
        self.n_reps = n_reps;
        self
    }
}

/// Result of one scheduling experiment.
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// The configuration.
    pub config: SchedConfig,
    /// Effective CPU fraction used in each repetition.
    pub per_rep_p: Vec<f64>,
    /// Total modelled time.
    pub total: SimTime,
    /// The paper's bandwidth metric over all repetitions.
    pub gbps: f64,
    /// Total bytes migrated CPU→GPU (placement churn indicator).
    pub migrated_to_gpu: Bytes,
}

impl SchedOutcome {
    /// The CPU fraction the policy settled on (mean of the last quarter of
    /// repetitions).
    pub fn converged_p(&self) -> f64 {
        let tail = &self.per_rep_p[self.per_rep_p.len() - self.per_rep_p.len() / 4..];
        if tail.is_empty() {
            return *self.per_rep_p.last().unwrap_or(&0.0);
        }
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Run one scheduling experiment (UM mode, array initialized on the CPU —
/// the paper's A1 setup).
pub fn run_scheduled(machine: &MachineConfig, config: &SchedConfig) -> Result<SchedOutcome> {
    validate(config)?;
    let case = config.case;
    let elem_size = case.elem().size_bytes();
    let total_bytes = Bytes(config.m * elem_size);
    let region = ReductionSpec {
        case,
        kind: config.kind,
    }
    .region();
    let pricer = LegPricer::new(machine, config.cpu_threads);
    let mut um = UnifiedMemory::new(machine);
    let rid = um.alloc(total_bytes);
    um.cpu_access(rid, Bytes::ZERO, total_bytes);

    // Split-at-len helper: price one repetition at CPU share `len_h`.
    let price_split =
        |um: &mut UnifiedMemory, len_h: u64| -> Result<(SimTime, PricedLeg, PricedLeg)> {
            let len_d = config.m - len_h;
            let len_h_bytes = Bytes(len_h * elem_size);
            let len_d_bytes = Bytes(len_d * elem_size);
            let cpu_leg = if len_h > 0 {
                let cb = pricer
                    .cpu_model()
                    .reduce_local(len_h, case.elem(), config.cpu_threads);
                pricer.cpu_leg(um, rid, Bytes::ZERO, len_h_bytes, &cb)
            } else {
                PricedLeg::idle()
            };
            let gpu_leg = if len_d > 0 {
                let gb = pricer.gpu_model().reduce(&region.resolve_launch(
                    len_d,
                    case.elem(),
                    case.acc(),
                )?)?;
                pricer.gpu_leg(um, rid, len_h_bytes, len_d_bytes, &gb)
            } else {
                PricedLeg::idle()
            };
            Ok((pricer.rep_time(&cpu_leg, &gpu_leg, true), cpu_leg, gpu_leg))
        };

    let mut per_rep_p = Vec::with_capacity(config.n_reps as usize);
    let mut total = SimTime::ZERO;

    match config.policy {
        SplitPolicy::Static { p } => {
            let len_h = (p * config.m as f64).round() as u64;
            for _ in 0..config.n_reps {
                let (rep, _, _) = price_split(&mut um, len_h)?;
                total += rep;
                per_rep_p.push(p);
            }
        }
        SplitPolicy::Oracle => {
            // Grid-search the steady-state rates on a scratch UM copy so
            // the probe does not perturb the measured placement.
            let p = oracle_p(machine, config)?;
            let len_h = (p * config.m as f64).round() as u64;
            for _ in 0..config.n_reps {
                let (rep, _, _) = price_split(&mut um, len_h)?;
                total += rep;
                per_rep_p.push(p);
            }
        }
        SplitPolicy::Adaptive { p0 } => {
            // Probe-then-commit. In UM every boundary move migrates the
            // delta region (slow) and poisons the CPU side with
            // GPU-resident pages, and the transient pollutes the measured
            // rates — raw feedback therefore oscillates forever, and the
            // oscillation itself costs bandwidth. So: damped feedback
            // during a short warmup window, then freeze the split and let
            // the placement settle.
            const GAIN: f64 = 0.5;
            let warmup = (config.n_reps / 2).clamp(3, 24);
            let mut p = p0;
            for rep_idx in 0..config.n_reps {
                let len_h = (p * config.m as f64).round() as u64;
                let (rep, cpu_leg, gpu_leg) = price_split(&mut um, len_h)?;
                total += rep;
                per_rep_p.push(p);
                if rep_idx + 1 >= warmup || rep_idx % 2 == 0 {
                    // Committed — or this was the first repetition at a
                    // fresh split, whose rates are polluted by the
                    // boundary migration; only the settled (second)
                    // repetition feeds back.
                    continue;
                }
                let cpu_rate = if cpu_leg.time > SimTime::ZERO {
                    len_h as f64 / cpu_leg.time.as_secs()
                } else {
                    0.0
                };
                let gpu_rate = if gpu_leg.time > SimTime::ZERO {
                    (config.m - len_h) as f64 / gpu_leg.time.as_secs()
                } else {
                    0.0
                };
                let target = if cpu_rate + gpu_rate > 0.0 {
                    (cpu_rate / (cpu_rate + gpu_rate)).clamp(0.0, 1.0)
                } else {
                    0.05
                };
                p = (p + GAIN * (target - p)).clamp(0.0, 1.0);
            }
        }
        SplitPolicy::DynamicChunks { chunks } => {
            let chunk_elems = config.m.div_ceil(chunks as u64);
            for _ in 0..config.n_reps {
                // Greedy queue: assign the next chunk (front-to-back) to
                // the device with the earlier current finish time. CPU
                // owns a prefix-ish interleaving; each chunk is priced
                // with the current page placement.
                let mut t_cpu = SimTime::ZERO;
                let mut t_gpu = SimTime::ZERO;
                let mut cpu_elems = 0u64;
                let mut start = 0u64;
                while start < config.m {
                    let len = chunk_elems.min(config.m - start);
                    let off = Bytes(start * elem_size);
                    let bytes = Bytes(len * elem_size);
                    if t_cpu <= t_gpu {
                        let cb =
                            pricer
                                .cpu_model()
                                .reduce_local(len, case.elem(), config.cpu_threads);
                        let leg = pricer.cpu_leg(&mut um, rid, off, bytes, &cb);
                        t_cpu += leg.time;
                        cpu_elems += len;
                    } else {
                        let gb = pricer.gpu_model().reduce(&region.resolve_launch(
                            len,
                            case.elem(),
                            case.acc(),
                        )?)?;
                        let leg = pricer.gpu_leg(&mut um, rid, off, bytes, &gb);
                        t_gpu += leg.time;
                    }
                    start += len;
                }
                total += t_cpu.max(t_gpu);
                per_rep_p.push(cpu_elems as f64 / config.m as f64);
            }
        }
    }

    Ok(SchedOutcome {
        config: *config,
        per_rep_p,
        gbps: total
            .bandwidth_for(Bytes(total_bytes.0 * config.n_reps as u64))
            .as_gbps(),
        total,
        migrated_to_gpu: um.stats().migrated_to_gpu,
    })
}

/// Best static fraction by grid search on the *steady-state* per-rep time,
/// using scratch unified-memory instances. A short probe would be
/// dominated by the one-time migration of the GPU part (making `p = 1`
/// falsely look optimal), so each candidate is probed twice and the
/// difference isolates the settled repetitions.
fn oracle_p(machine: &MachineConfig, config: &SchedConfig) -> Result<f64> {
    let mut best = (0.0f64, f64::INFINITY);
    for i in 0..=20 {
        let p = i as f64 / 20.0;
        let mut probe = *config;
        probe.policy = SplitPolicy::Static { p };
        probe.n_reps = 2;
        let t2 = run_scheduled(machine, &probe)?.total;
        probe.n_reps = 6;
        let t6 = run_scheduled(machine, &probe)?.total;
        let steady_per_rep = (t6 - t2).as_secs() / 4.0;
        if steady_per_rep < best.1 {
            best = (p, steady_per_rep);
        }
    }
    Ok(best.0)
}

fn validate(config: &SchedConfig) -> Result<()> {
    match config.policy {
        SplitPolicy::Static { p } | SplitPolicy::Adaptive { p0: p } => {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(GhrError::invalid("p", format!("must be in [0,1], got {p}")));
            }
        }
        SplitPolicy::DynamicChunks { chunks } => {
            if chunks == 0 {
                return Err(GhrError::invalid("chunks", "must be >= 1"));
            }
        }
        SplitPolicy::Oracle => {}
    }
    if config.n_reps == 0 {
        return Err(GhrError::invalid("n_reps", "must be >= 1"));
    }
    if config.m == 0 {
        return Err(GhrError::invalid("m", "must be >= 1"));
    }
    Ok(())
}

/// Compare all policies on one case; returns `(policy, outcome)` rows.
pub fn compare_policies(
    machine: &MachineConfig,
    case: Case,
    m: u64,
    n_reps: u32,
) -> Result<Vec<SchedOutcome>> {
    let policies = [
        SplitPolicy::Static { p: 0.0 },
        SplitPolicy::Static { p: 0.1 },
        SplitPolicy::Static { p: 0.5 },
        SplitPolicy::Oracle,
        SplitPolicy::Adaptive { p0: 0.5 },
        SplitPolicy::DynamicChunks { chunks: 20 },
    ];
    policies
        .iter()
        .map(|&policy| run_scheduled(machine, &SchedConfig::paper(case, policy).scaled(m, n_reps)))
        .collect()
}

/// Render a policy comparison as a table.
pub fn comparison_table(outcomes: &[SchedOutcome]) -> Table {
    let mut t = Table::new(["policy", "GB/s", "converged p", "migrated"]);
    for o in outcomes {
        t.row([
            o.config.policy.to_string(),
            fmt_gbps(o.gbps),
            format!("{:.3}", o.converged_p()),
            o.migrated_to_gpu.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig::gh200()
    }

    fn run(policy: SplitPolicy) -> SchedOutcome {
        let cfg = SchedConfig::paper(Case::C1, policy).scaled(10_000_000, 30);
        run_scheduled(&machine(), &cfg).unwrap()
    }

    #[test]
    fn static_policy_keeps_p_constant() {
        let out = run(SplitPolicy::Static { p: 0.3 });
        assert!(out.per_rep_p.iter().all(|&p| (p - 0.3).abs() < 1e-12));
        assert!(out.gbps > 0.0);
    }

    #[test]
    fn adaptive_converges_to_a_stable_split() {
        let out = run(SplitPolicy::Adaptive { p0: 0.5 });
        let tail: Vec<f64> = out.per_rep_p[out.per_rep_p.len() - 5..].to_vec();
        let spread = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - tail.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 0.05, "tail did not settle: {tail:?}");
        // A balanced split gives the CPU a small share on this node.
        let p = out.converged_p();
        assert!((0.0..=0.35).contains(&p), "converged p {p}");
    }

    #[test]
    fn adaptive_beats_bad_static_choice_over_a_long_horizon() {
        // The probe phase migrates the shrinking CPU region to the GPU,
        // which takes time to amortize — the win shows up over the
        // paper's 200-repetition horizon, not a 30-rep one.
        let machine = machine();
        let run_long = |policy| {
            let cfg = SchedConfig::paper(Case::C1, policy).scaled(10_000_000, 200);
            run_scheduled(&machine, &cfg).unwrap()
        };
        let bad = run_long(SplitPolicy::Static { p: 0.8 });
        let adaptive = run_long(SplitPolicy::Adaptive { p0: 0.8 });
        assert!(
            adaptive.gbps > bad.gbps,
            "adaptive {:.0} vs static-0.8 {:.0}",
            adaptive.gbps,
            bad.gbps
        );
    }

    #[test]
    fn oracle_is_at_least_as_good_as_most_statics() {
        // The oracle optimizes the steady state, so judge it on the
        // paper's 200-repetition horizon where migration has amortized.
        let machine = machine();
        let run_long = |policy| {
            let cfg = SchedConfig::paper(Case::C1, policy).scaled(10_000_000, 200);
            run_scheduled(&machine, &cfg).unwrap()
        };
        let oracle = run_long(SplitPolicy::Oracle);
        for p in [0.3, 0.6, 0.9] {
            let s = run_long(SplitPolicy::Static { p });
            assert!(
                oracle.gbps >= s.gbps * 0.95,
                "oracle {:.0} vs static({p}) {:.0}",
                oracle.gbps,
                s.gbps
            );
        }
    }

    #[test]
    fn dynamic_chunks_balance_without_migrating_everything() {
        let dynamic = run(SplitPolicy::DynamicChunks { chunks: 20 });
        let static_gpu_only = run(SplitPolicy::Static { p: 0.0 });
        // The queue self-balances: per-rep p is strictly between 0 and 1.
        assert!(dynamic.per_rep_p.iter().all(|&p| p > 0.0 && p < 1.0));
        // GPU-owned chunks migrate; CPU-owned chunks stay — so migration
        // is nonzero but below the GPU-only policy's whole-array move.
        assert!(dynamic.migrated_to_gpu.0 > 0);
        assert!(dynamic.migrated_to_gpu <= static_gpu_only.migrated_to_gpu);
    }

    #[test]
    fn invalid_configs_rejected() {
        let m = machine();
        let bad_p = SchedConfig::paper(Case::C1, SplitPolicy::Static { p: 1.5 });
        assert!(run_scheduled(&m, &bad_p).is_err());
        let bad_chunks = SchedConfig::paper(Case::C1, SplitPolicy::DynamicChunks { chunks: 0 });
        assert!(run_scheduled(&m, &bad_chunks).is_err());
        let mut bad_reps = SchedConfig::paper(Case::C1, SplitPolicy::Oracle);
        bad_reps.n_reps = 0;
        assert!(run_scheduled(&m, &bad_reps).is_err());
    }

    #[test]
    fn comparison_table_has_all_policies() {
        let rows = compare_policies(&machine(), Case::C1, 5_000_000, 10).unwrap();
        assert_eq!(rows.len(), 6);
        let md = comparison_table(&rows).to_markdown();
        assert!(md.contains("oracle"));
        assert!(md.contains("dynamic(20 chunks)"));
    }
}
