//! SM occupancy calculator.
//!
//! The timing model's team-residency number (`teams_resident_per_sm`)
//! summarizes what this module computes in full: how many teams of a given
//! shape fit on one SM simultaneously, limited by threads, team slots,
//! registers and shared memory. The reduction kernels of the paper are
//! small enough that threads are the binding limit, but the calculator
//! makes the "why" inspectable (`ghr-cli` diagnostics, ablations) and
//! covers kernels with `V`-scaled register pressure.

use ghr_machine::GpuSpec;

/// Per-SM resource capacities (H100 values by default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmResources {
    /// 32-bit registers per SM.
    pub registers: u32,
    /// Shared memory per SM in bytes.
    pub shared_memory: u32,
    /// Register allocation granularity per warp.
    pub register_granularity: u32,
}

impl Default for SmResources {
    fn default() -> Self {
        SmResources {
            registers: 65536,
            shared_memory: 228 * 1024,
            register_granularity: 256,
        }
    }
}

/// Resource footprint of one team of the generated reduction kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeamFootprint {
    /// Threads per team.
    pub threads: u32,
    /// Registers per thread (the OpenMP-outlined reduction uses a base set
    /// plus one accumulator register pair per unrolled element).
    pub registers_per_thread: u32,
    /// Shared memory per team in bytes (the tree-reduction scratch:
    /// one accumulator slot per thread).
    pub shared_memory: u32,
}

impl TeamFootprint {
    /// Footprint of the paper's reduction kernel for a given geometry:
    /// `threads` per team, `v` accumulators of `acc_bytes` each.
    pub fn reduction_kernel(threads: u32, v: u32, acc_bytes: u32) -> Self {
        // ~24 bookkeeping registers (outlined loop, indices, runtime
        // state) plus the live accumulators (one 32-bit register per 4
        // accumulator bytes).
        let acc_regs = v * acc_bytes.div_ceil(4);
        TeamFootprint {
            threads,
            registers_per_thread: 24 + acc_regs,
            shared_memory: threads * acc_bytes,
        }
    }
}

/// Which resource bounds occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupancyLimit {
    /// Resident-thread ceiling.
    Threads,
    /// Team-slot ceiling.
    TeamSlots,
    /// Register file.
    Registers,
    /// Shared memory.
    SharedMemory,
}

/// Occupancy analysis result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Teams resident per SM.
    pub teams_per_sm: u32,
    /// Fraction of the thread ceiling in use.
    pub thread_occupancy: f64,
    /// The binding resource.
    pub limited_by: OccupancyLimit,
}

/// Compute the occupancy of a team footprint on an SM.
pub fn occupancy(spec: &GpuSpec, resources: &SmResources, team: &TeamFootprint) -> Occupancy {
    assert!(team.threads > 0, "teams must have threads");
    let warps = team.threads.div_ceil(spec.warp_size);
    let regs_per_warp = (team.registers_per_thread * spec.warp_size)
        .div_ceil(resources.register_granularity)
        * resources.register_granularity;
    let regs_per_team = regs_per_warp * warps;

    let by_threads = spec.max_threads_per_sm / team.threads;
    let by_slots = spec.max_teams_per_sm;
    let by_regs = resources
        .registers
        .checked_div(regs_per_team)
        .unwrap_or(u32::MAX);
    let by_smem = resources
        .shared_memory
        .checked_div(team.shared_memory)
        .unwrap_or(u32::MAX);

    let (teams, limited_by) = [
        (by_threads, OccupancyLimit::Threads),
        (by_slots, OccupancyLimit::TeamSlots),
        (by_regs, OccupancyLimit::Registers),
        (by_smem, OccupancyLimit::SharedMemory),
    ]
    .into_iter()
    .min_by_key(|&(n, _)| n)
    .expect("non-empty");

    Occupancy {
        teams_per_sm: teams,
        thread_occupancy: (teams * team.threads) as f64 / spec.max_threads_per_sm as f64,
        limited_by,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GpuSpec {
        GpuSpec::h100_sxm_gh200()
    }

    #[test]
    fn paper_kernels_are_thread_limited() {
        // 256-thread teams with V=4 i32 accumulators: light footprint.
        let team = TeamFootprint::reduction_kernel(256, 4, 4);
        let occ = occupancy(&spec(), &SmResources::default(), &team);
        assert_eq!(occ.limited_by, OccupancyLimit::Threads);
        assert_eq!(occ.teams_per_sm, 8);
        assert!((occ.thread_occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_matches_the_timing_models_residency() {
        // The simplified residency used by the timing model must agree
        // with the full calculator for the paper's kernel shapes.
        let s = spec();
        for threads in [128u32, 256] {
            for v in [1u32, 4, 32] {
                let team = TeamFootprint::reduction_kernel(threads, v, 8);
                let occ = occupancy(&s, &SmResources::default(), &team);
                let simplified = s.teams_resident_per_sm(threads);
                assert!(
                    occ.teams_per_sm <= simplified,
                    "threads={threads} v={v}: occ {} vs simplified {simplified}",
                    occ.teams_per_sm
                );
                // For the paper's small-V kernels they agree exactly.
                if v <= 4 {
                    assert_eq!(occ.teams_per_sm, simplified, "threads={threads} v={v}");
                }
            }
        }
    }

    #[test]
    fn register_pressure_caps_wide_unrolls() {
        // A hypothetical V=32 f64 kernel: 24 + 64 = 88 regs/thread.
        // Per 256-thread team: ceil(88*32/256)*256 = 2816 regs/warp * 8
        // warps = 22528; 65536/22528 = 2 teams -- register bound.
        let team = TeamFootprint::reduction_kernel(256, 32, 8);
        let occ = occupancy(&spec(), &SmResources::default(), &team);
        assert_eq!(occ.limited_by, OccupancyLimit::Registers);
        assert_eq!(occ.teams_per_sm, 2);
        assert!(occ.thread_occupancy < 0.3);
    }

    #[test]
    fn shared_memory_can_bind_fat_teams() {
        let team = TeamFootprint {
            threads: 128,
            registers_per_thread: 16,
            shared_memory: 100 * 1024,
        };
        let occ = occupancy(&spec(), &SmResources::default(), &team);
        assert_eq!(occ.limited_by, OccupancyLimit::SharedMemory);
        assert_eq!(occ.teams_per_sm, 2);
    }

    #[test]
    fn team_slots_bind_tiny_teams() {
        let team = TeamFootprint {
            threads: 32,
            registers_per_thread: 8,
            shared_memory: 0,
        };
        let occ = occupancy(&spec(), &SmResources::default(), &team);
        assert_eq!(occ.limited_by, OccupancyLimit::TeamSlots);
        assert_eq!(occ.teams_per_sm, 32);
    }

    #[test]
    #[should_panic(expected = "teams must have threads")]
    fn zero_thread_teams_rejected() {
        let team = TeamFootprint {
            threads: 0,
            registers_per_thread: 1,
            shared_memory: 0,
        };
        let _ = occupancy(&spec(), &SmResources::default(), &team);
    }
}
