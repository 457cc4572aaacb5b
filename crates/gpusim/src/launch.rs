//! Kernel launch configuration.

use ghr_types::{Bytes, DType, GhrError, Result};

/// Geometry and workload of one offloaded reduction kernel.
///
/// This corresponds to the paper's Listing 5: a grid of `num_teams` teams
/// of `threads_per_team` threads, reducing `m` elements of type `elem`
/// into an accumulator of type `acc`, with `v` elements added per loop
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchConfig {
    /// Number of teams (the CUDA grid size). This is the value of the
    /// `num_teams` clause — i.e. already divided by `v` if the caller
    /// swept the paper's "teams" axis.
    pub num_teams: u64,
    /// Threads per team (the `thread_limit` clause).
    pub threads_per_team: u32,
    /// Elements accumulated per loop iteration (the paper's `V`).
    pub v: u32,
    /// Number of input elements.
    pub m: u64,
    /// Input element type `T`.
    pub elem: DType,
    /// Accumulator type `R`.
    pub acc: DType,
}

impl LaunchConfig {
    /// Validate the configuration against the paper's parameter space.
    pub fn validate(&self) -> Result<()> {
        if self.num_teams == 0 {
            return Err(GhrError::invalid("num_teams", "must be > 0"));
        }
        if self.threads_per_team == 0 {
            return Err(GhrError::invalid("thread_limit", "must be > 0"));
        }
        if !self.threads_per_team.is_multiple_of(32) {
            return Err(GhrError::invalid(
                "thread_limit",
                format!(
                    "must be a multiple of the warp size (got {})",
                    self.threads_per_team
                ),
            ));
        }
        if !matches!(self.v, 1 | 2 | 4 | 8 | 16 | 32) {
            return Err(GhrError::invalid(
                "v",
                format!("must be a power of two in 1..=32 (got {})", self.v),
            ));
        }
        if self.m == 0 {
            return Err(GhrError::invalid("m", "must be > 0"));
        }
        Ok(())
    }

    /// Warps per team.
    pub fn warps_per_team(&self) -> u32 {
        self.threads_per_team.div_ceil(32)
    }

    /// Loop iterations in the distributed iteration space (`M / V`,
    /// rounded up — the tail is handled serially by the executor).
    pub fn iteration_space(&self) -> u64 {
        self.m / self.v as u64
    }

    /// Iterations executed by the busiest thread
    /// (`ceil(iteration_space / (teams * threads))`, at least 1).
    pub fn iterations_per_thread(&self) -> u64 {
        let slots = self.num_teams * self.threads_per_team as u64;
        self.iteration_space().div_ceil(slots).max(1)
    }

    /// Total bytes of input read by the kernel.
    pub fn input_bytes(&self) -> Bytes {
        Bytes(self.m * self.elem.size_bytes())
    }

    /// Bytes each thread keeps in flight per loop iteration
    /// (`V * sizeof(T)`), the quantity that drives memory-level
    /// parallelism in the timing model.
    pub fn bytes_per_thread_iter(&self) -> u64 {
        self.v as u64 * self.elem.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c1_opt() -> LaunchConfig {
        LaunchConfig {
            num_teams: 16384,
            threads_per_team: 256,
            v: 4,
            m: 1_048_576_000,
            elem: DType::I32,
            acc: DType::I32,
        }
    }

    #[test]
    fn valid_config_passes() {
        assert!(c1_opt().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = c1_opt();
        c.num_teams = 0;
        assert!(c.validate().is_err());

        let mut c = c1_opt();
        c.threads_per_team = 100; // not a warp multiple
        assert!(c.validate().is_err());

        let mut c = c1_opt();
        c.v = 3;
        assert!(c.validate().is_err());

        let mut c = c1_opt();
        c.v = 64;
        assert!(c.validate().is_err());

        let mut c = c1_opt();
        c.m = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn derived_quantities_match_paper_case_c1() {
        let c = c1_opt();
        assert_eq!(c.warps_per_team(), 8);
        assert_eq!(c.iteration_space(), 262_144_000);
        // 262_144_000 / (16384 * 256) = 62.5 -> 63 on the busiest thread.
        assert_eq!(c.iterations_per_thread(), 63);
        assert_eq!(c.input_bytes(), Bytes(4_194_304_000));
        assert_eq!(c.bytes_per_thread_iter(), 16);
    }

    #[test]
    fn iterations_per_thread_is_at_least_one() {
        let mut c = c1_opt();
        c.m = 100;
        c.v = 1;
        assert_eq!(c.iterations_per_thread(), 1);
    }
}
