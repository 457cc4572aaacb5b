//! The `target teams distribute parallel for` region builder.

use crate::clause::{MapKind, ReductionOp};
use crate::heuristics;
use ghr_gpusim::LaunchConfig;
use ghr_types::{DType, GhrError, Result};

/// A typed description of the paper's annotated loop:
///
/// ```c
/// #pragma omp target teams distribute parallel for \
///         num_teams(G) thread_limit(T) reduction(+ : sum) [nowait]
/// for (m = 0; m < M / V; m++) {
///     i = V * m;
///     sum += in[i] + in[i+1] + ... + in[i+V-1];
/// }
/// ```
///
/// `v` is not an OpenMP clause — it is how the loop body was written
/// (Listing 4/5); it is carried here because it changes both the iteration
/// count the runtime sees and the generated kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TargetRegion {
    /// `reduction(op : sum)`.
    pub reduction: ReductionOp,
    /// `num_teams(...)` — `None` lets the runtime heuristics decide.
    pub num_teams: Option<u64>,
    /// `thread_limit(...)` — `None` lets the runtime heuristics decide.
    pub thread_limit: Option<u32>,
    /// Elements accumulated per loop iteration (source-level `V`).
    pub v: u32,
    /// `nowait` — the region does not synchronize with the encountering
    /// host thread (used by the co-execution experiment, Listing 7).
    pub nowait: bool,
    /// `map(...)` behaviour requested for the input array. Ignored (no
    /// allocation, no transfer) in unified-memory mode, as on the GH200.
    pub map_input: Option<MapKind>,
    /// `if(target: ...)` — when `false`, the region executes on the host
    /// (OpenMP 5.x device-selection semantics).
    pub if_target: bool,
}

impl TargetRegion {
    /// The paper's baseline region (Listing 2): no geometry clauses, V = 1.
    pub fn baseline() -> Self {
        TargetRegion {
            reduction: ReductionOp::Plus,
            num_teams: None,
            thread_limit: None,
            v: 1,
            nowait: false,
            map_input: None,
            if_target: true,
        }
    }

    /// The paper's optimized region (Listing 5): the *teams axis* value is
    /// divided by `v` for the `num_teams` clause, thread_limit 256.
    pub fn optimized(teams_axis: u64, v: u32) -> Self {
        TargetRegion {
            reduction: ReductionOp::Plus,
            num_teams: Some((teams_axis / v as u64).max(1)),
            thread_limit: Some(256),
            v,
            nowait: false,
            map_input: None,
            if_target: true,
        }
    }

    /// Set the `if(target: ...)` clause: `false` sends the region to the
    /// host.
    pub fn with_if_target(mut self, cond: bool) -> Self {
        self.if_target = cond;
        self
    }

    /// Set `num_teams` directly (already divided by `V` if applicable).
    pub fn with_num_teams(mut self, g: u64) -> Self {
        self.num_teams = Some(g);
        self
    }

    /// Set `thread_limit`.
    pub fn with_thread_limit(mut self, t: u32) -> Self {
        self.thread_limit = Some(t);
        self
    }

    /// Set the source-level unroll factor `V`.
    pub fn with_v(mut self, v: u32) -> Self {
        self.v = v;
        self
    }

    /// Add `nowait`.
    pub fn with_nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// Add a `map` clause for the input array.
    pub fn with_map_input(mut self, kind: MapKind) -> Self {
        self.map_input = Some(kind);
        self
    }

    /// The loop iteration count the runtime sees for `m` input elements
    /// (`M / V` — Listing 5 rewrites the loop this way).
    pub fn loop_count(&self, m: u64) -> u64 {
        m / self.v.max(1) as u64
    }

    /// Resolve the concrete kernel launch for `m` elements of type
    /// `elem`/`acc`, applying the NVHPC heuristics for absent clauses.
    pub fn resolve_launch(&self, m: u64, elem: DType, acc: DType) -> Result<LaunchConfig> {
        if m == 0 {
            return Err(GhrError::invalid("m", "must be > 0"));
        }
        let threads = self
            .thread_limit
            .unwrap_or(heuristics::DEFAULT_THREADS_PER_TEAM);
        let num_teams = match self.num_teams {
            Some(g) => g.min(heuristics::GRID_CAP),
            None => heuristics::default_grid(self.loop_count(m), threads),
        };
        let cfg = LaunchConfig {
            num_teams,
            threads_per_team: threads,
            v: self.v,
            m,
            elem,
            acc,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Render the region as the OpenMP pragma it models (for reports).
    pub fn pragma(&self) -> String {
        let mut s = String::from("#pragma omp target teams distribute parallel for");
        if let Some(g) = self.num_teams {
            s.push_str(&format!(" num_teams({g})"));
        }
        if let Some(t) = self.thread_limit {
            s.push_str(&format!(" thread_limit({t})"));
        }
        s.push_str(&format!(" reduction({}:sum)", self.reduction));
        if self.nowait {
            s.push_str(" nowait");
        }
        if let Some(k) = self.map_input {
            s.push_str(&format!(" map({k}: in[0:M])"));
        }
        if !self.if_target {
            s.push_str(" if(target: 0)");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: u64 = 1_048_576_000;

    #[test]
    fn baseline_resolves_to_profiled_geometry() {
        let r = TargetRegion::baseline();
        let cfg = r.resolve_launch(M, DType::I32, DType::I32).unwrap();
        assert_eq!(cfg.num_teams, 8_192_000);
        assert_eq!(cfg.threads_per_team, 128);
        assert_eq!(cfg.v, 1);
    }

    #[test]
    fn baseline_c2_hits_grid_cap() {
        let r = TargetRegion::baseline();
        let cfg = r.resolve_launch(4 * M, DType::I8, DType::I64).unwrap();
        assert_eq!(cfg.num_teams, 16_777_215);
    }

    #[test]
    fn optimized_divides_teams_axis_by_v() {
        let r = TargetRegion::optimized(65536, 4);
        let cfg = r.resolve_launch(M, DType::I32, DType::I32).unwrap();
        assert_eq!(cfg.num_teams, 16384);
        assert_eq!(cfg.threads_per_team, 256);
        assert_eq!(cfg.v, 4);
        // Tiny teams-axis values still launch one team.
        let r = TargetRegion::optimized(16, 32);
        assert_eq!(r.num_teams, Some(1));
    }

    #[test]
    fn explicit_num_teams_is_capped_like_the_runtime() {
        let r = TargetRegion::baseline().with_num_teams(1 << 30);
        let cfg = r.resolve_launch(M, DType::I32, DType::I32).unwrap();
        assert_eq!(cfg.num_teams, heuristics::GRID_CAP);
    }

    #[test]
    fn loop_count_divides_by_v() {
        let r = TargetRegion::baseline().with_v(4);
        assert_eq!(r.loop_count(M), M / 4);
    }

    #[test]
    fn zero_m_rejected() {
        let r = TargetRegion::baseline();
        assert!(r.resolve_launch(0, DType::I32, DType::I32).is_err());
    }

    #[test]
    fn pragma_rendering() {
        let r = TargetRegion::optimized(65536, 4).with_nowait();
        let p = r.pragma();
        assert!(p.contains("num_teams(16384)"));
        assert!(p.contains("thread_limit(256)"));
        assert!(p.contains("reduction(+:sum)"));
        assert!(p.contains("nowait"));

        let b = TargetRegion::baseline().pragma();
        assert!(!b.contains("num_teams"));
        assert!(!b.contains("thread_limit"));
    }

    #[test]
    fn if_target_clause_renders_and_defaults_true() {
        assert!(TargetRegion::baseline().if_target);
        let r = TargetRegion::baseline().with_if_target(false);
        assert!(r.pragma().contains("if(target: 0)"));
        assert!(!TargetRegion::baseline().pragma().contains("if(target"));
    }

    #[test]
    fn builder_chain() {
        let r = TargetRegion::baseline()
            .with_num_teams(64)
            .with_thread_limit(64)
            .with_v(2)
            .with_map_input(MapKind::To);
        assert_eq!(r.num_teams, Some(64));
        assert_eq!(r.thread_limit, Some(64));
        assert_eq!(r.v, 2);
        assert_eq!(r.map_input, Some(MapKind::To));
    }
}
