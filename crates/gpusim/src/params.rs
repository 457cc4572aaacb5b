//! Fitted parameters of the GPU timing model.

use ghr_types::{CombineClass, DType, SimTime, WidthClass};

/// How per-team partial results are combined into the final value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineStrategy {
    /// One device-wide combine operation per team (NVHPC's generated
    /// code; atomic-like, with per-accumulator-type cost). This is what
    /// the paper measured.
    AtomicPerTeam,
    /// Teams write partials to a buffer and a second (tiny) kernel
    /// reduces the buffer — the classic CUDA idiom a future runtime could
    /// emit instead ("the heuristics may be further optimized").
    TwoPassKernel,
}

/// Free parameters of the kernel timing model.
///
/// These are the quantities a datasheet does not give: per-team runtime
/// overheads, OpenMP-outlining instruction costs, and DRAM streaming
/// efficiencies. The defaults are fitted (see [`crate::calibrate`]) so the
/// GH200 preset reproduces the paper's Table 1; each field's doc comment
/// records which observation pins it down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModelParams {
    /// Kernel launch + OpenMP target-region entry/exit cost per repetition
    /// (driver submission, `target update` of the scalar `sum`).
    pub launch_overhead: SimTime,
    /// Fixed cost per team, serialized per SM: prologue, `distribute`
    /// bookkeeping, intra-team tree reduction and barriers. Pinned by the
    /// baseline C1 bandwidth (620 GB/s at an 8.19M-team grid).
    pub team_overhead_ns: f64,
    /// Additional per-team combine cost by accumulator type. Integer adds
    /// aggregate in L2 (fast); 64-bit and floating-point atomics serialize
    /// round trips. Pinned by the ratios between the four baseline rows of
    /// Table 1 (620 / 172 / 271 / 526 GB/s).
    pub combine_ns_i32: f64,
    /// See [`GpuModelParams::combine_ns_i32`].
    pub combine_ns_i64: f64,
    /// See [`GpuModelParams::combine_ns_i32`].
    pub combine_ns_f32: f64,
    /// See [`GpuModelParams::combine_ns_i32`].
    pub combine_ns_f64: f64,
    /// Warp instructions per loop iteration independent of `V` — the
    /// OpenMP-outlined loop's scheduling/runtime overhead. Pinned by the
    /// compute-bound region of Fig. 1 (small-`V` curves flattening below
    /// the memory roof).
    pub instr_base: f64,
    /// Warp instructions per element accumulated (`V` of them per
    /// iteration) for 4-/8-byte types.
    pub instr_per_add: f64,
    /// Warp instructions per `i8` element (sign-extending widen chains).
    pub instr_per_add_i8: f64,
    /// Warp instructions per load instruction issued (address generation +
    /// the load itself); one load covers up to
    /// [`GpuModelParams::max_vector_load_bytes`] per thread.
    pub instr_per_load: f64,
    /// Widest per-thread vector load the compiler emits (`ld.global.v4`,
    /// 16 bytes).
    pub max_vector_load_bytes: u64,
    /// Fraction of one outstanding `V * sizeof(T)`-byte access each thread
    /// sustains on average (memory-level-parallelism factor in Little's
    /// law). Pinned by where Fig. 1's curves saturate (4096 teams for
    /// C1/C3/C4).
    pub mlp_factor: f64,
    /// Achievable fraction of peak HBM bandwidth for streaming reads of
    /// 1-byte elements. Pinned by C2's 89.4% optimized efficiency.
    pub hbm_efficiency_1b: f64,
    /// As above for 4-byte elements (C1/C3: ~94%).
    pub hbm_efficiency_4b: f64,
    /// As above for 8-byte elements (C4: ~95%).
    pub hbm_efficiency_8b: f64,
    /// How team partials reach the final result.
    pub combine_strategy: CombineStrategy,
}

impl Default for GpuModelParams {
    fn default() -> Self {
        GpuModelParams {
            launch_overhead: SimTime::micros(10.0),
            team_overhead_ns: 60.0,
            combine_ns_i32: 49.0,
            combine_ns_i64: 132.0,
            combine_ns_f32: 190.0,
            combine_ns_f64: 197.0,
            instr_base: 80.0,
            instr_per_add: 1.0,
            instr_per_add_i8: 4.2,
            instr_per_load: 2.0,
            max_vector_load_bytes: 16,
            // Sits in the narrow window where a 16-byte-per-thread access
            // pattern (V=4 on 4-byte types) just saturates the 4-byte HBM
            // roof while falling just short of the 8-byte roof — so V=4 is
            // the paper's winner for C1/C3 *and* C4 (V=2 would otherwise
            // tie on f64), and the knee lands at ~4096 teams.
            mlp_factor: 0.5775,
            hbm_efficiency_1b: 0.9016,
            hbm_efficiency_4b: 0.9515,
            hbm_efficiency_8b: 0.9572,
            combine_strategy: CombineStrategy::AtomicPerTeam,
        }
    }
}

impl GpuModelParams {
    /// Per-team combine cost for an accumulator type, in nanoseconds.
    pub fn combine_ns(&self, acc: DType) -> f64 {
        match acc.combine_class() {
            CombineClass::Int32 => self.combine_ns_i32,
            CombineClass::Int64 => self.combine_ns_i64,
            CombineClass::Float32 => self.combine_ns_f32,
            CombineClass::Float64 => self.combine_ns_f64,
        }
    }

    /// Per-element instruction cost for an element type.
    pub fn instr_per_elem(&self, elem: DType) -> f64 {
        if elem.widens_on_accumulate() {
            self.instr_per_add_i8
        } else {
            self.instr_per_add
        }
    }

    /// Streaming efficiency of HBM for an element width.
    pub fn hbm_efficiency(&self, elem: DType) -> f64 {
        match elem.width_class() {
            WidthClass::OneByte => self.hbm_efficiency_1b,
            WidthClass::FourByte => self.hbm_efficiency_4b,
            WidthClass::EightByte => self.hbm_efficiency_8b,
        }
    }

    /// Sanity bounds for a parameter set (used by the calibration search).
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("team_overhead_ns", self.team_overhead_ns),
            ("combine_ns_i32", self.combine_ns_i32),
            ("combine_ns_i64", self.combine_ns_i64),
            ("combine_ns_f32", self.combine_ns_f32),
            ("combine_ns_f64", self.combine_ns_f64),
            ("instr_base", self.instr_base),
            ("instr_per_add", self.instr_per_add),
            ("instr_per_add_i8", self.instr_per_add_i8),
            ("instr_per_load", self.instr_per_load),
            ("mlp_factor", self.mlp_factor),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("{name} must be finite and non-negative (got {v})"));
            }
        }
        for (name, v) in [
            ("hbm_efficiency_1b", self.hbm_efficiency_1b),
            ("hbm_efficiency_4b", self.hbm_efficiency_4b),
            ("hbm_efficiency_8b", self.hbm_efficiency_8b),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(format!("{name} must be in (0, 1] (got {v})"));
            }
        }
        if self.max_vector_load_bytes == 0 || !self.max_vector_load_bytes.is_power_of_two() {
            return Err("max_vector_load_bytes must be a power of two > 0".into());
        }
        if !self.launch_overhead.is_valid_span() {
            return Err("launch_overhead must be a valid time span".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(GpuModelParams::default().validate().is_ok());
    }

    #[test]
    fn combine_cost_ordering_matches_atomic_behaviour() {
        let p = GpuModelParams::default();
        // Integer L2 aggregation < 64-bit < floating point.
        assert!(p.combine_ns(DType::I32) < p.combine_ns(DType::I64));
        assert!(p.combine_ns(DType::I64) < p.combine_ns(DType::F32));
        assert!(p.combine_ns(DType::F32) <= p.combine_ns(DType::F64));
    }

    #[test]
    fn i8_adds_cost_more_instructions() {
        let p = GpuModelParams::default();
        assert!(p.instr_per_elem(DType::I8) > p.instr_per_elem(DType::I32));
    }

    #[test]
    fn efficiency_by_width() {
        let p = GpuModelParams::default();
        assert!(p.hbm_efficiency(DType::I8) < p.hbm_efficiency(DType::I32));
        assert!(p.hbm_efficiency(DType::F32) <= p.hbm_efficiency(DType::F64));
    }

    #[test]
    fn validation_rejects_bad_values() {
        let p = GpuModelParams {
            hbm_efficiency_4b: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let p = GpuModelParams {
            team_overhead_ns: f64::NAN,
            ..Default::default()
        };
        assert!(p.validate().is_err());

        let p = GpuModelParams {
            max_vector_load_bytes: 0,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }
}
