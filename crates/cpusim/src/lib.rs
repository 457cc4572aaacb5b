//! # ghr-cpusim
//!
//! Analytic timing model for the CPU leg of the reduction: an OpenMP
//! `parallel for simd reduction(+)` loop on the Grace CPU.
//!
//! A streaming sum is almost always memory-bound on a server CPU, so the
//! model is a roofline:
//!
//! ```text
//! t = max( bytes / min(stream_bw(threads), supply_bw),   # memory
//!          elements / compute_rate(dtype, threads) )     # SIMD compute
//!     + fork_join_overhead
//! ```
//!
//! `supply_bw` lets the co-execution harness cap the memory side by
//! whatever actually feeds the cores: local LPDDR5X, remote HBM over
//! NVLink-C2C (the A1 story), or an LPDDR5X share when the GPU is
//! simultaneously streaming the same DRAM (co-run contention).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;

pub use calibrate::{fit_from_samples, CaseResidual, CpuFit, MeasuredSample};

use ghr_machine::CpuSpec;
use ghr_types::{Bandwidth, Bytes, DType, SimTime};

/// Fitted parameters of the CPU loop model (everything that is not a
/// datasheet number).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModelParams {
    /// Cost of entering/leaving the OpenMP parallel region (fork + implicit
    /// barrier + combining per-thread partials).
    pub fork_join_overhead: SimTime,
    /// SIMD elements of a 4-byte type reduced per core per cycle
    /// (vector-add throughput, not load throughput).
    pub elems_per_cycle_4b: f64,
    /// Throughput penalty for widening `i8` elements to `i64` accumulators
    /// (unpack + widen chains): multiplier on the per-element compute cost.
    pub widen_i8_penalty: f64,
}

impl Default for CpuModelParams {
    fn default() -> Self {
        CpuModelParams {
            fork_join_overhead: SimTime::micros(8.0),
            // Neoverse V2: 4x128-bit SIMD pipes -> 16 lanes of 4-byte adds
            // per cycle in the ideal case.
            elems_per_cycle_4b: 16.0,
            // i8 -> i64 widening needs an 8x lane expansion plus extend
            // chains; ~16x over a plain 4-byte vector add.
            widen_i8_penalty: 16.0,
        }
    }
}

/// Timing breakdown of one modelled CPU reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuReduceBreakdown {
    /// Time the memory system needs to deliver the elements.
    pub memory: SimTime,
    /// Time the SIMD pipes need to consume the elements.
    pub compute: SimTime,
    /// Parallel-region overhead.
    pub overhead: SimTime,
    /// Total modelled time (`max(memory, compute) + overhead`).
    pub total: SimTime,
}

/// The CPU timing model.
#[derive(Debug, Clone)]
pub struct CpuModel {
    spec: CpuSpec,
    params: CpuModelParams,
}

impl CpuModel {
    /// Build a model from a CPU description with default fitted parameters.
    pub fn new(spec: CpuSpec) -> Self {
        CpuModel {
            spec,
            params: CpuModelParams::default(),
        }
    }

    /// Build with explicit parameters.
    pub fn with_params(spec: CpuSpec, params: CpuModelParams) -> Self {
        CpuModel { spec, params }
    }

    /// The underlying hardware description.
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// The fitted parameters.
    pub fn params(&self) -> &CpuModelParams {
        &self.params
    }

    /// Per-second element throughput of the SIMD pipes for `dtype` with
    /// `threads` active cores.
    pub fn compute_rate(&self, dtype: DType, threads: u32) -> f64 {
        let threads = threads.clamp(1, self.spec.cores) as f64;
        // Lane count scales inversely with element width relative to 4B.
        let width_scale = dtype.simd_width_scale();
        let penalty = if dtype.widens_on_accumulate() {
            self.params.widen_i8_penalty
        } else {
            1.0
        };
        self.params.elems_per_cycle_4b * width_scale / penalty * self.spec.clock.hz() * threads
    }

    /// Model a reduction of `m` elements of `dtype` using `threads` cores,
    /// with the memory side limited to `supply_bw` (pass
    /// `self.spec().mem_stream_bw` — or use [`CpuModel::reduce_local`] —
    /// for purely local data).
    pub fn reduce(
        &self,
        m: u64,
        dtype: DType,
        threads: u32,
        supply_bw: Bandwidth,
    ) -> CpuReduceBreakdown {
        let threads = threads.clamp(1, self.spec.cores);
        let bytes = Bytes(m * dtype.size_bytes());
        let mem_bw = self.spec.stream_bw(threads).min(supply_bw);
        let memory = mem_bw.time_for(bytes);
        let compute = if m == 0 {
            SimTime::ZERO
        } else {
            SimTime::secs(m as f64 / self.compute_rate(dtype, threads))
        };
        let overhead = self.params.fork_join_overhead;
        let total = memory.max(compute) + overhead;
        CpuReduceBreakdown {
            memory,
            compute,
            overhead,
            total,
        }
    }

    /// Model a reduction over CPU-local (LPDDR5X-resident) data.
    pub fn reduce_local(&self, m: u64, dtype: DType, threads: u32) -> CpuReduceBreakdown {
        self.reduce(m, dtype, threads, self.spec.mem_stream_bw)
    }

    /// Effective bandwidth (paper metric: bytes of input per second of
    /// modelled time) of a local reduction.
    pub fn reduce_bandwidth(&self, m: u64, dtype: DType, threads: u32) -> Bandwidth {
        let b = self.reduce_local(m, dtype, threads);
        b.total.bandwidth_for(Bytes(m * dtype.size_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_machine::CpuSpec;

    fn model() -> CpuModel {
        CpuModel::new(CpuSpec::grace())
    }

    const M: u64 = 1_048_576_000;

    #[test]
    fn large_local_reduction_is_memory_bound_at_stream_bw() {
        let m = model();
        for dtype in [DType::I32, DType::F32, DType::F64] {
            let bw = m.reduce_bandwidth(M, dtype, 72);
            // Within ~1% of the 450 GB/s STREAM rate (overhead is tiny).
            assert!((bw.as_gbps() - 450.0).abs() < 5.0, "{dtype}: {bw}");
        }
    }

    #[test]
    fn i8_pays_widening_but_stays_memory_bound_at_full_cores() {
        let m = model();
        let b = m.reduce_local(4 * M, DType::I8, 72);
        assert!(b.memory >= b.compute, "{b:?}");
    }

    #[test]
    fn i8_becomes_compute_bound_on_few_cores() {
        let m = model();
        // One core: 12 GB/s of memory demand for i8 is 12G elem/s, while the
        // widening chain sustains 16/4 * 3.2G = 12.8G elem/s — nearly tied;
        // verify the compute term is within 2x of the memory term (i.e. the
        // widening penalty is visible at low core counts).
        let b = m.reduce_local(4 * M, DType::I8, 1);
        assert!(b.compute.as_secs() > 0.5 * b.memory.as_secs(), "{b:?}");
    }

    #[test]
    fn time_scales_linearly_with_elements_when_memory_bound() {
        let m = model();
        let t1 = m.reduce_local(M, DType::F32, 72).total;
        let t2 = m.reduce_local(2 * M, DType::F32, 72).total;
        let ratio = t2.as_secs() / t1.as_secs();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn more_threads_never_slower() {
        let m = model();
        let mut last = f64::INFINITY;
        for threads in [1, 2, 4, 8, 16, 32, 72] {
            let t = m.reduce_local(M, DType::I32, threads).total.as_secs();
            assert!(t <= last + 1e-12, "threads={threads}");
            last = t;
        }
    }

    #[test]
    fn remote_supply_caps_bandwidth() {
        let m = model();
        let remote = Bandwidth::gbps(140.0);
        let b = m.reduce(M, DType::F32, 72, remote);
        let bw = b.total.bandwidth_for(Bytes(M * 4));
        assert!(bw.as_gbps() <= 140.0 + 1e-6);
        assert!(bw.as_gbps() > 130.0);
    }

    #[test]
    fn zero_elements_costs_only_overhead() {
        let m = model();
        let b = m.reduce_local(0, DType::F64, 72);
        assert_eq!(b.total, m.params().fork_join_overhead);
    }

    #[test]
    fn thread_count_clamps_to_core_count() {
        let m = model();
        let a = m.reduce_local(M, DType::I32, 72).total;
        let b = m.reduce_local(M, DType::I32, 1000).total;
        assert_eq!(a, b);
    }

    #[test]
    fn breakdown_total_is_consistent() {
        let m = model();
        let b = m.reduce_local(M, DType::F64, 16);
        assert_eq!(b.total, b.memory.max(b.compute) + b.overhead);
        assert!(b.total.is_valid_span());
    }
}
