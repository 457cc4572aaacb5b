//! # grace-hopper-reduction
//!
//! A Rust reproduction of *"Sum Reduction with OpenMP Offload on NVIDIA
//! Grace-Hopper System"* (Zheming Jin, SC 2024): an OpenMP-offload-style
//! execution model, a calibrated GH200 performance simulator (GPU kernel
//! timing, Grace CPU timing, NVLink-C2C unified-memory page placement), and
//! drivers that regenerate every table and figure of the paper.
//!
//! ## Quick start
//!
//! ```
//! use grace_hopper_reduction::prelude::*;
//!
//! // A GH200 node and an OpenMP runtime over it.
//! let rt = OmpRuntime::new(MachineConfig::gh200());
//!
//! // The paper's optimized kernel for case C1 (i32), on real data.
//! let data: Vec<i32> = (0..1_000_000).map(|i| i % 10).collect();
//! let out = rt
//!     .target_reduce_device(&data, &TargetRegion::optimized(65536, 4))
//!     .unwrap();
//! assert_eq!(out.value, data.iter().sum::<i32>());
//! println!("simulated kernel time: {}", out.time());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`types`] | dtypes, units, errors |
//! | [`machine`] | GH200 hardware description |
//! | [`mem`] | unified-memory page-placement simulator |
//! | [`gpusim`] | GPU kernel timing model + functional executor |
//! | [`cpusim`] | Grace CPU timing model |
//! | [`parallel`] | scoped fork-join + real reduction kernels |
//! | [`omp`] | OpenMP-offload programming model |
//! | [`core`] | the paper's experiments (sweeps, Table 1, co-execution) and the parallel memoized [`core::engine`] |
//!
//! See `DESIGN.md` for the architecture and substitution rationale, and
//! `EXPERIMENTS.md` for paper-vs-reproduced numbers.

pub use ghr_core as core;
pub use ghr_cpusim as cpusim;
pub use ghr_gpusim as gpusim;
pub use ghr_machine as machine;
pub use ghr_mem as mem;
pub use ghr_omp as omp;
pub use ghr_parallel as parallel;
pub use ghr_types as types;

/// The commonly-used types in one import.
pub mod prelude {
    pub use ghr_core::{
        autotune::autotune, case::Case, corun::run_corun, corun::AllocSite, corun::CorunConfig,
        engine::Engine, reduction::KernelKind, reduction::ReductionSpec, study::run_full_study,
        sweep::GpuSweep, table1::table1,
    };
    pub use ghr_machine::MachineConfig;
    pub use ghr_omp::{OmpRuntime, TargetRegion};
    pub use ghr_types::{Bandwidth, Bytes, DType, Device, SimTime};
}
