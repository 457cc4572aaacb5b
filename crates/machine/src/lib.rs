//! # ghr-machine
//!
//! Parameterized hardware description of a coherent CPU–GPU node, with a
//! preset matching the paper's testbed: an NVIDIA GH200 Grace-Hopper
//! superchip (72-core Neoverse V2 Grace CPU with 480 GB LPDDR5X, H100 GPU
//! with 96 GB HBM3, NVLink-C2C interconnect, peak GPU memory bandwidth
//! 4022.7 GB/s).
//!
//! The split of responsibilities across crates is:
//!
//! * this crate holds *hardware truths* — counts, clocks, capacities, peak
//!   bandwidths, link rates — that could be read off a datasheet;
//! * `ghr-gpusim`/`ghr-cpusim` hold the *model parameters* (per-team
//!   overheads, instruction costs, latency constants) that are fitted so the
//!   simulated reduction reproduces the paper's measurements.
//!
//! Everything is plain data, so experiments can be run against
//! hypothetical machines (see `MachineConfig::gh200` and the
//! `custom_machine` example).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cpu;
pub mod gpu;
pub mod link;
pub mod machine;

pub use cpu::CpuSpec;
pub use gpu::GpuSpec;
pub use link::{LinkSpec, MigrationSpec};
pub use machine::MachineConfig;
