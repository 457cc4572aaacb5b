//! # ghr-parallel
//!
//! The *real* (not simulated) parallel substrate of the reproduction:
//!
//! * [`scope`] — fork-join over borrowed data on `std::thread::scope`,
//!   the one threading mechanism here: [`parallel_map_chunks`] runs a
//!   statically chunked loop the way an OpenMP `parallel for` would, and
//!   [`parallel_map`] hands out uneven items one at a time (the
//!   experiment engine fans its plan stages with it);
//! * [`kernels`] — sequential, unrolled (the paper's "V elements per
//!   iteration"), Kahan and pairwise sum-reduction kernels;
//! * [`simd`] — vectorized versions of the unrolled kernel (x86_64
//!   SSE2/AVX2, aarch64 NEON) behind runtime feature detection, bit-identical
//!   to the scalar accumulation tree and selectable via `GHR_SIMD`;
//! * [`workloads`] — the non-reduction kernels (dot, inclusive scan,
//!   row-major GEMV) behind the kernel-descriptor pipeline, with the same
//!   scalar-tree-vs-vector bit-identity contract as the sum kernels;
//! * [`reduce`] — parallel reductions combining the above, with
//!   OpenMP-style static chunking;
//! * [`microbench`] — std-only (no Criterion) warmup + min-of-N timing of
//!   the real kernels, backing `ghr bench` / `ghr calibrate cpu`.
//!
//! The functional executors in `ghr-omp` call into this crate so that every
//! simulated experiment also *computes* its reduction for verification, and
//! `ghr bench` measures these kernels for real on the build host.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kernels;
pub mod microbench;
pub mod reduce;
pub mod scope;
pub mod simd;
pub mod workloads;

pub use kernels::{
    sum_kahan, sum_pairwise, sum_sequential, sum_unrolled, sum_unrolled_with_backend,
    try_sum_unrolled, validate_v,
};
pub use microbench::{measure, measure_pair, BenchSpec, Pair, Sample};
pub use reduce::{
    parallel_max, parallel_min, parallel_reduce_with, parallel_sum, parallel_sum_unrolled,
    parallel_sum_unrolled_on, try_parallel_sum_unrolled, ChunkPolicy,
};
pub use scope::{parallel_map, parallel_map_chunks, split_evenly};
pub use simd::Backend;
pub use workloads::{
    dot_sequential, dot_unrolled, dot_unrolled_with_backend, gemv, gemv_with_backend,
    scan_inclusive, scan_inclusive_with_backend, try_dot_unrolled, try_gemv,
};
