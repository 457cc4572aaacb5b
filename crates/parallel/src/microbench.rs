//! Std-only microbenchmark core: warmup + min-of-N timing of the *real*
//! reduction kernels on the build host.
//!
//! The repo's default workspace resolves with zero registry access, so this
//! harness deliberately uses nothing beyond `std::time::Instant` and
//! `std::hint::black_box` — no Criterion. It backs the `ghr bench` and
//! `ghr calibrate cpu` subcommands.
//!
//! Min-of-N is the right statistic for a throughput kernel on a noisy
//! machine: every source of interference (scheduler preemption, frequency
//! ramps, cache pollution from neighbours) only ever makes a repetition
//! *slower*, so the minimum is the best available estimate of the
//! undisturbed cost.

use crate::kernels::{sum_unrolled_with_backend, validate_v};
use crate::reduce::{parallel_sum_unrolled_on, ChunkPolicy};
use crate::simd::Backend;
use ghr_types::{DType, Element, GhrError, Result};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Run `f` for `warmup` untimed and `reps` timed repetitions; return the
/// minimum duration and the result of the final repetition.
///
/// This is the timing primitive [`measure`] routes through; `reps` must
/// be at least 1.
pub fn time_min<R, F: FnMut() -> R>(warmup: usize, reps: usize, mut f: F) -> (Duration, R) {
    assert!(reps >= 1, "time_min needs at least one timed repetition");
    for _ in 0..warmup {
        black_box(f());
    }
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = black_box(f());
        best = best.min(t0.elapsed());
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

/// Shape of one microbenchmark point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSpec {
    /// Element type (one of the paper's four input types).
    pub dtype: DType,
    /// Unroll factor `V` (power of two in 1..=32).
    pub v: usize,
    /// Worker threads; 1 times the single-threaded kernel directly (no
    /// fork-join overhead in the measurement).
    pub threads: usize,
    /// Elements per repetition.
    pub n: usize,
    /// Untimed warmup repetitions.
    pub warmup: usize,
    /// Timed repetitions (min taken).
    pub reps: usize,
}

/// One measured point: the kernel really ran on this machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The shape that was measured.
    pub spec: BenchSpec,
    /// Backend the timed kernel ran on (post-resolution, so `Scalar` when
    /// the requested backend does not cover the shape).
    pub backend: Backend,
    /// Bytes of input consumed per repetition.
    pub bytes: u64,
    /// Best (minimum) repetition time in nanoseconds.
    pub best_nanos: u128,
    /// Input bytes per second at the best repetition.
    pub bytes_per_sec: f64,
    /// Elements per second at the best repetition.
    pub elems_per_sec: f64,
    /// Whether the timed kernel's sum equals the scalar kernel's sum
    /// exactly (bit-identity contract of the SIMD layer).
    pub parity_with_scalar: bool,
}

impl Sample {
    /// Input throughput in GB/s (the paper's effective-bandwidth metric).
    pub fn gbps(&self) -> f64 {
        self.bytes_per_sec / 1e9
    }
}

/// The backend that will actually run for a given spec under `requested`:
/// the vector kernels silently fall back to scalar for shapes they do not
/// cover, and the report should say so.
fn effective_backend(requested: Backend, dtype: DType, v: usize) -> Backend {
    if requested.covers(dtype, v) {
        requested
    } else {
        Backend::Scalar
    }
}

/// Measure one (dtype, V, threads) point on `backend`, returning the
/// timing plus a scalar-parity verdict. Invalid shapes surface as
/// [`GhrError::InvalidArg`].
pub fn measure(spec: &BenchSpec, backend: Backend) -> Result<Sample> {
    validate_v(spec.v)?;
    if spec.threads == 0 {
        return Err(GhrError::arg("threads", "threads must be > 0"));
    }
    if spec.n == 0 {
        return Err(GhrError::arg("n", "element count must be > 0"));
    }
    match spec.dtype {
        DType::I32 => measure_typed::<i32>(spec, backend),
        DType::I8 => measure_typed::<i8>(spec, backend),
        DType::F32 => measure_typed::<f32>(spec, backend),
        DType::F64 => measure_typed::<f64>(spec, backend),
        DType::I64 => Err(GhrError::arg(
            "dtype",
            "i64 is an accumulator type, not a paper input case (use i8/i32/f32/f64)",
        )),
    }
}

fn measure_typed<T: Element>(spec: &BenchSpec, backend: Backend) -> Result<Sample> {
    let data: Vec<T> = (0..spec.n as u64).map(T::from_index).collect();
    let backend = effective_backend(backend, T::DTYPE, spec.v);
    let run = || -> T::Acc {
        if spec.threads == 1 {
            sum_unrolled_with_backend(&data, spec.v, backend)
        } else {
            parallel_sum_unrolled_on(&data, spec.threads, spec.v, ChunkPolicy::Static, backend)
                .expect("shape validated above")
        }
    };
    let (best, sum) = time_min(spec.warmup, spec.reps.max(1), run);
    let scalar_sum = if spec.threads == 1 {
        sum_unrolled_with_backend(&data, spec.v, Backend::Scalar)
    } else {
        parallel_sum_unrolled_on(
            &data,
            spec.threads,
            spec.v,
            ChunkPolicy::Static,
            Backend::Scalar,
        )
        .expect("shape validated above")
    };
    let bytes = spec.n as u64 * T::DTYPE.size_bytes();
    let secs = best.as_secs_f64().max(1e-12);
    Ok(Sample {
        spec: *spec,
        backend,
        bytes,
        best_nanos: best.as_nanos(),
        bytes_per_sec: bytes as f64 / secs,
        elems_per_sec: spec.n as f64 / secs,
        parity_with_scalar: sum == scalar_sum,
    })
}

/// A scalar/SIMD pair over the same shape: the comparison `ghr bench`
/// prints and the CI smoke test asserts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// The point timed on the scalar unrolled kernel.
    pub scalar: Sample,
    /// The same point timed on `backend` (scalar again when uncovered).
    pub simd: Sample,
}

impl Pair {
    /// SIMD speedup over the scalar kernel (bytes/s ratio).
    pub fn speedup(&self) -> f64 {
        self.simd.bytes_per_sec / self.scalar.bytes_per_sec.max(1e-12)
    }

    /// Both measurements produced the exact same sum as the scalar kernel.
    pub fn parity(&self) -> bool {
        self.scalar.parity_with_scalar && self.simd.parity_with_scalar
    }
}

/// Measure one shape on both the scalar kernel and `backend`.
pub fn measure_pair(spec: &BenchSpec, backend: Backend) -> Result<Pair> {
    Ok(Pair {
        scalar: measure(spec, Backend::Scalar)?,
        simd: measure(spec, backend)?,
    })
}

/// The default `ghr bench` grid: the four paper cases crossed with unrolls
/// and thread counts. `quick` is the CI-friendly subset.
pub fn default_grid(quick: bool, host_threads: usize) -> Vec<BenchSpec> {
    let dtypes = [DType::I32, DType::I8, DType::F32, DType::F64];
    let vs: &[usize] = if quick { &[8] } else { &[1, 8, 32] };
    let threads: &[usize] = if quick {
        &[1]
    } else {
        &[1, host_threads.max(1)]
    };
    let n = if quick { 1 << 20 } else { 1 << 22 };
    let (warmup, reps) = if quick { (1, 3) } else { (2, 7) };
    let mut grid = Vec::new();
    for &dtype in &dtypes {
        for &v in vs {
            for &t in threads {
                grid.push(BenchSpec {
                    dtype,
                    v,
                    threads: t,
                    n,
                    warmup,
                    reps,
                });
            }
        }
    }
    // Dedup threads=1 twice when the host has a single core.
    grid.dedup();
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec(dtype: DType, v: usize, threads: usize) -> BenchSpec {
        BenchSpec {
            dtype,
            v,
            threads,
            n: 10_000,
            warmup: 0,
            reps: 1,
        }
    }

    #[test]
    fn time_min_returns_result_and_positive_duration() {
        let (d, r) = time_min(1, 3, || (0..1000u64).sum::<u64>());
        assert_eq!(r, 499_500);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn measure_reports_throughput_and_parity() {
        for dtype in [DType::I32, DType::I8, DType::F32, DType::F64] {
            let s = measure(&quick_spec(dtype, 8, 1), Backend::widest()).unwrap();
            assert!(s.bytes_per_sec > 0.0, "{dtype}");
            assert!(s.elems_per_sec > 0.0, "{dtype}");
            assert!(s.parity_with_scalar, "{dtype}");
            assert_eq!(s.bytes, 10_000 * dtype.size_bytes());
        }
    }

    #[test]
    fn measure_parallel_path_and_pair() {
        let p = measure_pair(&quick_spec(DType::F32, 8, 3), Backend::widest()).unwrap();
        assert!(p.parity());
        assert!(p.speedup() > 0.0);
        assert_eq!(p.scalar.backend, Backend::Scalar);
    }

    #[test]
    fn uncovered_shapes_fall_back_to_scalar_backend() {
        let s = measure(&quick_spec(DType::F64, 1, 1), Backend::widest()).unwrap();
        assert_eq!(s.backend, Backend::Scalar);
        assert!(s.parity_with_scalar);
    }

    #[test]
    fn invalid_shapes_are_invalid_args() {
        assert!(measure(&quick_spec(DType::I32, 3, 1), Backend::Scalar).is_err());
        assert!(measure(&quick_spec(DType::I32, 8, 0), Backend::Scalar).is_err());
        assert!(measure(&quick_spec(DType::I64, 8, 1), Backend::Scalar).is_err());
        let zero = BenchSpec {
            n: 0,
            ..quick_spec(DType::I32, 8, 1)
        };
        assert!(measure(&zero, Backend::Scalar).is_err());
    }

    #[test]
    fn default_grid_shapes() {
        let quick = default_grid(true, 8);
        assert_eq!(quick.len(), 4); // one V, one thread count, four dtypes
        let full = default_grid(false, 8);
        assert_eq!(full.len(), 4 * 3 * 2);
        assert!(full.iter().all(|s| s.reps >= 3));
    }
}
