//! The host worksharing construct of Listing 7:
//! `#pragma omp for simd schedule(...) reduction(+ : sum)`.
//!
//! The device side has [`crate::region::TargetRegion`]; this is its host
//! counterpart, mapping OpenMP loop schedules onto the real kernels in
//! `ghr-parallel` and pricing them with the CPU model.

use crate::clause::ReductionOp;
use ghr_parallel::ChunkPolicy;
use ghr_types::{GhrError, Result};

/// An OpenMP loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(static)` — one contiguous chunk per thread (the default
    /// for the paper's loop).
    Static,
    /// `schedule(static, chunk)` — fixed chunks, round-robin.
    StaticChunked(u32),
}

/// A host `parallel for [simd]` region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostRegion {
    /// `reduction(op : sum)`.
    pub reduction: ReductionOp,
    /// `num_threads(...)` — `None` uses all cores, like `OMP_NUM_THREADS`
    /// unset on the Grace node.
    pub num_threads: Option<u32>,
    /// Loop schedule.
    pub schedule: Schedule,
    /// Whether the `simd` directive is present (unrolled vector-friendly
    /// body — the paper's Listing 7 includes it).
    pub simd: bool,
}

impl HostRegion {
    /// Listing 7's host loop: `#pragma omp for simd reduction(+ : sumH)`.
    pub fn for_simd() -> Self {
        HostRegion {
            reduction: ReductionOp::Plus,
            num_threads: None,
            schedule: Schedule::Static,
            simd: true,
        }
    }

    /// Set `num_threads`.
    pub fn with_num_threads(mut self, n: u32) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Set the schedule.
    pub fn with_schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// The unroll factor the `simd` directive implies for the real kernel
    /// (8 accumulators; 1 without `simd`).
    pub fn unroll(&self) -> usize {
        if self.simd {
            8
        } else {
            1
        }
    }

    /// The chunk policy for `ghr-parallel`.
    pub fn chunk_policy(&self) -> Result<ChunkPolicy> {
        match self.schedule {
            Schedule::Static => Ok(ChunkPolicy::Static),
            Schedule::StaticChunked(c) => {
                if c == 0 {
                    return Err(GhrError::invalid("schedule", "chunk must be > 0"));
                }
                Ok(ChunkPolicy::StaticChunked(c as usize))
            }
        }
    }

    /// Render as the pragma it models.
    pub fn pragma(&self) -> String {
        let mut s = String::from("#pragma omp parallel for");
        if self.simd {
            s.push_str(" simd");
        }
        if let Some(n) = self.num_threads {
            s.push_str(&format!(" num_threads({n})"));
        }
        match self.schedule {
            Schedule::Static => {}
            Schedule::StaticChunked(c) => s.push_str(&format!(" schedule(static, {c})")),
        }
        s.push_str(&format!(" reduction({}:sum)", self.reduction));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing7_defaults() {
        let r = HostRegion::for_simd();
        assert_eq!(r.reduction, ReductionOp::Plus);
        assert!(r.simd);
        assert_eq!(r.unroll(), 8);
        assert_eq!(r.chunk_policy().unwrap(), ChunkPolicy::Static);
        assert_eq!(r.pragma(), "#pragma omp parallel for simd reduction(+:sum)");
    }

    #[test]
    fn schedule_and_threads_render() {
        let r = HostRegion::for_simd()
            .with_num_threads(36)
            .with_schedule(Schedule::StaticChunked(1024));
        assert!(r.pragma().contains("num_threads(36)"));
        assert!(r.pragma().contains("schedule(static, 1024)"));
        assert_eq!(r.chunk_policy().unwrap(), ChunkPolicy::StaticChunked(1024));
    }

    #[test]
    fn zero_chunk_rejected() {
        let r = HostRegion::for_simd().with_schedule(Schedule::StaticChunked(0));
        assert!(r.chunk_policy().is_err());
    }

    #[test]
    fn non_simd_does_not_unroll() {
        let mut r = HostRegion::for_simd();
        r.simd = false;
        assert_eq!(r.unroll(), 1);
        assert!(!r.pragma().contains("simd"));
    }
}
