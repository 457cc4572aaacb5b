//! Kernel descriptors: a workload as data.
//!
//! The paper studies exactly one kernel shape — a streaming sum reduction —
//! and the original timing model hard-coded that shape. A
//! [`KernelDescriptor`] instead describes *any* streaming kernel by the
//! quantities the analytic models actually consume:
//!
//! * how many input streams each loop iteration reads (`input_streams`),
//! * how many arithmetic ops each element costs relative to a plain add
//!   (`flops_per_elem`),
//! * how per-team partials combine across the device ([`CombinePattern`]),
//! * how many outputs the kernel writes back ([`OutputCardinality`]).
//!
//! [`KernelDescriptor::sum_reduction`] describes the paper's kernel and is
//! required (and pinned by test) to reproduce the original reduction timing
//! model bit-identically; the other constructors open new workloads on the
//! same substrate.

use crate::dtype::DType;

/// How per-team partial results combine into the kernel's output.
///
/// This is the field that drives the team-pipeline leg of the GPU timing
/// model: each pattern implies a different per-team epilogue cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombinePattern {
    /// Every element folds into one scalar (the paper's sum reduction):
    /// one device-wide combine per team.
    Reduce,
    /// Inclusive prefix: each team publishes its block aggregate and waits
    /// on its predecessor's running prefix (decoupled look-back), so the
    /// per-team epilogue pays two combine round-trips instead of one.
    Scan,
    /// Two streams multiplied elementwise and folded into one scalar
    /// (dot / the reduction half of axpy-dot). The device-wide combine is
    /// the same as [`CombinePattern::Reduce`].
    AxpyDot,
    /// Per-row reduction of a matrix against a shared vector (GEMV with
    /// one team-block of rows per team). Rows complete inside their team,
    /// so there is no device-wide combine at all.
    GemvRow,
}

impl CombinePattern {
    /// Short lowercase name as used in tables and reports.
    pub const fn name(self) -> &'static str {
        match self {
            CombinePattern::Reduce => "reduce",
            CombinePattern::Scan => "scan",
            CombinePattern::AxpyDot => "axpy-dot",
            CombinePattern::GemvRow => "gemv-row",
        }
    }
}

/// How many outputs a kernel writes per input element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputCardinality {
    /// One scalar result for the whole kernel (reductions). The write-back
    /// is negligible and contributes no bytes to the memory leg.
    Scalar,
    /// One accumulator per input element (scan): the output stream is as
    /// long as the input and its bytes ride the same memory pipe.
    PerElement,
    /// One accumulator per row of `cols` input elements (GEMV).
    PerRow {
        /// Row length in elements; `m / cols` outputs are written.
        cols: u32,
    },
}

/// A streaming kernel described as data, not code.
///
/// The GPU model times any descriptor with the same three-leg structure it
/// used for the reduction (memory / compute / team pipeline); the CPU model
/// and the functional executors consume the same fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelDescriptor {
    /// Input element type `T`.
    pub elem: DType,
    /// Accumulator / output type `R`.
    pub acc: DType,
    /// How partials combine across the team hierarchy.
    pub combine: CombinePattern,
    /// Input streams read per loop iteration (1 for reduce/scan, 2 for
    /// dot and GEMV, which read a second operand alongside the main one).
    pub input_streams: u32,
    /// Arithmetic cost per element relative to one plain add (1.0 for a
    /// sum, 2.0 for multiply-accumulate). Scales the per-element term of
    /// the instruction-issue leg.
    pub flops_per_elem: f64,
    /// Output shape.
    pub output: OutputCardinality,
}

impl KernelDescriptor {
    /// The paper's kernel: one stream, one add per element, one scalar out.
    ///
    /// The GPU model is pinned (by test) to time this descriptor
    /// bit-identically to the original hard-coded reduction model.
    pub const fn sum_reduction(elem: DType, acc: DType) -> Self {
        KernelDescriptor {
            elem,
            acc,
            combine: CombinePattern::Reduce,
            input_streams: 1,
            flops_per_elem: 1.0,
            output: OutputCardinality::Scalar,
        }
    }

    /// Dot product: two streams, multiply-accumulate, one scalar out.
    pub const fn dot(elem: DType, acc: DType) -> Self {
        KernelDescriptor {
            elem,
            acc,
            combine: CombinePattern::AxpyDot,
            input_streams: 2,
            flops_per_elem: 2.0,
            output: OutputCardinality::Scalar,
        }
    }

    /// Inclusive prefix sum: one stream in, one accumulator out per element.
    pub const fn scan(elem: DType, acc: DType) -> Self {
        KernelDescriptor {
            elem,
            acc,
            combine: CombinePattern::Scan,
            input_streams: 1,
            flops_per_elem: 1.0,
            output: OutputCardinality::PerElement,
        }
    }

    /// Row-major GEMV: matrix stream + vector stream, multiply-accumulate,
    /// one accumulator per `cols`-element row.
    pub const fn gemv_row(elem: DType, acc: DType, cols: u32) -> Self {
        KernelDescriptor {
            elem,
            acc,
            combine: CombinePattern::GemvRow,
            input_streams: 2,
            flops_per_elem: 2.0,
            output: OutputCardinality::PerRow { cols },
        }
    }

    /// Descriptor for a [`WorkloadKind`] with the given dtypes.
    pub const fn for_kind(kind: WorkloadKind, elem: DType, acc: DType) -> Self {
        match kind {
            WorkloadKind::Dot => Self::dot(elem, acc),
            WorkloadKind::Scan => Self::scan(elem, acc),
            WorkloadKind::Gemv { cols } => Self::gemv_row(elem, acc, cols),
        }
    }

    /// Total input bytes the kernel reads for `m` elements of the primary
    /// stream (secondary streams are counted at the same length; the GEMV
    /// vector re-read per row is charged as a full second stream, i.e. no
    /// cache credit — the pessimistic streaming assumption).
    pub const fn input_bytes(&self, m: u64) -> u64 {
        m * self.elem.size_bytes() * self.input_streams as u64
    }

    /// Output bytes written back to memory for `m` input elements.
    pub const fn output_bytes(&self, m: u64) -> u64 {
        match self.output {
            OutputCardinality::Scalar => 0,
            OutputCardinality::PerElement => m * self.acc.size_bytes(),
            OutputCardinality::PerRow { cols } => (m / cols as u64) * self.acc.size_bytes(),
        }
    }

    /// Total bytes moved (input + output) for `m` input elements.
    pub const fn bytes_moved(&self, m: u64) -> u64 {
        self.input_bytes(m) + self.output_bytes(m)
    }

    /// Arithmetic intensity in flops per byte moved.
    pub fn arithmetic_intensity(&self, m: u64) -> f64 {
        self.flops_per_elem * m as f64 / self.bytes_moved(m) as f64
    }
}

/// Name of a non-reduction workload the stack serves — the compact tag the
/// planner's work items carry (the full [`KernelDescriptor`] is derived from
/// it plus the case dtypes, keeping cache keys small and stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Dot product of two `m`-element streams.
    Dot,
    /// Inclusive prefix sum over `m` elements.
    Scan,
    /// Row-major matrix-vector product over `m / cols` rows.
    Gemv {
        /// Row length in elements.
        cols: u32,
    },
}

impl WorkloadKind {
    /// Short lowercase name as used in commands and tables.
    pub const fn name(self) -> &'static str {
        match self {
            WorkloadKind::Dot => "dot",
            WorkloadKind::Scan => "scan",
            WorkloadKind::Gemv { .. } => "gemv",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_reduction_is_the_identity_shape() {
        let d = KernelDescriptor::sum_reduction(DType::I32, DType::I32);
        assert_eq!(d.input_streams, 1);
        assert_eq!(d.flops_per_elem, 1.0);
        assert_eq!(d.combine, CombinePattern::Reduce);
        assert_eq!(d.output_bytes(1000), 0);
        assert_eq!(d.input_bytes(1000), 4000);
    }

    #[test]
    fn dot_reads_two_streams() {
        let d = KernelDescriptor::dot(DType::F64, DType::F64);
        assert_eq!(d.input_bytes(100), 2 * 100 * 8);
        assert_eq!(d.output_bytes(100), 0);
    }

    #[test]
    fn scan_writes_the_accumulator_stream() {
        let d = KernelDescriptor::scan(DType::I8, DType::I64);
        assert_eq!(d.input_bytes(100), 100);
        assert_eq!(d.output_bytes(100), 800);
        assert_eq!(d.bytes_moved(100), 900);
    }

    #[test]
    fn gemv_writes_one_output_per_row() {
        let d = KernelDescriptor::gemv_row(DType::F32, DType::F32, 256);
        assert_eq!(d.output_bytes(1024), 4 * 4);
        assert_eq!(d.input_bytes(1024), 2 * 1024 * 4);
    }

    #[test]
    fn arithmetic_intensity_orders_workloads() {
        let m = 1 << 20;
        let sum = KernelDescriptor::sum_reduction(DType::F32, DType::F32);
        let dot = KernelDescriptor::dot(DType::F32, DType::F32);
        // Dot does 2 flops over 2 streams — same intensity as the sum's
        // 1 flop over 1 stream; a scan moves more bytes per flop.
        let scan = KernelDescriptor::scan(DType::F32, DType::F32);
        assert_eq!(
            sum.arithmetic_intensity(m).to_bits(),
            dot.arithmetic_intensity(m).to_bits()
        );
        assert!(scan.arithmetic_intensity(m) < sum.arithmetic_intensity(m));
    }

    #[test]
    fn for_kind_round_trips() {
        let d = KernelDescriptor::for_kind(WorkloadKind::Gemv { cols: 64 }, DType::F64, DType::F64);
        assert_eq!(d.output, OutputCardinality::PerRow { cols: 64 });
        assert_eq!(WorkloadKind::Gemv { cols: 64 }.name(), "gemv");
        assert_eq!(WorkloadKind::Dot.to_string(), "dot");
    }
}
