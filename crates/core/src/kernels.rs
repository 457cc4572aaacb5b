//! Descriptor-driven workloads on the planner/serve substrate: dot, scan
//! and GEMV as first-class, cacheable experiments.
//!
//! Each workload request sweeps the teams axis at the case's optimized `V`
//! through [`crate::engine::Engine::kernel_point`] — one memoized
//! [`KernelDescriptor`]-timed GPU point per teams value — then assembles a
//! [`WorkloadResult`]: the best GPU bandwidth, the CPU roofline over the
//! same bytes moved, a first-touch placement decision simulated against
//! the unified-memory page model, and a functional checksum computed with
//! the real [`ghr_parallel::workloads`] kernels at [`FUNC_M`] elements (so
//! SIMD regressions show up as a byte-diff in the CLI output, not just a
//! test failure).
//!
//! The checksum's input is fixed, so its value depends only on the
//! [`functional_kind`], the case and the SIMD backend, never on the
//! request's element count. One pass costs about 0.2 ms on 2 vCPUs
//! (perfbench `kernels.checksum_us_p50`), more than the rest of a cold
//! workload answer, so the engine runs it once per (kind, case, backend)
//! and keeps the value in memory; [`functional_checksum`] itself stays
//! unmemoized, so every process still runs the real kernels once per key.

use crate::case::Case;
use ghr_mem::{Residency, UnifiedMemory};
use ghr_omp::OmpRuntime;
use ghr_parallel::workloads::{
    dot_unrolled_with_backend, gemv_with_backend, scan_inclusive_with_backend,
};
use ghr_parallel::Backend;
use ghr_types::{Accum, Bytes, Device, Element, KernelDescriptor, WorkloadKind};

/// The teams axis every workload request sweeps (at the case's optimized
/// `V`): powers of two up to the paper's saturating 65 536 teams.
pub const WORKLOAD_TEAMS_AXIS: [u64; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];

/// Default GEMV row length when the request does not name one. Divides
/// every case's paper-scale element count, so the default request needs
/// no rounding.
pub const GEMV_COLS_DEFAULT: u32 = 1024;

/// Element count of the functional checksum pass — large enough to cross
/// every SIMD kernel's unroll width many times. A pass costs about 0.2 ms
/// on 2 vCPUs, so the engine runs it once per (kind, case, backend)
/// (see the module docs).
pub const FUNC_M: u64 = 65_536;

/// Resolve a workload request's element count: the case's paper scale by
/// default, rounded down to a whole number of rows for GEMV.
pub fn workload_m(kind: WorkloadKind, case: Case, m: Option<u64>) -> u64 {
    let m = m.unwrap_or(case.m_paper());
    match kind {
        WorkloadKind::Gemv { cols } => {
            let cols = cols.max(1) as u64;
            (m / cols) * cols
        }
        WorkloadKind::Dot | WorkloadKind::Scan => m,
    }
}

/// Where the first-touch policy put the workload's input pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Populated in CPU memory (LPDDR5X): the CPU leg won the roofline.
    Host,
    /// Populated in GPU memory (HBM3): the GPU leg won the roofline.
    Device,
}

impl Placement {
    /// Short lowercase name for tables.
    pub const fn name(self) -> &'static str {
        match self {
            Placement::Host => "host",
            Placement::Device => "device",
        }
    }
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One teams-axis point of a workload sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadPoint {
    /// Teams launched.
    pub teams: u64,
    /// Modelled effective bandwidth (bytes moved / total time) in GB/s.
    pub gbps: f64,
}

/// The assembled result of one workload request.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Which workload ran.
    pub kind: WorkloadKind,
    /// The dtype case it ran as.
    pub case: Case,
    /// Elements of the primary input stream.
    pub m: u64,
    /// The teams sweep, in axis order.
    pub points: Vec<WorkloadPoint>,
    /// Teams value of the best GPU point.
    pub best_teams: u64,
    /// Best GPU effective bandwidth in GB/s.
    pub best_gbps: f64,
    /// CPU roofline over the same bytes moved, in GB/s.
    pub cpu_gbps: f64,
    /// Where first-touch put the input pages.
    pub placement: Placement,
    /// Functional checksum of the real kernels at [`FUNC_M`] elements.
    pub checksum: f64,
}

impl WorkloadResult {
    /// The descriptor this result was timed under.
    pub fn descriptor(&self) -> KernelDescriptor {
        KernelDescriptor::for_kind(self.kind, self.case.elem(), self.case.acc())
    }
}

/// CPU-side effective bandwidth for a descriptor: the streaming roofline
/// of [`ghr_cpusim::CpuModel`] applied to the workload's total bytes
/// moved (expressed as the equivalent element count of the case's input
/// type, so memory and compute legs stay consistent).
pub fn cpu_workload_gbps(rt: &OmpRuntime, kind: WorkloadKind, case: Case, m: u64) -> f64 {
    let desc = KernelDescriptor::for_kind(kind, case.elem(), case.acc());
    let bytes = Bytes(desc.bytes_moved(m));
    let elems_equiv = bytes.0 / case.elem().size_bytes();
    let cores = rt.cpu_model().spec().cores;
    let breakdown = rt.cpu_model().reduce_local(elems_equiv, case.elem(), cores);
    breakdown.total.bandwidth_for(bytes).as_gbps()
}

/// Simulate the first-touch placement decision against the unified-memory
/// page model: whichever side wins the roofline touches the freshly
/// allocated input first, and the pages populate where that device is
/// local — the residency the simulator reports back is the placement.
pub fn first_touch_placement(
    um: &mut UnifiedMemory,
    input_bytes: u64,
    gpu_gbps: f64,
    cpu_gbps: f64,
) -> Placement {
    let len = Bytes(input_bytes.max(1));
    let id = um.alloc(len);
    let toucher = if gpu_gbps >= cpu_gbps {
        Device::GPU0
    } else {
        Device::Host
    };
    um.access(toucher, id, Bytes(0), len);
    let placement = match um.residency_at(id, Bytes(0)) {
        Residency::Gpu => Placement::Device,
        Residency::Cpu | Residency::Untouched => Placement::Host,
    };
    um.free(id);
    placement
}

/// The kind the functional checksum actually runs: a GEMV row length
/// clamped to the functional scale (so degenerate requests still checksum
/// a real matrix), dot and scan unchanged. Two kinds with one functional
/// kind have one checksum.
pub fn functional_kind(kind: WorkloadKind) -> WorkloadKind {
    match kind {
        WorkloadKind::Gemv { cols } => WorkloadKind::Gemv {
            cols: (cols as u64).clamp(1, FUNC_M) as u32,
        },
        WorkloadKind::Dot | WorkloadKind::Scan => kind,
    }
}

/// Functional checksum of one workload at [`FUNC_M`] elements with the
/// active SIMD backend — deterministic and backend-independent by the
/// kernels' bit-identity contract, so a broken vector path changes the
/// rendered output.
pub fn functional_checksum(kind: WorkloadKind, case: Case) -> f64 {
    checksum_on(kind, case, Backend::active())
}

/// [`functional_checksum`] on a named backend.
pub(crate) fn checksum_on(kind: WorkloadKind, case: Case, backend: Backend) -> f64 {
    let kind = functional_kind(kind);
    match case {
        Case::C1 => checksum_t::<i32>(kind, backend),
        Case::C2 => checksum_t::<i8>(kind, backend),
        Case::C3 => checksum_t::<f32>(kind, backend),
        Case::C4 => checksum_t::<f64>(kind, backend),
    }
}

fn checksum_t<T: Element>(kind: WorkloadKind, backend: Backend) -> f64 {
    let v = 8usize;
    let a: Vec<T> = (0..FUNC_M).map(T::from_index).collect();
    match kind {
        WorkloadKind::Dot => {
            let b: Vec<T> = (0..FUNC_M)
                .map(|i| T::from_index(i.wrapping_mul(31) + 7))
                .collect();
            dot_unrolled_with_backend(&a, &b, v, backend).as_f64()
        }
        WorkloadKind::Scan => {
            let out = scan_inclusive_with_backend(&a, backend);
            out.iter().fold(T::Acc::zero(), |s, &x| s + x).as_f64()
        }
        WorkloadKind::Gemv { cols } => {
            let cols = cols as usize;
            let rows = (FUNC_M as usize / cols).max(1);
            let matrix: Vec<T> = (0..(rows * cols) as u64).map(T::from_index).collect();
            let x: Vec<T> = (0..cols as u64)
                .map(|i| T::from_index(i.wrapping_mul(31) + 7))
                .collect();
            let y = gemv_with_backend(&matrix, &x, v, backend);
            y.iter().fold(T::Acc::zero(), |s, &r| s + r).as_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghr_machine::MachineConfig;

    #[test]
    fn workload_m_defaults_to_paper_scale_and_rounds_gemv_rows() {
        assert_eq!(
            workload_m(WorkloadKind::Dot, Case::C1, None),
            Case::C1.m_paper()
        );
        assert_eq!(
            workload_m(WorkloadKind::Gemv { cols: 1000 }, Case::C1, Some(12_345)),
            12_000
        );
        // The default cols divides every case's paper m exactly.
        for case in Case::ALL {
            let kind = WorkloadKind::Gemv {
                cols: GEMV_COLS_DEFAULT,
            };
            assert_eq!(workload_m(kind, case, None), case.m_paper(), "{case}");
        }
    }

    #[test]
    fn cpu_roofline_tracks_the_stream_rate_for_big_streams() {
        let rt = OmpRuntime::new(MachineConfig::gh200());
        let gbps = cpu_workload_gbps(&rt, WorkloadKind::Dot, Case::C3, Case::C3.m_paper());
        // A giant two-stream f32 dot is memory-bound near 450 GB/s STREAM.
        assert!((gbps - 450.0).abs() < 10.0, "{gbps}");
    }

    #[test]
    fn first_touch_follows_the_faster_side() {
        let machine = MachineConfig::gh200();
        let mut um = UnifiedMemory::new(&machine);
        let gpu_won = first_touch_placement(&mut um, 1 << 20, 3000.0, 450.0);
        assert_eq!(gpu_won, Placement::Device);
        let cpu_won = first_touch_placement(&mut um, 1 << 20, 100.0, 450.0);
        assert_eq!(cpu_won, Placement::Host);
        assert!(um.is_empty(), "placement probes must free their regions");
    }

    #[test]
    fn checksums_are_deterministic_and_exact_for_integers() {
        let a = functional_checksum(WorkloadKind::Dot, Case::C1);
        let b = functional_checksum(WorkloadKind::Dot, Case::C1);
        assert_eq!(a.to_bits(), b.to_bits());
        // i8 -> i64 dot at FUNC_M: verify against a direct serial product.
        let xs: Vec<i8> = (0..FUNC_M).map(<i8 as Element>::from_index).collect();
        let ys: Vec<i8> = (0..FUNC_M)
            .map(|i| <i8 as Element>::from_index(i.wrapping_mul(31) + 7))
            .collect();
        let serial: i64 = xs.iter().zip(&ys).map(|(&x, &y)| x as i64 * y as i64).sum();
        assert_eq!(
            functional_checksum(WorkloadKind::Dot, Case::C2),
            serial as f64
        );
    }

    #[test]
    fn scan_checksum_folds_the_whole_prefix_stream() {
        let xs: Vec<i32> = (0..FUNC_M).map(<i32 as Element>::from_index).collect();
        let mut acc = 0i32;
        let mut fold = 0i32;
        for &x in &xs {
            acc = acc.wrapping_add(x);
            fold = fold.wrapping_add(acc);
        }
        assert_eq!(
            functional_checksum(WorkloadKind::Scan, Case::C1),
            fold as f64
        );
    }
}
