//! Vectorized reduction kernels behind runtime CPU-feature detection.
//!
//! The paper's CPU leg is an `omp parallel for simd reduction(+)` loop
//! (Listing 7); this module is the `simd` part made explicit: arch-gated
//! intrinsic kernels (x86_64 SSE2/AVX2, aarch64 NEON) for the four paper
//! cases, selected at runtime and falling back to the scalar unrolled loop
//! whenever the (backend, dtype, V) combination is not covered.
//!
//! # Bit-identity contract
//!
//! Every kernel here reproduces the *exact* accumulation tree of
//! [`crate::kernels::sum_unrolled`]: the `V` independent lane accumulators,
//! the pairwise (width-halving) combine, and the serial tail. A vector
//! register of `W` lanes simply holds `W` of the `V` accumulators, so each
//! vector add performs the same per-lane scalar additions in the same
//! order; once one register remains its lanes are spilled to a stack array
//! and the remaining `W → 1` combine plus the tail run through the *same*
//! scalar code path. Since SSE/AVX/NEON lane arithmetic is IEEE-754
//! compliant (no FMA contraction, no reassociation), float results are
//! bit-identical to the scalar kernel, and every determinism/caching
//! invariant the engine relies on survives. (Integer lane adds wrap; the
//! scalar path would panic on overflow in debug builds — the study's
//! workloads never overflow, and release semantics agree.)
//!
//! # Selection
//!
//! [`Backend::active`] picks the widest available backend; the `GHR_SIMD`
//! environment variable (`off|sse2|avx2|neon|auto`) is an escape hatch that
//! forces a backend (falling back to scalar when the forced backend is
//! unavailable on the host or does not cover a given dtype × V shape).

use ghr_types::{DType, Element};

/// A vector instruction set the kernels can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Scalar fallback — the plain unrolled loop in [`crate::kernels`].
    Scalar,
    /// x86_64 SSE2 (128-bit; baseline on every x86_64 CPU).
    Sse2,
    /// x86_64 AVX2 (256-bit; runtime-detected).
    Avx2,
    /// aarch64 Advanced SIMD (128-bit; baseline on every aarch64 CPU).
    Neon,
}

impl Backend {
    /// Short lowercase label (`scalar`, `sse2`, `avx2`, `neon`).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Whether this backend's instructions exist on the running host.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => true, // baseline feature of the x86_64 ABI
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true, // Advanced SIMD is mandatory on aarch64
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The widest backend available on this host (ignoring `GHR_SIMD`).
    pub fn widest() -> Backend {
        if Backend::Avx2.available() {
            Backend::Avx2
        } else if Backend::Sse2.available() {
            Backend::Sse2
        } else if Backend::Neon.available() {
            Backend::Neon
        } else {
            Backend::Scalar
        }
    }

    /// The backend selected for this invocation: `GHR_SIMD` if set (falling
    /// back to scalar when the forced backend is unavailable on this host),
    /// otherwise the widest available one.
    ///
    /// The environment variable is re-read on every call so tests and the
    /// CLI can flip it without process restarts; one `getenv` per top-level
    /// reduction call is noise next to the reduction itself.
    pub fn active() -> Backend {
        match Mode::from_env() {
            Mode::Auto => Backend::widest(),
            Mode::Off => Backend::Scalar,
            Mode::Force(b) => {
                if b.available() {
                    b
                } else {
                    Backend::Scalar
                }
            }
        }
    }

    /// Whether this backend has a vector kernel for `dtype` unrolled by
    /// `v`. `v` must already be a valid unroll (power of two in 1..=32);
    /// shapes narrower than the vector registers stay on the scalar path.
    pub fn covers(self, dtype: DType, v: usize) -> bool {
        match self {
            Backend::Scalar => false,
            Backend::Sse2 => match dtype {
                DType::I32 | DType::F32 => v >= 4,
                DType::F64 => v >= 2,
                // i8 -> i64 sign extension needs SSE4.1+; not worth a
                // third x86 tier when AVX2 covers every modern part.
                DType::I8 => false,
                DType::I64 => false,
            },
            Backend::Avx2 => match dtype {
                DType::I32 | DType::F32 => v >= 8,
                DType::F64 => v >= 4,
                DType::I8 => v >= 4,
                DType::I64 => false,
            },
            Backend::Neon => match dtype {
                DType::I32 | DType::F32 => v >= 4,
                DType::F64 => v >= 2,
                DType::I8 => v >= 8,
                DType::I64 => false,
            },
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Parsed `GHR_SIMD` setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Unset, empty, `auto`, or unrecognized: pick the widest backend.
    Auto,
    /// `off` / `scalar` / `0`: force the scalar path.
    Off,
    /// An explicit backend name.
    Force(Backend),
}

impl Mode {
    fn from_env() -> Mode {
        match std::env::var("GHR_SIMD") {
            Ok(v) => Mode::parse(&v),
            Err(_) => Mode::Auto,
        }
    }

    fn parse(value: &str) -> Mode {
        match value.to_ascii_lowercase().as_str() {
            "" | "auto" => Mode::Auto,
            "off" | "scalar" | "0" => Mode::Off,
            "sse2" => Mode::Force(Backend::Sse2),
            "avx2" => Mode::Force(Backend::Avx2),
            "neon" => Mode::Force(Backend::Neon),
            // An unknown value must not silently change numerical paths;
            // auto is the only safe reading (and `report()` surfaces it).
            _ => Mode::Auto,
        }
    }
}

/// One-line description of the selected backend for `--stats` blocks:
/// which kernel backend runs, and whether `GHR_SIMD` forced it.
///
/// Examples: `avx2 (auto)`, `scalar (forced via GHR_SIMD=off)`,
/// `scalar (GHR_SIMD=neon unavailable on this host)`.
pub fn report() -> String {
    let active = Backend::active();
    match std::env::var("GHR_SIMD") {
        Err(_) => format!("{active} (auto)"),
        Ok(v) => match Mode::parse(&v) {
            Mode::Auto if v.is_empty() || v.eq_ignore_ascii_case("auto") => {
                format!("{active} (auto)")
            }
            Mode::Auto => format!("{active} (auto; unrecognized GHR_SIMD={v:?} ignored)"),
            Mode::Off => format!("{active} (forced via GHR_SIMD={v})"),
            Mode::Force(b) if b.available() => format!("{active} (forced via GHR_SIMD={v})"),
            Mode::Force(_) => format!("{active} (GHR_SIMD={v} unavailable on this host)"),
        },
    }
}

/// Sum `data` with the `v`-lane accumulation tree on `backend`, if that
/// backend has a kernel for this dtype × V shape. `None` means "use the
/// scalar path"; `Some` is bit-identical to what the scalar path returns.
///
/// `v` must already be validated (power of two in 1..=32).
pub(crate) fn simd_sum<T: Element>(data: &[T], v: usize, backend: Backend) -> Option<T::Acc> {
    debug_assert!(matches!(v, 1 | 2 | 4 | 8 | 16 | 32));
    if !backend.covers(T::DTYPE, v) {
        return None;
    }
    #[cfg(target_arch = "x86_64")]
    {
        return x86::dispatch::<T>(data, v, backend);
    }
    #[cfg(target_arch = "aarch64")]
    {
        return neon::dispatch::<T>(data, v, backend);
    }
    #[allow(unreachable_code)]
    None
}

/// Reinterpret a slice of `T` as a slice of `U` once `T == U` is proven by
/// `TypeId`. Used to bridge the generic [`Element`] API to the concrete
/// per-type kernels without unstable specialization.
#[inline]
pub(crate) fn cast_slice<T: 'static, U: 'static>(data: &[T]) -> Option<&[U]> {
    if std::any::TypeId::of::<T>() == std::any::TypeId::of::<U>() {
        // SAFETY: T and U are the same type, so layout and validity match.
        Some(unsafe { &*(data as *const [T] as *const [U]) })
    } else {
        None
    }
}

/// Convert a concrete kernel result back into the generic accumulator type
/// after the `TypeId` proof above. Panics (unreachably) on a type mismatch.
#[inline]
pub(crate) fn cast_acc<A: Copy + 'static, B: Copy + 'static>(a: A) -> B {
    assert_eq!(std::any::TypeId::of::<A>(), std::any::TypeId::of::<B>());
    // SAFETY: A and B are the same type (checked above), and both are Copy.
    unsafe { std::mem::transmute_copy(&a) }
}

/// The scalar epilogue shared by every vector kernel: the final `W -> 1`
/// pairwise combine over the spilled lane accumulators, then the serial
/// tail — byte-for-byte the same arithmetic the scalar kernel performs.
#[inline]
fn combine_lanes_and_tail<T: Element>(lanes: &mut [T::Acc], tail: &[T]) -> T::Acc {
    debug_assert!(lanes.len().is_power_of_two());
    let mut width = lanes.len();
    while width > 1 {
        width /= 2;
        for i in 0..width {
            lanes[i] = lanes[i] + lanes[i + width];
        }
    }
    let mut sum = lanes[0];
    for &x in tail {
        sum = sum + x.widen();
    }
    sum
}

/// The part of `data` the vector main loop does not consume.
#[inline]
pub(crate) fn tail_of<T>(data: &[T], v: usize) -> &[T] {
    &data[data.len() - data.len() % v..]
}

#[cfg(target_arch = "x86_64")]
// The register-load loops index `vacc[j]` with an explicit `j` so they
// visibly mirror the scalar kernel's accumulator indexing (the bit-identity
// contract); an iterator form would obscure the correspondence.
#[allow(clippy::needless_range_loop)]
mod x86 {
    use super::{cast_acc, cast_slice, combine_lanes_and_tail, tail_of, Backend};
    use ghr_types::{DType, Element};
    use std::arch::x86_64::*;

    pub(super) fn dispatch<T: Element>(data: &[T], v: usize, backend: Backend) -> Option<T::Acc> {
        // `covers()` already vetted (backend, dtype, v); here we only
        // bridge the generic types to the concrete kernels.
        match (backend, T::DTYPE) {
            (Backend::Sse2, DType::I32) => {
                // SAFETY: SSE2 is baseline on x86_64.
                cast_slice::<T, i32>(data).map(|d| cast_acc(unsafe { sum_i32_sse2(d, v) }))
            }
            (Backend::Sse2, DType::F32) => {
                cast_slice::<T, f32>(data).map(|d| cast_acc(unsafe { sum_f32_sse2(d, v) }))
            }
            (Backend::Sse2, DType::F64) => {
                cast_slice::<T, f64>(data).map(|d| cast_acc(unsafe { sum_f64_sse2(d, v) }))
            }
            // SAFETY (all AVX2 arms): `covers` + `available` guarantee the
            // avx2 feature was runtime-detected before we get here.
            (Backend::Avx2, DType::I32) => {
                cast_slice::<T, i32>(data).map(|d| cast_acc(unsafe { sum_i32_avx2(d, v) }))
            }
            (Backend::Avx2, DType::F32) => {
                cast_slice::<T, f32>(data).map(|d| cast_acc(unsafe { sum_f32_avx2(d, v) }))
            }
            (Backend::Avx2, DType::F64) => {
                cast_slice::<T, f64>(data).map(|d| cast_acc(unsafe { sum_f64_avx2(d, v) }))
            }
            (Backend::Avx2, DType::I8) => {
                cast_slice::<T, i8>(data).map(|d| cast_acc(unsafe { sum_i8_avx2(d, v) }))
            }
            _ => None,
        }
    }

    /// SSE2 `i32 -> i32`, 4 lanes per register.
    unsafe fn sum_i32_sse2(data: &[i32], v: usize) -> i32 {
        const W: usize = 4;
        let nv = v / W;
        let mut vacc = [_mm_setzero_si128(); 8]; // v=32 -> 8 registers
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                let x = _mm_loadu_si128(p.add(j * W) as *const __m128i);
                vacc[j] = _mm_add_epi32(vacc[j], x);
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = _mm_add_epi32(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0i32; W];
        _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, vacc[0]);
        combine_lanes_and_tail::<i32>(&mut lanes, tail_of(data, v))
    }

    /// SSE2 `f32 -> f32`, 4 lanes per register.
    unsafe fn sum_f32_sse2(data: &[f32], v: usize) -> f32 {
        const W: usize = 4;
        let nv = v / W;
        let mut vacc = [_mm_setzero_ps(); 8];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                vacc[j] = _mm_add_ps(vacc[j], _mm_loadu_ps(p.add(j * W)));
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = _mm_add_ps(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0f32; W];
        _mm_storeu_ps(lanes.as_mut_ptr(), vacc[0]);
        combine_lanes_and_tail::<f32>(&mut lanes, tail_of(data, v))
    }

    /// SSE2 `f64 -> f64`, 2 lanes per register.
    unsafe fn sum_f64_sse2(data: &[f64], v: usize) -> f64 {
        const W: usize = 2;
        let nv = v / W;
        let mut vacc = [_mm_setzero_pd(); 16];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                vacc[j] = _mm_add_pd(vacc[j], _mm_loadu_pd(p.add(j * W)));
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = _mm_add_pd(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0f64; W];
        _mm_storeu_pd(lanes.as_mut_ptr(), vacc[0]);
        combine_lanes_and_tail::<f64>(&mut lanes, tail_of(data, v))
    }

    /// AVX2 `i32 -> i32`, 8 lanes per register.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_i32_avx2(data: &[i32], v: usize) -> i32 {
        const W: usize = 8;
        let nv = v / W;
        let mut vacc = [_mm256_setzero_si256(); 4];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                let x = _mm256_loadu_si256(p.add(j * W) as *const __m256i);
                vacc[j] = _mm256_add_epi32(vacc[j], x);
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = _mm256_add_epi32(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0i32; W];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, vacc[0]);
        combine_lanes_and_tail::<i32>(&mut lanes, tail_of(data, v))
    }

    /// AVX2 `f32 -> f32`, 8 lanes per register.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_f32_avx2(data: &[f32], v: usize) -> f32 {
        const W: usize = 8;
        let nv = v / W;
        let mut vacc = [_mm256_setzero_ps(); 4];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                vacc[j] = _mm256_add_ps(vacc[j], _mm256_loadu_ps(p.add(j * W)));
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = _mm256_add_ps(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0f32; W];
        _mm256_storeu_ps(lanes.as_mut_ptr(), vacc[0]);
        combine_lanes_and_tail::<f32>(&mut lanes, tail_of(data, v))
    }

    /// AVX2 `f64 -> f64`, 4 lanes per register.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_f64_avx2(data: &[f64], v: usize) -> f64 {
        const W: usize = 4;
        let nv = v / W;
        let mut vacc = [_mm256_setzero_pd(); 8];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                vacc[j] = _mm256_add_pd(vacc[j], _mm256_loadu_pd(p.add(j * W)));
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = _mm256_add_pd(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0f64; W];
        _mm256_storeu_pd(lanes.as_mut_ptr(), vacc[0]);
        combine_lanes_and_tail::<f64>(&mut lanes, tail_of(data, v))
    }

    /// AVX2 `i8 -> i64` with widening: each 4-byte group of elements is
    /// sign-extended to 4 x i64 lanes (`vpmovsxbq`) and accumulated, so
    /// accumulator `i` still sums exactly the elements at positions
    /// `i (mod v)` — the paper's C2 widening case.
    #[target_feature(enable = "avx2")]
    unsafe fn sum_i8_avx2(data: &[i8], v: usize) -> i64 {
        const W: usize = 4; // i64 lanes per 256-bit register
        let nv = v / W;
        let mut vacc = [_mm256_setzero_si256(); 8];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                // 4 i8 elements -> low 32 bits of an xmm -> 4 x i64.
                let quad = (p.add(j * W) as *const i32).read_unaligned();
                let x = _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(quad));
                vacc[j] = _mm256_add_epi64(vacc[j], x);
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = _mm256_add_epi64(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0i64; W];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, vacc[0]);
        combine_lanes_and_tail::<i8>(&mut lanes, tail_of(data, v))
    }
}

#[cfg(target_arch = "aarch64")]
// Same rationale as `x86`: explicit `vacc[j]` indexing mirrors the scalar
// kernel's accumulator layout.
#[allow(clippy::needless_range_loop)]
mod neon {
    use super::{cast_acc, cast_slice, combine_lanes_and_tail, tail_of, Backend};
    use ghr_types::{DType, Element};
    use std::arch::aarch64::*;

    pub(super) fn dispatch<T: Element>(data: &[T], v: usize, backend: Backend) -> Option<T::Acc> {
        if backend != Backend::Neon {
            return None;
        }
        // SAFETY (all arms): Advanced SIMD is a baseline aarch64 feature.
        match T::DTYPE {
            DType::I32 => {
                cast_slice::<T, i32>(data).map(|d| cast_acc(unsafe { sum_i32_neon(d, v) }))
            }
            DType::F32 => {
                cast_slice::<T, f32>(data).map(|d| cast_acc(unsafe { sum_f32_neon(d, v) }))
            }
            DType::F64 => {
                cast_slice::<T, f64>(data).map(|d| cast_acc(unsafe { sum_f64_neon(d, v) }))
            }
            DType::I8 => cast_slice::<T, i8>(data).map(|d| cast_acc(unsafe { sum_i8_neon(d, v) })),
            DType::I64 => None,
        }
    }

    /// NEON `i32 -> i32`, 4 lanes per register.
    unsafe fn sum_i32_neon(data: &[i32], v: usize) -> i32 {
        const W: usize = 4;
        let nv = v / W;
        let mut vacc = [vdupq_n_s32(0); 8];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                vacc[j] = vaddq_s32(vacc[j], vld1q_s32(p.add(j * W)));
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = vaddq_s32(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0i32; W];
        vst1q_s32(lanes.as_mut_ptr(), vacc[0]);
        combine_lanes_and_tail::<i32>(&mut lanes, tail_of(data, v))
    }

    /// NEON `f32 -> f32`, 4 lanes per register.
    unsafe fn sum_f32_neon(data: &[f32], v: usize) -> f32 {
        const W: usize = 4;
        let nv = v / W;
        let mut vacc = [vdupq_n_f32(0.0); 8];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                vacc[j] = vaddq_f32(vacc[j], vld1q_f32(p.add(j * W)));
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = vaddq_f32(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0f32; W];
        vst1q_f32(lanes.as_mut_ptr(), vacc[0]);
        combine_lanes_and_tail::<f32>(&mut lanes, tail_of(data, v))
    }

    /// NEON `f64 -> f64`, 2 lanes per register.
    unsafe fn sum_f64_neon(data: &[f64], v: usize) -> f64 {
        const W: usize = 2;
        let nv = v / W;
        let mut vacc = [vdupq_n_f64(0.0); 16];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for j in 0..nv {
                vacc[j] = vaddq_f64(vacc[j], vld1q_f64(p.add(j * W)));
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = vaddq_f64(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0f64; W];
        vst1q_f64(lanes.as_mut_ptr(), vacc[0]);
        combine_lanes_and_tail::<f64>(&mut lanes, tail_of(data, v))
    }

    /// NEON `i8 -> i64` with widening: each 8-element group is widened
    /// through the `s8 -> s16 -> s32 -> s64` `vmovl` chain into four
    /// `int64x2` accumulators, preserving the lane <-> `i (mod v)` mapping.
    unsafe fn sum_i8_neon(data: &[i8], v: usize) -> i64 {
        const W: usize = 2; // i64 lanes per 128-bit register
        let nv = v / W; // up to 16 registers at v = 32
        let groups = v / 8; // 8-element widening groups per chunk
        let mut vacc = [vdupq_n_s64(0); 16];
        for chunk in data.chunks_exact(v) {
            let p = chunk.as_ptr();
            for g in 0..groups {
                let b = vld1_s8(p.add(g * 8)); // 8 x i8
                let h = vmovl_s8(b); // 8 x i16
                let w0 = vmovl_s16(vget_low_s16(h)); // 4 x i32 (lanes 0..4)
                let w1 = vmovl_s16(vget_high_s16(h)); // 4 x i32 (lanes 4..8)
                let base = g * 4; // 4 int64x2 regs per group
                vacc[base] = vaddq_s64(vacc[base], vmovl_s32(vget_low_s32(w0)));
                vacc[base + 1] = vaddq_s64(vacc[base + 1], vmovl_s32(vget_high_s32(w0)));
                vacc[base + 2] = vaddq_s64(vacc[base + 2], vmovl_s32(vget_low_s32(w1)));
                vacc[base + 3] = vaddq_s64(vacc[base + 3], vmovl_s32(vget_high_s32(w1)));
            }
        }
        let mut n = nv;
        while n > 1 {
            n /= 2;
            for j in 0..n {
                vacc[j] = vaddq_s64(vacc[j], vacc[j + n]);
            }
        }
        let mut lanes = [0i64; W];
        vst1q_s64(lanes.as_mut_ptr(), vacc[0]);
        combine_lanes_and_tail::<i8>(&mut lanes, tail_of(data, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_display() {
        assert_eq!(Backend::Scalar.label(), "scalar");
        assert_eq!(Backend::Avx2.to_string(), "avx2");
    }

    #[test]
    fn scalar_is_always_available_and_covers_nothing() {
        assert!(Backend::Scalar.available());
        for dtype in [DType::I8, DType::I32, DType::F32, DType::F64] {
            for v in [1, 2, 4, 8, 16, 32] {
                assert!(!Backend::Scalar.covers(dtype, v));
            }
        }
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse("auto"), Mode::Auto);
        assert_eq!(Mode::parse(""), Mode::Auto);
        assert_eq!(Mode::parse("OFF"), Mode::Off);
        assert_eq!(Mode::parse("scalar"), Mode::Off);
        assert_eq!(Mode::parse("sse2"), Mode::Force(Backend::Sse2));
        assert_eq!(Mode::parse("AVX2"), Mode::Force(Backend::Avx2));
        assert_eq!(Mode::parse("neon"), Mode::Force(Backend::Neon));
        assert_eq!(Mode::parse("gibberish"), Mode::Auto);
    }

    #[test]
    fn narrow_v_stays_scalar() {
        // No backend may claim a shape narrower than its registers.
        for b in [Backend::Sse2, Backend::Avx2, Backend::Neon] {
            assert!(!b.covers(DType::F64, 1), "{b}");
            assert!(!b.covers(DType::I32, 2), "{b}");
            assert!(!b.covers(DType::I8, 2), "{b}");
        }
        assert!(!Backend::Avx2.covers(DType::F32, 4));
    }

    #[test]
    fn widest_is_available() {
        assert!(Backend::widest().available());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_is_baseline_on_x86_64() {
        assert!(Backend::Sse2.available());
        assert!(Backend::Sse2.covers(DType::I32, 8));
        assert!(!Backend::Neon.available());
    }

    #[test]
    fn report_names_a_backend() {
        let r = report();
        assert!(
            ["scalar", "sse2", "avx2", "neon"]
                .iter()
                .any(|b| r.starts_with(b)),
            "{r}"
        );
    }
}
