//! Element data types of the reduction study.
//!
//! The paper evaluates four cases that differ only in the input element type
//! `T` and the accumulator type `R`:
//!
//! | Case | `T` | `R` |
//! |------|-----|-----|
//! | C1   | `i32` | `i32` |
//! | C2   | `i8`  | `i64` |
//! | C3   | `f32` | `f32` |
//! | C4   | `f64` | `f64` |
//!
//! [`DType`] is the runtime descriptor used by the performance models (only
//! the width matters for timing); [`Element`] / [`Accum`] are the compile-time
//! traits used by the functional executors.

/// Runtime descriptor of an element data type.
///
/// The timing models only care about the byte width; the functional
/// executors use the [`Element`] trait instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 8-bit signed integer (paper case C2 input).
    I8,
    /// 32-bit signed integer (paper case C1).
    I32,
    /// 64-bit signed integer (paper case C2 accumulator).
    I64,
    /// IEEE-754 single precision (paper case C3).
    F32,
    /// IEEE-754 double precision (paper case C4).
    F64,
}

/// Memory-width class of an element type.
///
/// The streaming-efficiency tables of the timing models are keyed by the
/// element width, not the exact type; this is the shared classification the
/// CPU and GPU models both dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WidthClass {
    /// 1-byte elements (`i8`).
    OneByte,
    /// 4-byte elements (`i32`, `f32`).
    FourByte,
    /// 8-byte elements (`i64`, `f64`).
    EightByte,
}

/// Cost class of a device-wide accumulator combine.
///
/// Integer adds aggregate in L2 (fast); 64-bit and floating-point atomics
/// serialize round trips — the grouping behind the four fitted combine
/// costs of the GPU model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CombineClass {
    /// 32-bit-or-narrower integer adds (L2 aggregation).
    Int32,
    /// 64-bit integer adds.
    Int64,
    /// Single-precision float combines.
    Float32,
    /// Double-precision float combines.
    Float64,
}

impl DType {
    /// Width of one element in bytes.
    #[inline]
    pub const fn size_bytes(self) -> u64 {
        match self {
            DType::I8 => 1,
            DType::I32 | DType::F32 => 4,
            DType::I64 | DType::F64 => 8,
        }
    }

    /// Memory-width class (drives the streaming-efficiency tables shared
    /// by the CPU and GPU timing models).
    #[inline]
    pub const fn width_class(self) -> WidthClass {
        match self.size_bytes() {
            1 => WidthClass::OneByte,
            4 => WidthClass::FourByte,
            _ => WidthClass::EightByte,
        }
    }

    /// Cost class of a device-wide combine into this accumulator type.
    #[inline]
    pub const fn combine_class(self) -> CombineClass {
        match self {
            DType::I8 | DType::I32 => CombineClass::Int32,
            DType::I64 => CombineClass::Int64,
            DType::F32 => CombineClass::Float32,
            DType::F64 => CombineClass::Float64,
        }
    }

    /// Whether accumulating this element type pays a widening chain
    /// (`i8` → `i64` sign-extension, case C2) on both CPU and GPU.
    #[inline]
    pub const fn widens_on_accumulate(self) -> bool {
        matches!(self, DType::I8)
    }

    /// SIMD lane-count scale relative to a 4-byte element: how many more
    /// (or fewer) lanes a fixed-width vector unit fits for this type.
    #[inline]
    pub fn simd_width_scale(self) -> f64 {
        4.0 / self.size_bytes() as f64
    }

    /// Whether the type is a floating-point type (reduction order then
    /// affects the numerical result).
    #[inline]
    pub const fn is_float(self) -> bool {
        matches!(self, DType::F32 | DType::F64)
    }

    /// Short lowercase name as used in tables (`i8`, `i32`, ...).
    pub const fn name(self) -> &'static str {
        match self {
            DType::I8 => "i8",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::F32 => "f32",
            DType::F64 => "f64",
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An input element type `T` of the reduction.
///
/// `Element` ties a concrete Rust type to its [`DType`] descriptor and
/// provides the widening conversion into its natural accumulator.
pub trait Element: Copy + Send + Sync + 'static {
    /// The accumulator type `R` used for this element type in the paper.
    type Acc: Accum;

    /// Runtime descriptor for this type.
    const DTYPE: DType;

    /// Widen one element into the accumulator domain.
    fn widen(self) -> Self::Acc;

    /// Produce a deterministic test element from an index (used by the
    /// workload generators; chosen so that exact integer sums are easy to
    /// verify and float sums stay well-conditioned).
    fn from_index(i: u64) -> Self;

    /// Map a unit-interval sample to an element of the type's test range
    /// (used by the randomized workload generators).
    fn from_unit(u: f64) -> Self;
}

/// An accumulator type `R` of the reduction.
///
/// The `Mul` bound serves the multiply-accumulate workloads (dot, GEMV),
/// whose products are formed in the accumulator domain after widening.
pub trait Accum:
    Copy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + 'static
{
    /// Runtime descriptor for this type.
    const DTYPE: DType;

    /// The additive identity.
    fn zero() -> Self;

    /// The identity of the `min` reduction (the type's maximum value).
    fn min_identity() -> Self;

    /// The identity of the `max` reduction (the type's minimum value).
    fn max_identity() -> Self;

    /// The smaller of two values (IEEE semantics for floats: NaN loses).
    fn acc_min(self, other: Self) -> Self {
        if other < self {
            other
        } else {
            self
        }
    }

    /// The larger of two values.
    fn acc_max(self, other: Self) -> Self {
        if other > self {
            other
        } else {
            self
        }
    }

    /// Lossy conversion to `f64` (used for tolerance checks and reporting).
    fn as_f64(self) -> f64;

    /// Magnitude of the difference to another accumulator value, in `f64`.
    fn abs_diff(self, other: Self) -> f64 {
        (self.as_f64() - other.as_f64()).abs()
    }
}

impl Element for i8 {
    type Acc = i64;
    const DTYPE: DType = DType::I8;
    #[inline]
    fn widen(self) -> i64 {
        self as i64
    }
    #[inline]
    fn from_index(i: u64) -> Self {
        // Small alternating values keep the exact sum representable and
        // exercise sign handling.
        ((i % 7) as i8) - 3
    }
    #[inline]
    fn from_unit(u: f64) -> Self {
        ((u * 7.0).floor() as i8).clamp(0, 6) - 3
    }
}

impl Element for i32 {
    type Acc = i32;
    const DTYPE: DType = DType::I32;
    #[inline]
    fn widen(self) -> i32 {
        self
    }
    #[inline]
    fn from_index(i: u64) -> Self {
        ((i % 11) as i32) - 5
    }
    #[inline]
    fn from_unit(u: f64) -> Self {
        ((u * 11.0).floor() as i32).clamp(0, 10) - 5
    }
}

impl Element for f32 {
    type Acc = f32;
    const DTYPE: DType = DType::F32;
    #[inline]
    fn widen(self) -> f32 {
        self
    }
    #[inline]
    fn from_index(i: u64) -> Self {
        // Values in [-0.5, 0.5] keep partial sums small so float error
        // bounds stay tight even over 2^30 elements.
        ((i % 101) as f32) / 101.0 - 0.5
    }
    #[inline]
    fn from_unit(u: f64) -> Self {
        u as f32 - 0.5
    }
}

impl Element for f64 {
    type Acc = f64;
    const DTYPE: DType = DType::F64;
    #[inline]
    fn widen(self) -> f64 {
        self
    }
    #[inline]
    fn from_index(i: u64) -> Self {
        ((i % 101) as f64) / 101.0 - 0.5
    }
    #[inline]
    fn from_unit(u: f64) -> Self {
        u - 0.5
    }
}

impl Accum for i32 {
    const DTYPE: DType = DType::I32;
    #[inline]
    fn zero() -> Self {
        0
    }
    #[inline]
    fn min_identity() -> Self {
        i32::MAX
    }
    #[inline]
    fn max_identity() -> Self {
        i32::MIN
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl Accum for i64 {
    const DTYPE: DType = DType::I64;
    #[inline]
    fn zero() -> Self {
        0
    }
    #[inline]
    fn min_identity() -> Self {
        i64::MAX
    }
    #[inline]
    fn max_identity() -> Self {
        i64::MIN
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl Accum for f32 {
    const DTYPE: DType = DType::F32;
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn min_identity() -> Self {
        f32::INFINITY
    }
    #[inline]
    fn max_identity() -> Self {
        f32::NEG_INFINITY
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }
}

impl Accum for f64 {
    const DTYPE: DType = DType::F64;
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn min_identity() -> Self {
        f64::INFINITY
    }
    #[inline]
    fn max_identity() -> Self {
        f64::NEG_INFINITY
    }
    #[inline]
    fn as_f64(self) -> f64 {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_rust_types() {
        assert_eq!(DType::I8.size_bytes() as usize, std::mem::size_of::<i8>());
        assert_eq!(DType::I32.size_bytes() as usize, std::mem::size_of::<i32>());
        assert_eq!(DType::I64.size_bytes() as usize, std::mem::size_of::<i64>());
        assert_eq!(DType::F32.size_bytes() as usize, std::mem::size_of::<f32>());
        assert_eq!(DType::F64.size_bytes() as usize, std::mem::size_of::<f64>());
    }

    #[test]
    fn width_classes_group_by_size() {
        assert_eq!(DType::I8.width_class(), WidthClass::OneByte);
        assert_eq!(DType::I32.width_class(), WidthClass::FourByte);
        assert_eq!(DType::F32.width_class(), WidthClass::FourByte);
        assert_eq!(DType::I64.width_class(), WidthClass::EightByte);
        assert_eq!(DType::F64.width_class(), WidthClass::EightByte);
    }

    #[test]
    fn combine_classes_group_like_the_fitted_costs() {
        assert_eq!(DType::I8.combine_class(), CombineClass::Int32);
        assert_eq!(DType::I32.combine_class(), CombineClass::Int32);
        assert_eq!(DType::I64.combine_class(), CombineClass::Int64);
        assert_eq!(DType::F32.combine_class(), CombineClass::Float32);
        assert_eq!(DType::F64.combine_class(), CombineClass::Float64);
    }

    #[test]
    fn only_i8_widens_on_accumulate() {
        assert!(DType::I8.widens_on_accumulate());
        for d in [DType::I32, DType::I64, DType::F32, DType::F64] {
            assert!(!d.widens_on_accumulate());
        }
    }

    #[test]
    fn simd_width_scale_is_relative_to_four_bytes() {
        assert_eq!(DType::I8.simd_width_scale(), 4.0);
        assert_eq!(DType::I32.simd_width_scale(), 1.0);
        assert_eq!(DType::F64.simd_width_scale(), 0.5);
    }

    #[test]
    fn float_detection() {
        assert!(DType::F32.is_float());
        assert!(DType::F64.is_float());
        assert!(!DType::I8.is_float());
        assert!(!DType::I32.is_float());
        assert!(!DType::I64.is_float());
    }

    #[test]
    fn element_dtype_agrees_with_descriptor() {
        assert_eq!(<i8 as Element>::DTYPE, DType::I8);
        assert_eq!(<i32 as Element>::DTYPE, DType::I32);
        assert_eq!(<f32 as Element>::DTYPE, DType::F32);
        assert_eq!(<f64 as Element>::DTYPE, DType::F64);
    }

    #[test]
    fn widen_preserves_value() {
        assert_eq!((-3i8).widen(), -3i64);
        assert_eq!(7i32.widen(), 7i32);
        assert_eq!(1.5f32.widen(), 1.5f32);
    }

    #[test]
    fn from_index_is_deterministic_and_bounded() {
        for i in 0..1000u64 {
            let a = <i8 as Element>::from_index(i);
            let b = <i8 as Element>::from_index(i);
            assert_eq!(a, b);
            assert!((-3..=3).contains(&a));
            let f = <f32 as Element>::from_index(i);
            assert!((-0.5..=0.5).contains(&f));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(DType::I8.to_string(), "i8");
        assert_eq!(DType::F64.to_string(), "f64");
    }

    #[test]
    fn accum_zero_is_identity() {
        assert_eq!(i64::zero() + 5, 5i64);
        assert_eq!(f64::zero() + 2.5, 2.5);
    }

    #[test]
    fn min_max_identities_absorb() {
        assert_eq!(<i32 as Accum>::min_identity().acc_min(7), 7);
        assert_eq!(<i32 as Accum>::max_identity().acc_max(-7), -7);
        assert_eq!(<f32 as Accum>::min_identity().acc_min(1.5), 1.5);
        assert_eq!(<f64 as Accum>::max_identity().acc_max(-2.5), -2.5);
    }

    #[test]
    fn acc_min_max_ordering() {
        assert_eq!(3i64.acc_min(5), 3);
        assert_eq!(3i64.acc_max(5), 5);
        assert_eq!((-1.0f64).acc_min(1.0), -1.0);
        assert_eq!((-1.0f64).acc_max(1.0), 1.0);
    }
}
