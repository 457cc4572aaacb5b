//! Physical units used by the performance models.
//!
//! All models compute with `f64` seconds / bytes-per-second internally; the
//! newtypes exist so that a bandwidth can never be accidentally added to a
//! time and so that display formatting is consistent with the paper
//! (decimal GB/s, i.e. `1e9` bytes per second — the paper's
//! `bandwidth = 1e-9 * M * sizeof(T) * N / elapsed_time`).

use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a number of kibibytes.
    #[inline]
    pub const fn kib(k: u64) -> Self {
        Bytes(k * 1024)
    }

    /// Construct from a number of mebibytes.
    #[inline]
    pub const fn mib(m: u64) -> Self {
        Bytes(m * 1024 * 1024)
    }

    /// Construct from a number of gibibytes.
    #[inline]
    pub const fn gib(g: u64) -> Self {
        Bytes(g * 1024 * 1024 * 1024)
    }

    /// The raw byte count as `f64` (for rate arithmetic).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Decimal gigabytes (`1e9` bytes), the unit the paper reports in.
    #[inline]
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl std::fmt::Display for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2} GiB", b as f64 / (1u64 << 30) as f64)
        } else if b >= 1 << 20 {
            write!(f, "{:.2} MiB", b as f64 / (1u64 << 20) as f64)
        } else if b >= 1 << 10 {
            write!(f, "{:.2} KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// A data rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Construct from decimal gigabytes per second (the paper's unit).
    #[inline]
    pub fn gbps(gb: f64) -> Self {
        Bandwidth(gb * 1e9)
    }

    /// The rate in decimal gigabytes per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Bytes per second as a raw `f64`.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Time needed to move `bytes` at this rate.
    ///
    /// Returns [`SimTime::ZERO`] for zero bytes; panics on zero bandwidth
    /// with a nonzero transfer because that indicates a misconfigured model.
    #[inline]
    pub fn time_for(self, bytes: Bytes) -> SimTime {
        if bytes.0 == 0 {
            return SimTime::ZERO;
        }
        assert!(
            self.0 > 0.0,
            "zero bandwidth cannot move {bytes}; model misconfigured"
        );
        SimTime(bytes.as_f64() / self.0)
    }

    /// The smaller of two bandwidths.
    #[inline]
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    #[inline]
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl std::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} GB/s", self.as_gbps())
    }
}

/// A point or span on the simulated clock, in seconds.
///
/// Simulated time is distinct from wall-clock time: the performance models
/// advance it analytically, so a 200-repetition run over 4 GB completes in
/// microseconds of host time.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Zero duration / epoch.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds.
    #[inline]
    pub fn secs(s: f64) -> Self {
        SimTime(s)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn millis(ms: f64) -> Self {
        SimTime(ms * 1e-3)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn micros(us: f64) -> Self {
        SimTime(us * 1e-6)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub fn nanos(ns: f64) -> Self {
        SimTime(ns * 1e-9)
    }

    /// The value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The larger of two times (used to overlap parallel pipelines).
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Whether the span is a finite, non-negative number — every model
    /// output must satisfy this.
    #[inline]
    pub fn is_valid_span(self) -> bool {
        self.0.is_finite() && self.0 >= 0.0
    }

    /// Effective bandwidth of moving `bytes` within this span.
    #[inline]
    pub fn bandwidth_for(self, bytes: Bytes) -> Bandwidth {
        assert!(self.0 > 0.0, "cannot compute bandwidth over zero time");
        Bandwidth(bytes.as_f64() / self.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} us", s * 1e6)
        } else {
            write!(f, "{:.1} ns", s * 1e9)
        }
    }
}

/// A clock frequency in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Frequency(pub f64);

impl Frequency {
    /// Construct from gigahertz.
    #[inline]
    pub fn ghz(g: f64) -> Self {
        Frequency(g * 1e9)
    }

    /// Construct from megahertz.
    #[inline]
    pub fn mhz(m: f64) -> Self {
        Frequency(m * 1e6)
    }

    /// Cycles per second.
    #[inline]
    pub fn hz(self) -> f64 {
        self.0
    }

    /// Duration of `cycles` clock cycles.
    #[inline]
    pub fn cycles(self, cycles: f64) -> SimTime {
        assert!(self.0 > 0.0, "zero frequency");
        SimTime(cycles / self.0)
    }
}

impl std::fmt::Display for Frequency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} GHz", self.0 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::kib(1).0, 1024);
        assert_eq!(Bytes::mib(1).0, 1024 * 1024);
        assert_eq!(Bytes::gib(4).0, 4 * 1024 * 1024 * 1024);
    }

    #[test]
    fn bytes_decimal_gb_matches_paper_metric() {
        // The paper divides by 1e9, not 2^30.
        assert!((Bytes(4_194_304_000).as_gb() - 4.194304).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_time_roundtrip() {
        let bw = Bandwidth::gbps(4022.7);
        let t = bw.time_for(Bytes(4_194_304_000));
        let back = t.bandwidth_for(Bytes(4_194_304_000));
        assert!((back.as_gbps() - 4022.7).abs() < 1e-6);
    }

    #[test]
    fn zero_bytes_takes_zero_time() {
        assert_eq!(Bandwidth::gbps(100.0).time_for(Bytes::ZERO), SimTime::ZERO);
        // Even a zero-bandwidth link can "move" zero bytes.
        assert_eq!(Bandwidth::ZERO.time_for(Bytes::ZERO), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn zero_bandwidth_nonzero_transfer_panics() {
        let _ = Bandwidth::ZERO.time_for(Bytes(1));
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::millis(2.0);
        let b = SimTime::micros(500.0);
        assert!(((a + b).as_millis() - 2.5).abs() < 1e-12);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert!((a * 2.0).as_millis() - 4.0 < 1e-12);
        assert!(((a / 2.0).as_millis() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_cycles() {
        let f = Frequency::ghz(2.0);
        assert!((f.cycles(2e9).as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bytes(512).to_string(), "512 B");
        assert_eq!(Bytes::kib(2).to_string(), "2.00 KiB");
        assert_eq!(SimTime::nanos(120.0).to_string(), "120.0 ns");
        assert_eq!(Bandwidth::gbps(3795.0).to_string(), "3795.0 GB/s");
    }

    #[test]
    fn valid_span_checks() {
        assert!(SimTime::ZERO.is_valid_span());
        assert!(SimTime::secs(1.0).is_valid_span());
        assert!(!SimTime(f64::NAN).is_valid_span());
        assert!(!SimTime(-1.0).is_valid_span());
        assert!(!SimTime(f64::INFINITY).is_valid_span());
    }
}
