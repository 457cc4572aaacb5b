//! The paper's four evaluation cases.

use ghr_types::{Bytes, DType};

/// Number of elements for cases C1/C3/C4 (C2 reduces four times as many
/// 8-bit elements, keeping the array at the same ~4.19 GB).
pub const M_PAPER: u64 = 1_048_576_000;

/// One of the paper's evaluation cases (Section III.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Case {
    /// `T = R = i32`, 1 048 576 000 elements.
    C1,
    /// `T = i8`, `R = i64`, 4 194 304 000 elements.
    C2,
    /// `T = R = f32`, 1 048 576 000 elements.
    C3,
    /// `T = R = f64`, 1 048 576 000 elements.
    C4,
}

impl Case {
    /// All four cases in paper order.
    pub const ALL: [Case; 4] = [Case::C1, Case::C2, Case::C3, Case::C4];

    /// Input element type `T`.
    pub const fn elem(self) -> DType {
        match self {
            Case::C1 => DType::I32,
            Case::C2 => DType::I8,
            Case::C3 => DType::F32,
            Case::C4 => DType::F64,
        }
    }

    /// Accumulator type `R`.
    pub const fn acc(self) -> DType {
        match self {
            Case::C1 => DType::I32,
            Case::C2 => DType::I64,
            Case::C3 => DType::F32,
            Case::C4 => DType::F64,
        }
    }

    /// The paper's element count for this case.
    pub const fn m_paper(self) -> u64 {
        match self {
            Case::C2 => 4 * M_PAPER,
            _ => M_PAPER,
        }
    }

    /// Input size in bytes at the paper's scale.
    pub const fn bytes_paper(self) -> Bytes {
        Bytes(self.m_paper() * self.elem().size_bytes())
    }

    /// The `V` the paper selects for the optimized kernel (Section IV:
    /// 4 for C1/C3/C4, 32 for C2).
    pub const fn v_optimized(self) -> u32 {
        match self {
            Case::C2 => 32,
            _ => 4,
        }
    }

    /// Case label (`"C1"`, ...).
    pub const fn label(self) -> &'static str {
        match self {
            Case::C1 => "C1",
            Case::C2 => "C2",
            Case::C3 => "C3",
            Case::C4 => "C4",
        }
    }

    /// Human-readable type signature, e.g. `"i8 -> i64"`.
    pub fn signature(self) -> String {
        format!("{} -> {}", self.elem(), self.acc())
    }

    /// Scale the element count down for functional verification while
    /// keeping it a multiple of every `V` and of the 0.1 co-run grid
    /// (i.e. a multiple of 320).
    pub fn m_scaled(self, target: u64) -> u64 {
        let m = target.max(320);
        m - (m % 320)
    }
}

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_definitions_match_paper() {
        assert_eq!(Case::C1.elem(), DType::I32);
        assert_eq!(Case::C1.acc(), DType::I32);
        assert_eq!(Case::C2.elem(), DType::I8);
        assert_eq!(Case::C2.acc(), DType::I64);
        assert_eq!(Case::C3.elem(), DType::F32);
        assert_eq!(Case::C4.acc(), DType::F64);
        assert_eq!(Case::C1.m_paper(), 1_048_576_000);
        assert_eq!(Case::C2.m_paper(), 4_194_304_000);
    }

    #[test]
    fn byte_sizes() {
        // C1, C2, C3 are ~4.19 GB; C4 is ~8.39 GB.
        assert_eq!(Case::C1.bytes_paper(), Bytes(4_194_304_000));
        assert_eq!(Case::C2.bytes_paper(), Bytes(4_194_304_000));
        assert_eq!(Case::C3.bytes_paper(), Bytes(4_194_304_000));
        assert_eq!(Case::C4.bytes_paper(), Bytes(8_388_608_000));
    }

    #[test]
    fn optimized_v_matches_section_iv() {
        assert_eq!(Case::C1.v_optimized(), 4);
        assert_eq!(Case::C2.v_optimized(), 32);
        assert_eq!(Case::C3.v_optimized(), 4);
        assert_eq!(Case::C4.v_optimized(), 4);
    }

    #[test]
    fn scaled_m_is_divisible_by_v_and_grid() {
        for target in [1000u64, 321, 1_000_000, 12345] {
            let m = Case::C1.m_scaled(target);
            assert_eq!(m % 32, 0);
            assert_eq!(m % 10, 0);
            assert!(m >= 320);
        }
    }

    #[test]
    fn labels_and_signatures() {
        assert_eq!(Case::C2.to_string(), "C2");
        assert_eq!(Case::C2.signature(), "i8 -> i64");
    }
}
