//! OpenMP clause vocabulary used by the reduction study.

/// The reduction-identifier of a `reduction(op : list)` clause.
///
/// The paper studies `+`; the other arithmetic identifiers are implemented
/// on the host path as an extension and documented as such.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionOp {
    /// `reduction(+ : sum)` — the paper's operator.
    Plus,
    /// `reduction(min : m)` (host-path extension).
    Min,
    /// `reduction(max : m)` (host-path extension).
    Max,
}

impl ReductionOp {
    /// The OpenMP source spelling.
    pub const fn spelling(self) -> &'static str {
        match self {
            ReductionOp::Plus => "+",
            ReductionOp::Min => "min",
            ReductionOp::Max => "max",
        }
    }
}

impl std::fmt::Display for ReductionOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spelling())
    }
}

/// Map direction of a `map(...)` clause.
///
/// In unified-memory mode the clause performs no allocation or transfer
/// (the paper, Section IV.A); the runtime keeps it for placement hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// `map(to: ...)` — host to device before the region.
    To,
    /// `map(from: ...)` — device to host after the region.
    From,
    /// `map(tofrom: ...)` — both.
    ToFrom,
    /// `map(alloc: ...)` — device allocation only.
    Alloc,
}

impl std::fmt::Display for MapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MapKind::To => "to",
            MapKind::From => "from",
            MapKind::ToFrom => "tofrom",
            MapKind::Alloc => "alloc",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spellings() {
        assert_eq!(ReductionOp::Plus.to_string(), "+");
        assert_eq!(ReductionOp::Min.to_string(), "min");
        assert_eq!(ReductionOp::Max.to_string(), "max");
        assert_eq!(MapKind::ToFrom.to_string(), "tofrom");
    }
}
