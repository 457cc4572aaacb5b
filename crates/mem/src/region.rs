//! Unified-memory allocations (regions).

use crate::page::PageState;
use ghr_types::Bytes;

/// Opaque handle to a unified-memory allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub(crate) u64);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "um#{}", self.0)
    }
}

/// One allocation: a length and per-page state.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    pub len: Bytes,
    pub page_size: Bytes,
    pub pages: Vec<PageState>,
}

impl Region {
    pub(crate) fn new(len: Bytes, page_size: Bytes) -> Self {
        let n = len.0.div_ceil(page_size.0);
        Region {
            len,
            page_size,
            pages: vec![PageState::new(); n as usize],
        }
    }

    /// Page index range `[first, last)` covering the byte range
    /// `[offset, offset + len)`, plus a closure-friendly iterator of
    /// per-page overlap in bytes.
    pub(crate) fn page_span(&self, offset: Bytes, len: Bytes) -> PageSpan {
        assert!(
            offset.0 + len.0 <= self.len.0,
            "access [{}, {}) out of bounds for region of {}",
            offset.0,
            offset.0 + len.0,
            self.len
        );
        let ps = self.page_size.0;
        if len.0 == 0 {
            return PageSpan {
                first: 0,
                last: 0,
                offset,
                len,
                page_size: self.page_size,
            };
        }
        PageSpan {
            first: (offset.0 / ps) as usize,
            last: ((offset.0 + len.0 - 1) / ps + 1) as usize,
            offset,
            len,
            page_size: self.page_size,
        }
    }
}

/// Byte-accurate iteration over the pages a range overlaps.
pub(crate) struct PageSpan {
    pub first: usize,
    pub last: usize,
    offset: Bytes,
    len: Bytes,
    page_size: Bytes,
}

impl PageSpan {
    /// Bytes of the access that fall on page `idx`.
    pub(crate) fn overlap(&self, idx: usize) -> Bytes {
        let ps = self.page_size.0;
        let page_start = idx as u64 * ps;
        let page_end = page_start + ps;
        let a = self.offset.0.max(page_start);
        let b = (self.offset.0 + self.len.0).min(page_end);
        Bytes(b.saturating_sub(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_page_count_rounds_up() {
        let r = Region::new(Bytes(100), Bytes(64));
        assert_eq!(r.pages.len(), 2);
        let r = Region::new(Bytes(128), Bytes(64));
        assert_eq!(r.pages.len(), 2);
        let r = Region::new(Bytes(0), Bytes(64));
        assert_eq!(r.pages.len(), 0);
    }

    #[test]
    fn page_span_covers_exact_pages() {
        let r = Region::new(Bytes(256), Bytes(64));
        let s = r.page_span(Bytes(0), Bytes(256));
        assert_eq!((s.first, s.last), (0, 4));
        let s = r.page_span(Bytes(64), Bytes(64));
        assert_eq!((s.first, s.last), (1, 2));
        let s = r.page_span(Bytes(63), Bytes(2));
        assert_eq!((s.first, s.last), (0, 2));
        assert_eq!(s.overlap(0), Bytes(1));
        assert_eq!(s.overlap(1), Bytes(1));
    }

    #[test]
    fn page_span_empty_range() {
        let r = Region::new(Bytes(256), Bytes(64));
        let s = r.page_span(Bytes(10), Bytes(0));
        assert_eq!((s.first, s.last), (0, 0));
    }

    #[test]
    fn overlap_sums_to_len() {
        let r = Region::new(Bytes(1000), Bytes(64));
        let s = r.page_span(Bytes(37), Bytes(555));
        let total: u64 = (s.first..s.last).map(|i| s.overlap(i).0).sum();
        assert_eq!(total, 555);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_access_panics() {
        let r = Region::new(Bytes(100), Bytes(64));
        let _ = r.page_span(Bytes(50), Bytes(51));
    }
}
