//! Per-page placement state.

/// Which physical memory currently backs a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Residency {
    /// Not yet populated — no physical backing until first touch.
    Untouched,
    /// Backed by CPU memory (LPDDR5X on GH200).
    Cpu,
    /// Backed by GPU memory (HBM3 on GH200).
    Gpu,
}

/// Mutable state of one unified-memory page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageState {
    /// Current physical placement.
    pub residency: Residency,
    /// Accumulated remote-access "passes" observed by the GPU's access
    /// counters while the page was CPU-resident. When this reaches the
    /// machine's `counter_threshold_passes` the driver migrates the page.
    pub gpu_remote_passes: f64,
    /// `cudaMemAdvise`-style preferred location: the driver will not
    /// migrate the page *away* from it (remote access instead), and
    /// migrates it *to* it eagerly on first access from that device.
    pub preferred: Option<Residency>,
}

impl PageState {
    /// A fresh, untouched page.
    pub const fn new() -> Self {
        PageState {
            residency: Residency::Untouched,
            gpu_remote_passes: 0.0,
            preferred: None,
        }
    }
}

impl Default for PageState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pages_are_untouched() {
        let p = PageState::new();
        assert_eq!(p.residency, Residency::Untouched);
        assert_eq!(p.gpu_remote_passes, 0.0);
        assert_eq!(PageState::default(), p);
    }
}
