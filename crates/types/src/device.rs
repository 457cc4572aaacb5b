//! Device identifiers.

/// A compute device in the node.
///
/// The Grace-Hopper node of the paper has exactly one host (the Grace CPU)
/// and one offload target (the Hopper GPU); the enum still carries a device
/// ordinal so multi-GPU extensions do not need an API break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The host CPU (initial device in OpenMP terms).
    Host,
    /// An offload target GPU, by ordinal.
    Gpu(u32),
}

impl Device {
    /// The single GPU of a GH200 node.
    pub const GPU0: Device = Device::Gpu(0);

    /// Whether this is the host device.
    #[inline]
    pub const fn is_host(self) -> bool {
        matches!(self, Device::Host)
    }

    /// Whether this is a GPU device.
    #[inline]
    pub const fn is_gpu(self) -> bool {
        matches!(self, Device::Gpu(_))
    }
}

impl std::fmt::Display for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Device::Host => f.write_str("host"),
            Device::Gpu(i) => write!(f, "gpu{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Device::Host.is_host());
        assert!(!Device::Host.is_gpu());
        assert!(Device::GPU0.is_gpu());
        assert!(!Device::GPU0.is_host());
    }

    #[test]
    fn display() {
        assert_eq!(Device::Host.to_string(), "host");
        assert_eq!(Device::Gpu(0).to_string(), "gpu0");
        assert_eq!(Device::Gpu(3).to_string(), "gpu3");
    }
}
