//! # ghr-types
//!
//! Foundation types shared by every crate in the Grace-Hopper reduction
//! study: element data types ([`DType`], the [`Element`]/[`Accum`] traits),
//! physical units ([`Bytes`], [`Bandwidth`], [`SimTime`], [`Frequency`]),
//! device identifiers ([`Device`]), error types ([`GhrError`]) and the
//! workspace's one seeded generator ([`SplitMix64`]).
//!
//! The crate is dependency-light by design so that simulators, the OpenMP
//! execution model and the benchmark harness can all agree on the same
//! vocabulary without pulling each other in.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod device;
pub mod dtype;
pub mod error;
pub mod json;
pub mod kernel;
pub mod pipeline;
pub mod rng;
pub mod stats;
pub mod transport;
pub mod units;
pub mod wire;

pub use device::Device;
pub use dtype::{Accum, CombineClass, DType, Element, WidthClass};
pub use error::{GhrError, Result};
pub use json::{Json, JsonError};
pub use kernel::{CombinePattern, KernelDescriptor, OutputCardinality, WorkloadKind};
pub use pipeline::{PlanSummary, RequestId, SessionStats, StagePlan, StageTiming};
pub use rng::SplitMix64;
pub use stats::{RouterStats, RouterWorkerStats};
pub use transport::{Endpoint, Listener, Stream};
pub use units::{Bandwidth, Bytes, Frequency, SimTime};
