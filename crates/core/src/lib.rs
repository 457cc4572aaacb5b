//! # ghr-core
//!
//! The paper's contribution, as a library: baseline and optimized
//! OpenMP-offloaded sum reductions, the four evaluation cases, and the
//! experiment drivers that regenerate every table and figure.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`case`] | the C1–C4 case definitions (Section III.B) |
//! | [`reduction`] | baseline (Listing 2) and optimized (Listing 5) kernels |
//! | [`sweep`] | Fig. 1a–1d — GB/s vs (teams, V) on the GPU |
//! | [`mod@table1`] | Table 1 — baseline vs optimized, speedup, efficiency |
//! | [`autotune`] | the "pick the saturating (teams, V)" step of Section IV |
//! | [`corun`] | Figs. 2a/2b/3/4a/4b/5 — CPU+GPU co-execution in UM mode |
//! | [`request`] | declarative experiment requests and typed responses |
//! | [`plan`] | lowering a request into a deduplicated DAG of work items |
//! | [`exec`] | walking a plan, stage by stage, with per-stage accounting |
//! | [`engine`] | parallel, memoized evaluation of every grid above |
//! | [`verify`] | result verification against the serial reference |
//! | [`report`] | markdown/CSV rendering shared by the drivers and the CLI |
//!
//! Every driver has two modes: *timing* at the paper's full scale (4 GB
//! arrays priced by the analytic models — instant) and *functional* at a
//! configurable smaller scale (really computing the sums for
//! verification). See DESIGN.md for the substitution rationale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accuracy;
pub mod autotune;
pub mod case;
pub mod corun;
pub mod engine;
pub mod exec;
pub mod explain;
pub mod kernels;
pub mod plan;
pub mod plot;
pub mod pricing;
pub mod reduction;
pub mod report;
pub mod request;
pub mod sched;
pub mod store;
pub mod study;
pub mod sweep;
pub mod table1;
pub mod verify;
pub mod whatif;
pub mod workload;

pub use case::Case;
pub use corun::{AllocSite, CorunConfig, CorunSeries};
pub use engine::{Engine, EngineStats, Responded, ResponseSource};
pub use exec::Executor;
pub use kernels::{Placement, WorkloadPoint, WorkloadResult};
pub use plan::{Plan, Planner, Stage, StageKind, WorkItem};
pub use reduction::{KernelKind, ReductionSpec};
pub use request::{Request, Response};
pub use store::{resolve_cache_dir, PersistentStore};
pub use study::{run_full_study, CorunStudy, StudySummary};
pub use sweep::{GpuSweep, SweepMode, SweepResult};
pub use table1::{table1, Table1, Table1Row};
