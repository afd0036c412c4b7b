//! # aderdg-core
//!
//! The paper's primary contribution: a linear ADER-DG engine whose
//! Space-Time Predictor exists in four variants of increasing optimization
//! (generic scalar, Loop-over-GEMM, dimension-split Cauchy-Kowalewsky, and
//! AoSoA SplitCK with vectorized user functions), plus the surrounding
//! scheme — face projection, Rusanov Riemann solver, corrector step, CFL
//! time stepping and a persistent work-stealing worker pool ([`par`])
//! driving the cell loops and the sharded task graph.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod block;
pub mod checkpoint;
pub mod corrector;
pub mod engine;
pub mod faceproj;
pub mod jobs;
pub mod kernels;
pub mod mix;
pub mod output;
pub mod par;
pub mod plan;
mod pool;
pub mod registry;
pub mod report;
pub mod riemann;
pub mod scenario;
pub mod scenarios;
pub mod spec;
pub mod traces;
pub mod tune;

pub use block::{BlockInputs, CellBlock};
pub use checkpoint::{Checkpoint, CheckpointError, EngineState};
pub use engine::{
    auto_block_size, auto_shard_size, DegenerateDt, Engine, EngineConfig, PipelineMode, Receiver,
    SteppingMode,
};
pub use jobs::{Job, JobQueue, JobStatus};
pub use kernels::{StpInputs, StpKernel, StpOutputs, StpScratch};
pub use plan::{CellSource, KernelVariant, StpConfig, StpPlan};
pub use registry::KernelRegistry;
pub use riemann::{boundary_face, rusanov_face, BoundaryScratch};
pub use scenario::{
    RunControl, RunRequest, RunSummary, Scenario, ScenarioError, ScenarioInfo, ScenarioRegistry,
};
pub use spec::SpecError;
pub use tune::{BlockCandidate, TuneReport, TuningMode};
