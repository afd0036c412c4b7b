//! # aderdg-perf
//!
//! The measurement substrate substituting for Intel VTune and the
//! SuperMUC-NG hardware counters used in the paper's evaluation:
//!
//! * [`flops`] — analytic flop counts classified by SIMD pack width
//!   (reproduces the instruction-mix measurement of Fig. 9),
//! * [`cachesim`] — set-associative LRU cache hierarchy at line
//!   granularity (Skylake SP geometry),
//! * [`trace`] — memory-access trace plumbing the kernels replay their
//!   sweep order through,
//! * [`stall`] — pipeline-slot memory-stall model (lower panels of
//!   Figs. 4, 6, 10),
//! * [`footprint`] — the `O(N^{d+1} m d)` vs `O(N^d m)` temporary-storage
//!   analysis of Sec. IV-A,
//! * [`roofline`] — measured-peak calibration for the "% of available
//!   performance" metric (upper panels of Figs. 4, 6, 10),
//! * [`tuner`] — autotuning substrate: scaled cache simulation and the
//!   block-pipeline cost model behind the plan-time tuner in
//!   `aderdg-core`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cachesim;
pub mod flops;
pub mod footprint;
#[allow(unsafe_code)] // target_feature dispatch of the peak calibrator
pub mod roofline;
pub mod stall;
pub mod trace;
pub mod tuner;

pub use cachesim::{CacheConfig, CacheSim, CacheStats, LevelStats, LINE_BYTES};
pub use flops::{classify_loop, classify_padded_loop, PackCounts};
pub use roofline::{fma_burn, measure_peak_gflops, PerfMeasurement};
pub use stall::MachineModel;
pub use trace::{Arena, CountingSink, RecordingSink, TraceSink};
pub use tuner::{best_candidate, BlockCostModel, Candidate, ScaledCacheSim};
