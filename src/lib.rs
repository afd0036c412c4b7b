//! # aderdg — facade crate
//!
//! Re-exports the full workspace: tensor layouts, quadrature operators,
//! small-GEMM kernels, performance model, PDE definitions, mesh, and the
//! ADER-DG engine with its four Space-Time Predictor kernel variants
//! (reproduction of Gallard et al., IPDPS 2020).
//!
//! ## Example
//!
//! Propagate an acoustic plane wave with the paper's cache-aware SplitCK
//! predictor and check it against the exact solution:
//!
//! ```
//! use aderdg::core::{Engine, EngineConfig};
//! use aderdg::mesh::StructuredMesh;
//! use aderdg::pde::{Acoustic, AcousticPlaneWave, ExactSolution};
//!
//! let wave = AcousticPlaneWave {
//!     direction: [1.0, 0.0, 0.0],
//!     amplitude: 1.0,
//!     wavenumber: 1.0,
//!     rho: 1.0,
//!     bulk: 1.0,
//! };
//! let mesh = StructuredMesh::unit_cube(2);
//! let cfg = EngineConfig::new(4).with_kernel_name("splitck");
//! let mut engine = Engine::new(mesh, Acoustic, cfg);
//! engine.set_initial(|x, q| {
//!     wave.evaluate(x, 0.0, q);
//!     Acoustic::set_params(q, 1.0, 1.0);
//! });
//! engine.run_until(0.05);
//! assert!(engine.l2_error(&wave) < 5e-2);
//! ```
//!
//! Or configure it from a specification file, as in the paper's toolkit
//! workflow: `key = value` lines over the solver keys, merged over a
//! scenario's defaults (unwritten keys keep them). `aderdg-run --config`
//! reads the same format, plus its run-level keys:
//!
//! ```
//! use aderdg::core::scenario::{resolve, RunRequest, ScenarioRegistry};
//! use aderdg::core::KernelRegistry;
//!
//! let req = RunRequest::from_spec("order = 6\nkernel = aosoa_splitck\n").unwrap();
//! let info = ScenarioRegistry::global().resolve("acoustic_wave").unwrap().info();
//! let config = resolve(&info, &req).unwrap().config;
//! assert_eq!(config.kernel.name(), "aosoa_splitck");
//!
//! // Every kernel in the table resolves by its name.
//! for &kernel in KernelRegistry::global().kernels() {
//!     assert!(KernelRegistry::global().resolve(kernel.name()).is_some());
//! }
//! ```
//!
//! Complete workloads (PDE + initial condition + boundaries + defaults)
//! live in the scenario registry and run by name — from Rust here, or
//! from the shell via `aderdg-run --scenario <name>` (see
//! `docs/SCENARIOS.md` for the gallery):
//!
//! ```
//! use aderdg::core::scenario::{RunRequest, ScenarioRegistry};
//!
//! let scenario = ScenarioRegistry::global().resolve("acoustic_wave").unwrap();
//! let summary = scenario.run(&RunRequest::smoke()).unwrap();
//! assert!(summary.l2_error.unwrap() < 0.1);
//! ```

#![warn(missing_docs)]

// The README's Rust snippets must keep compiling against the real API:
// rustdoc collects them as doc-tests through this hidden item, so
// `cargo test` fails the moment the quickstart drifts.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use aderdg_core as core;
pub use aderdg_gemm as gemm;
pub use aderdg_mesh as mesh;
pub use aderdg_pde as pde;
pub use aderdg_perf as perf;
pub use aderdg_quadrature as quadrature;
pub use aderdg_tensor as tensor;
