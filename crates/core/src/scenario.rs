//! The scenario subsystem — named, registry-resolved workloads.
//!
//! The paper's evaluation is a fixed set of benchmark setups (plane-wave
//! convergence, the LOH.1 layered half-space, …); until now each one
//! lived as a hand-rolled `examples/*.rs` file, so running a new setup
//! meant writing Rust. A [`Scenario`] packages everything that defines a
//! workload — the PDE system and its material parameters, the initial
//! condition, the boundary configuration, default mesh/order/`t_end`,
//! optional exact solution, point sources and receiver probes — behind a
//! type-erased `run` entry point, and the [`ScenarioRegistry`] mirrors
//! [`KernelRegistry`]: scenarios are
//! registered by name and resolved by the `aderdg-run` CLI, the examples
//! and the tests alike.
//!
//! The engine-construction boilerplate lives in exactly one place — the
//! [`drive`] helper — so a scenario implementation only declares physics:
//!
//! ```
//! use aderdg_core::scenario::{RunRequest, ScenarioRegistry};
//!
//! // Resolve a registered scenario and run it on a tiny smoke grid.
//! let scenario = ScenarioRegistry::global().resolve("acoustic_wave").unwrap();
//! let summary = scenario.run(&RunRequest::smoke()).unwrap();
//! assert!(summary.steps > 0);
//! assert!(summary.l2_error.is_some()); // this scenario has an exact solution
//! ```

use crate::checkpoint::Checkpoint;
use crate::engine::{Engine, EngineConfig, PipelineMode, SteppingMode};
use crate::registry::KernelRegistry;
use crate::spec::SolverSpec;
use crate::tune::TuningMode;
use aderdg_mesh::StructuredMesh;
use aderdg_pde::{ExactSolution, LinearPde, PointSource};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
// DETERMINISM-OK: wall-clock feeds only the reported `wall_seconds`
// metadata, never the numerics or the dt sequence.
use std::time::Instant;

/// Static description of a registered scenario: identity, physics label,
/// and the defaults a [`RunRequest`] overrides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioInfo {
    /// Registry key (`aderdg-run --scenario <name>`).
    pub name: &'static str,
    /// One-line human description.
    pub title: &'static str,
    /// PDE system family: `acoustic`, `advection`, `elastic`, `maxwell`
    /// or `swe`.
    pub system: &'static str,
    /// Default scheme order.
    pub order: usize,
    /// Default mesh dimensions (cells per axis).
    pub cells: [usize; 3],
    /// Default simulated end time.
    pub t_end: f64,
    /// Default kernel registry key.
    pub kernel: &'static str,
    /// True if the scenario provides an exact solution (error norms are
    /// reported).
    pub has_exact: bool,
    /// Mesh dimensions of the `--smoke` configuration (tiny, CI-sized).
    pub smoke_cells: [usize; 3],
}

/// A scenario run failure (unknown kernel, invalid override, IO error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// Human-readable message.
    pub message: String,
}

impl ScenarioError {
    /// New error from anything displayable.
    pub fn new(message: impl fmt::Display) -> Self {
        Self {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario error: {}", self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// Per-run overrides of a scenario's defaults. Every field defaults to
/// `None` (= keep the scenario's or the solver's default), so the CLI and
/// the examples only set what the user asked for.
#[derive(Debug, Clone, Default)]
pub struct RunRequest {
    /// Scheme order override.
    pub order: Option<usize>,
    /// Kernel registry key override.
    pub kernel: Option<String>,
    /// CFL factor override.
    pub cfl: Option<f64>,
    /// SIMD width override.
    pub width: Option<aderdg_tensor::SimdWidth>,
    /// Quadrature rule override.
    pub rule: Option<aderdg_quadrature::QuadratureRule>,
    /// Predictor block size override (`Some(None)` = force `auto`).
    pub block_size: Option<Option<usize>>,
    /// Tuning-mode override.
    pub tuning: Option<TuningMode>,
    /// Pipeline override.
    pub pipeline: Option<PipelineMode>,
    /// Shard size override (`Some(None)` = force `auto`).
    pub shard_size: Option<Option<usize>>,
    /// Time-stepping strategy override (`global` | `lts`).
    pub stepping: Option<SteppingMode>,
    /// Uniform cells-per-axis override (scales all three mesh axes).
    pub cells: Option<usize>,
    /// End-time override.
    pub t_end: Option<f64>,
    /// Smoke mode: tiny grid ([`ScenarioInfo::smoke_cells`]), order
    /// clamped to ≤ 3, and a fixed handful of steps instead of `t_end`.
    pub smoke: bool,
    /// Write a nodal CSV snapshot of the final state here (via
    /// [`crate::output::write_csv`]).
    pub snapshot: Option<std::path::PathBuf>,
    /// Save a [`Checkpoint`] of the engine state here when the run
    /// completes or pauses (written atomically; a completed-run
    /// checkpoint can be resumed with a larger `t_end` to extend it).
    pub save_checkpoint: Option<PathBuf>,
    /// Resume from this checkpoint instead of the initial condition.
    /// Build the rest of the request from
    /// [`Checkpoint::to_request`] so the engine configuration matches
    /// the saved state.
    pub resume: Option<Arc<Checkpoint>>,
    /// Cooperative pause/cancel control, polled between steps (shared
    /// with a job queue, server connection or signal handler).
    pub control: Option<Arc<RunControl>>,
}

/// Why [`RunRequest::set`] rejected a value: what the key expects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetValueError {
    /// Human-readable expectation, e.g. `an integer 2..=15`.
    pub expected: &'static str,
}

/// Number of CFL steps a `--smoke` run takes (instead of targeting
/// `t_end`).
pub const SMOKE_STEPS: usize = 2;

impl RunRequest {
    /// A request that keeps every scenario default.
    pub fn new() -> Self {
        Self::default()
    }

    /// A smoke request: tiny grid, [`SMOKE_STEPS`] steps.
    pub fn smoke() -> Self {
        Self {
            smoke: true,
            ..Self::default()
        }
    }

    /// Applies one `key = value` knob by name — the single shared parser
    /// behind CLI flags, config-file entries, `aderdg-serve` `SUBMIT`
    /// commands and checkpoint-knob replay. Returns `Ok(false)` for an
    /// unknown key (the caller owns that error's wording) and
    /// [`SetValueError`] for a bad value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<bool, SetValueError> {
        fn parse<T: std::str::FromStr>(
            value: &str,
            expected: &'static str,
        ) -> Result<T, SetValueError> {
            value.parse().map_err(|_| SetValueError { expected })
        }
        let bad = |expected: &'static str| SetValueError { expected };
        match key {
            "order" => self.order = Some(parse(value, "an integer 2..=15")?),
            "kernel" => self.kernel = Some(value.to_string()),
            "cfl" => self.cfl = Some(parse(value, "a number in (0, 0.45]")?),
            "width" => {
                self.width =
                    Some(crate::spec::parse_width(value).ok_or(bad("sse|avx2|avx512|host"))?)
            }
            "rule" => {
                self.rule = Some(
                    crate::spec::parse_rule(value).ok_or(bad("gauss_legendre|gauss_lobatto"))?,
                )
            }
            "block_size" => {
                self.block_size = Some(
                    crate::spec::parse_auto_size(value).ok_or(bad("auto or an integer >= 1"))?,
                )
            }
            "tuning" => self.tuning = Some(TuningMode::parse(value).ok_or(bad("static|model"))?),
            "pipeline" => {
                self.pipeline = Some(PipelineMode::parse(value).ok_or(bad("barrier|sharded"))?)
            }
            "shard_size" => {
                self.shard_size = Some(
                    crate::spec::parse_auto_size(value).ok_or(bad("auto or an integer >= 1"))?,
                )
            }
            "stepping" => {
                self.stepping = Some(SteppingMode::parse(value).ok_or(bad("global|lts"))?)
            }
            "cells" => self.cells = Some(parse(value, "an integer >= 1")?),
            "t_end" => self.t_end = Some(parse(value, "a positive number")?),
            "smoke" => {
                self.smoke = match value {
                    "true" => true,
                    "false" => false,
                    _ => return Err(bad("true|false")),
                }
            }
            "snapshot" => self.snapshot = Some(PathBuf::from(value)),
            "save_checkpoint" => self.save_checkpoint = Some(PathBuf::from(value)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Copies every solver knob of a parsed [`SolverSpec`] into explicit
    /// overrides — the spec-file route into a scenario ("any scenario ×
    /// any `SolverSpec` knob").
    pub fn with_spec(mut self, spec: &SolverSpec) -> Self {
        self.order = Some(spec.order);
        self.kernel = Some(spec.kernel.name().to_string());
        self.cfl = Some(spec.cfl);
        self.width = Some(spec.width);
        self.rule = Some(spec.rule);
        self.block_size = Some(spec.block_size);
        self.tuning = Some(spec.tuning);
        self.pipeline = Some(spec.pipeline);
        self.shard_size = Some(spec.shard_size);
        self.stepping = Some(spec.stepping);
        self
    }
}

/// Cooperative control of an in-flight scenario run: [`drive`] polls it
/// at every step boundary, so a pause or cancel takes effect without
/// interrupting a step — the engine is always left in a
/// checkpointable state. The other `Arc` holder is typically a job
/// queue ([`crate::jobs`]), a server connection or a signal handler.
///
/// The driver also publishes live step/time progress here, so a service
/// can report status without touching the engine from another thread.
#[derive(Debug)]
pub struct RunControl {
    pause: AtomicBool,
    cancel: AtomicBool,
    /// Pause once `engine.steps` reaches this (`usize::MAX` = never) — a
    /// deterministic pause trigger for tests and scripted
    /// checkpointing.
    pause_at_step: AtomicUsize,
    steps: AtomicUsize,
    time_bits: AtomicU64,
}

impl RunControl {
    /// A control with nothing requested.
    pub fn new() -> Self {
        Self {
            pause: AtomicBool::new(false),
            cancel: AtomicBool::new(false),
            pause_at_step: AtomicUsize::new(usize::MAX),
            steps: AtomicUsize::new(0),
            time_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Asks the run to stop at the next step boundary and return a
    /// paused [`RunSummary`] (checkpointable via
    /// [`RunRequest::save_checkpoint`]).
    pub fn request_pause(&self) {
        self.pause.store(true, Ordering::Relaxed);
    }

    /// Asks the run to stop at the next step boundary and fail with a
    /// "run cancelled" [`ScenarioError`].
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Arms an automatic pause once the engine's step count reaches
    /// `step` — deterministic, unlike a racing [`request_pause`].
    ///
    /// [`request_pause`]: RunControl::request_pause
    pub fn pause_at_step(&self, step: usize) {
        self.pause_at_step.store(step, Ordering::Relaxed);
    }

    /// Whether a pause has been requested (flag or armed step trigger).
    pub fn pause_requested(&self) -> bool {
        self.pause.load(Ordering::Relaxed)
            || self.pause_at_step.load(Ordering::Relaxed) != usize::MAX
    }

    /// Whether a cancel has been requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The driver's last published `(steps, time)` progress.
    pub fn progress(&self) -> (usize, f64) {
        (
            self.steps.load(Ordering::Relaxed),
            f64::from_bits(self.time_bits.load(Ordering::Relaxed)),
        )
    }

    fn note_progress(&self, steps: usize, time: f64) {
        self.steps.store(steps, Ordering::Relaxed);
        self.time_bits.store(time.to_bits(), Ordering::Relaxed);
    }

    fn should_stop(&self, steps: usize) -> bool {
        self.cancel.load(Ordering::Relaxed)
            || self.pause.load(Ordering::Relaxed)
            || steps >= self.pause_at_step.load(Ordering::Relaxed)
    }
}

impl Default for RunControl {
    fn default() -> Self {
        Self::new()
    }
}

/// A `(time, value)` series point recorded at a run checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Simulated time of the checkpoint.
    pub t: f64,
    /// Steps taken so far.
    pub steps: usize,
    /// Quadrature-weighted L2 norm of the evolved quantities (discrete
    /// energy proxy).
    pub l2_norm: f64,
    /// L2 error against the exact solution, where one exists.
    pub l2_error: Option<f64>,
}

/// A receiver probe's recorded seismogram, carried out of the type-erased
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiverTrace {
    /// Probe position.
    pub position: [f64; 3],
    /// `(time, evolved quantities)` samples, one per step.
    pub records: Vec<(f64, Vec<f64>)>,
}

/// What a scenario run produced — everything the CLI prints and the
/// examples assert on.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Scenario registry key.
    pub scenario: &'static str,
    /// PDE system family.
    pub system: &'static str,
    /// Scheme order the run used.
    pub order: usize,
    /// Mesh dimensions the run used.
    pub cells: [usize; 3],
    /// Total cell count.
    pub num_cells: usize,
    /// Kernel registry key the run used.
    pub kernel: &'static str,
    /// Step pipeline the run used.
    pub pipeline: PipelineMode,
    /// Time-stepping strategy the run used.
    pub stepping: SteppingMode,
    /// Resolved predictor block size (tuner pick or override).
    pub block_size: usize,
    /// Chosen GEMM backend (from the tune report).
    pub backend: &'static str,
    /// One-line tune-report summary (mode, block size vs static
    /// heuristic, backend).
    pub tune: String,
    /// Steps taken.
    pub steps: usize,
    /// Simulated end time actually reached.
    pub t_end: f64,
    /// True if the run stopped early on a [`RunControl`] pause request
    /// (the state was checkpointable at that boundary; `t_end` is where
    /// it paused, not the target).
    pub paused: bool,
    /// Wall-clock seconds spent stepping (excludes setup and the
    /// per-checkpoint norm/error diagnostics).
    pub wall_seconds: f64,
    /// Throughput: cell updates per second.
    pub cell_updates_per_second: f64,
    /// Final L2 norm of the evolved quantities.
    pub l2_norm: f64,
    /// Final L2 error against the exact solution, where one exists.
    pub l2_error: Option<f64>,
    /// Mesh integrals of every evolved quantity at `t = 0` (conservation
    /// baselines).
    pub integrals_initial: Vec<f64>,
    /// Mesh integrals of every evolved quantity at the end of the run.
    pub integrals_final: Vec<f64>,
    /// Checkpoint series (always includes `t = 0` and the final time).
    pub series: Vec<SeriesPoint>,
    /// Recorded receiver probes (empty for most scenarios).
    pub receivers: Vec<ReceiverTrace>,
}

/// A named, runnable workload. Implementations declare their physics in
/// [`Scenario::run`] by building a [`ScenarioParts`] and handing it to
/// [`drive`]; everything else (engine construction, tuning, stepping,
/// norms, snapshots) is shared.
///
/// Registering a new scenario is one `impl Scenario` plus one
/// [`ScenarioRegistry::register`] call — the CLI (`aderdg-run --list`),
/// the smoke tests and the docs gate pick it up automatically.
///
/// ```
/// use aderdg_core::scenario::{
///     drive, RunRequest, RunSummary, Scenario, ScenarioError, ScenarioInfo, ScenarioParts,
/// };
/// use aderdg_mesh::StructuredMesh;
/// use aderdg_pde::{AdvectedSine, AdvectionSystem, ExactSolution};
///
/// struct Tiny;
/// impl Scenario for Tiny {
///     fn info(&self) -> ScenarioInfo {
///         ScenarioInfo {
///             name: "tiny",
///             title: "one advected sine",
///             system: "advection",
///             order: 3,
///             cells: [2, 2, 2],
///             t_end: 0.05,
///             kernel: "splitck",
///             has_exact: true,
///             smoke_cells: [2, 2, 2],
///         }
///     }
///     fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError> {
///         let exact = AdvectedSine { n_vars: 1, velocity: [1.0, 0.0, 0.0], wave: [1.0, 0.0, 0.0] };
///         drive(
///             &self.info(),
///             req,
///             |dims| StructuredMesh::unit_cube(dims[0]),
///             AdvectionSystem::new(1, [1.0, 0.0, 0.0]),
///             ScenarioParts::new(|x, q, _m| exact.evaluate(x, 0.0, q)).with_exact(&exact),
///         )
///     }
/// }
///
/// let summary = Tiny.run(&RunRequest::smoke()).unwrap();
/// assert_eq!(summary.scenario, "tiny");
/// ```
pub trait Scenario: Send + Sync {
    /// The scenario's static description.
    fn info(&self) -> ScenarioInfo;

    /// Builds the engine from the merged defaults + overrides, runs to
    /// the end time (or [`SMOKE_STEPS`] steps in smoke mode) and reports.
    fn run(&self, req: &RunRequest) -> Result<RunSummary, ScenarioError>;
}

/// A named collection of [`Scenario`] implementations, mirroring
/// [`KernelRegistry`].
pub struct ScenarioRegistry {
    scenarios: RwLock<Vec<&'static dyn Scenario>>,
}

impl ScenarioRegistry {
    /// Creates an empty registry (tests, custom scenario sets).
    pub fn new() -> Self {
        Self {
            scenarios: RwLock::new(Vec::new()),
        }
    }

    /// The process-wide registry, seeded with the built-in gallery
    /// (see [`crate::scenarios`]).
    pub fn global() -> &'static ScenarioRegistry {
        static GLOBAL: OnceLock<ScenarioRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = ScenarioRegistry::new();
            crate::scenarios::register_builtin(&registry);
            registry
        })
    }

    /// Registers a scenario.
    ///
    /// # Panics
    /// If a scenario with the same name is already registered — names are
    /// the resolution key, so a collision is a programming error.
    pub fn register(&self, scenario: &'static dyn Scenario) {
        // PANIC-OK: registry poisoning means a register/resolve call
        // panicked; no sane recovery exists (×4 in this impl).
        let mut scenarios = self.scenarios.write().expect("scenario registry poisoned");
        assert!(
            !scenarios
                .iter()
                .any(|s| s.info().name == scenario.info().name),
            "scenario `{}` registered twice",
            scenario.info().name
        );
        scenarios.push(scenario);
    }

    /// Resolves a scenario by its registry key.
    pub fn resolve(&self, name: &str) -> Option<&'static dyn Scenario> {
        self.scenarios
            .read()
            // PANIC-OK: poisoned registry (see `register`).
            .expect("scenario registry poisoned")
            .iter()
            .copied()
            .find(|s| s.info().name == name)
    }

    /// Every registered scenario, in registration order.
    pub fn scenarios(&self) -> Vec<&'static dyn Scenario> {
        self.scenarios
            .read()
            // PANIC-OK: poisoned registry (see `register`).
            .expect("scenario registry poisoned")
            .clone()
    }

    /// Registry keys of every registered scenario, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.scenarios
            .read()
            // PANIC-OK: poisoned registry (see `register`).
            .expect("scenario registry poisoned")
            .iter()
            .map(|s| s.info().name)
            .collect()
    }
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioRegistry")
            .field("scenarios", &self.names())
            .finish()
    }
}

/// The merged outcome of scenario defaults + [`RunRequest`] overrides.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// Ready-to-use engine configuration.
    pub config: EngineConfig,
    /// Mesh dimensions.
    pub dims: [usize; 3],
    /// Target end time (ignored in smoke mode).
    pub t_end: f64,
    /// `Some(steps)` when the run is step-bounded (smoke mode).
    pub fixed_steps: Option<usize>,
}

/// Merges a scenario's defaults with a request's overrides into an
/// [`EngineConfig`] + mesh dimensions, validating the overrides the same
/// way [`SolverSpec`] validates a spec file.
pub fn resolve(info: &ScenarioInfo, req: &RunRequest) -> Result<Resolved, ScenarioError> {
    let mut order = req.order.unwrap_or(info.order);
    let kernel_name: &str = req.kernel.as_deref().unwrap_or(info.kernel);
    let kernel = KernelRegistry::global()
        .resolve(kernel_name)
        .ok_or_else(|| {
            ScenarioError::new(format!(
                "unknown kernel `{kernel_name}` ({})",
                KernelRegistry::global().names().join("|")
            ))
        })?;
    if !(2..=15).contains(&order) {
        return Err(ScenarioError::new(format!("order {order} outside 2..=15")));
    }
    let cfl = req.cfl.unwrap_or(0.4);
    if !(cfl > 0.0 && cfl <= 0.45) {
        return Err(ScenarioError::new(format!(
            "cfl {cfl} outside (0, 0.45] (empirical 3-D stability limit)"
        )));
    }
    let mut dims = info.cells;
    if let Some(c) = req.cells {
        if c == 0 {
            return Err(ScenarioError::new("cells must be at least 1"));
        }
        dims = [c; 3];
    }
    let mut fixed_steps = None;
    if req.smoke {
        // Tiny and fast, whatever the defaults say: CI runs every
        // registered scenario through this path on both pipelines.
        // Explicit run-shape overrides would be silently discarded here,
        // so they are conflicts, not no-ops.
        if req.cells.is_some() {
            return Err(ScenarioError::new(
                "--cells conflicts with --smoke (smoke runs on the scenario's fixed smoke grid)",
            ));
        }
        if req.t_end.is_some() {
            return Err(ScenarioError::new(
                "--t-end conflicts with --smoke (smoke runs a fixed number of steps)",
            ));
        }
        if req.order.is_some_and(|o| o > 3) {
            return Err(ScenarioError::new(format!(
                "--order {order} conflicts with --smoke (smoke clamps the order to <= 3)"
            )));
        }
        order = order.min(3);
        dims = info.smoke_cells;
        fixed_steps = Some(SMOKE_STEPS);
    }
    let mut config = EngineConfig::new(order).with_kernel(kernel);
    config.cfl = cfl;
    if let Some(w) = req.width {
        config.width = Some(w);
    }
    if let Some(r) = req.rule {
        config.rule = r;
    }
    if let Some(b) = req.block_size {
        if b == Some(0) {
            return Err(ScenarioError::new(
                "block_size must be at least 1 (or auto)",
            ));
        }
        config.block_size = b;
    }
    if let Some(t) = req.tuning {
        config.tuning = t;
    }
    if let Some(p) = req.pipeline {
        config.pipeline = p;
    }
    if let Some(s) = req.shard_size {
        if s == Some(0) {
            return Err(ScenarioError::new(
                "shard_size must be at least 1 (or auto)",
            ));
        }
        config.shard_size = s;
    }
    if let Some(s) = req.stepping {
        config.stepping = s;
    }
    let t_end = req.t_end.unwrap_or(info.t_end);
    if !t_end.is_finite() || t_end <= 0.0 {
        return Err(ScenarioError::new(format!(
            "t_end {t_end} must be positive"
        )));
    }
    Ok(Resolved {
        config,
        dims,
        t_end,
        fixed_steps,
    })
}

/// The physics of a scenario, handed to [`drive`]: initial condition,
/// optional exact solution, point sources and receiver probes.
///
/// The initial-condition closure receives the node position, the `m`
/// stored quantities to fill (evolved + parameters) and the mesh — so
/// material assignment can depend on cell geometry (e.g. the LOH.1
/// layering).
pub struct ScenarioParts<'a, F>
where
    F: Fn([f64; 3], &mut [f64], &StructuredMesh) + Sync,
{
    /// Fills all stored quantities of a node.
    pub init: F,
    /// Exact solution for error norms, if one exists.
    pub exact: Option<&'a dyn ExactSolution>,
    /// Point sources to register.
    pub sources: Vec<PointSource>,
    /// Receiver probe positions.
    pub receivers: Vec<[f64; 3]>,
}

impl<F> std::fmt::Debug for ScenarioParts<'_, F>
where
    F: Fn([f64; 3], &mut [f64], &StructuredMesh) + Sync,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioParts")
            .field("has_exact", &self.exact.is_some())
            .field("sources", &self.sources.len())
            .field("receivers", &self.receivers)
            .finish_non_exhaustive()
    }
}

impl<'a, F> ScenarioParts<'a, F>
where
    F: Fn([f64; 3], &mut [f64], &StructuredMesh) + Sync,
{
    /// Parts with just an initial condition.
    pub fn new(init: F) -> Self {
        Self {
            init,
            exact: None,
            sources: Vec::new(),
            receivers: Vec::new(),
        }
    }

    /// Attaches an exact solution (builder style).
    pub fn with_exact(mut self, exact: &'a dyn ExactSolution) -> Self {
        self.exact = Some(exact);
        self
    }

    /// Attaches point sources (builder style).
    pub fn with_sources(mut self, sources: Vec<PointSource>) -> Self {
        self.sources = sources;
        self
    }

    /// Attaches receiver probes (builder style).
    pub fn with_receivers(mut self, receivers: Vec<[f64; 3]>) -> Self {
        self.receivers = receivers;
        self
    }
}

/// Number of checkpoints (beyond `t = 0`) recorded in
/// [`RunSummary::series`] for a time-bounded run.
pub const SERIES_CHECKPOINTS: usize = 4;

/// The one engine-construction path every scenario (and, through the
/// registry, every example) goes through: builds the mesh via `mesh_of`
/// from the resolved dimensions, constructs the engine, applies the
/// initial condition, registers sources and receivers, steps to the end
/// time (recording checkpoints) and assembles the [`RunSummary`].
pub fn drive<P, F, M>(
    info: &ScenarioInfo,
    req: &RunRequest,
    mesh_of: M,
    pde: P,
    parts: ScenarioParts<'_, F>,
) -> Result<RunSummary, ScenarioError>
where
    P: LinearPde,
    F: Fn([f64; 3], &mut [f64], &StructuredMesh) + Sync,
    M: FnOnce([usize; 3]) -> StructuredMesh,
{
    let r = resolve(info, req)?;
    let mesh = mesh_of(r.dims);
    let dims = mesh.dims;
    let num_cells = mesh.num_cells();
    let mesh_for_init = mesh.clone();
    let mut engine = Engine::new(mesh, pde, r.config);
    let init = &parts.init;
    engine.set_initial(|x, q| init(x, q, &mesh_for_init));
    for source in parts.sources {
        engine.add_point_source(source);
    }
    for &position in &parts.receivers {
        engine.add_receiver(position);
    }

    let l2_error_of = |e: &Engine<P>| parts.exact.map(|ex| e.l2_error(ex));
    // Resume: restore the saved DOFs/clock/records into the freshly
    // built engine and carry the checkpoint's series and conservation
    // baselines forward; otherwise record the t = 0 point.
    let (integrals_initial, mut series) = match &req.resume {
        Some(ck) => {
            if ck.scenario != info.name {
                return Err(ScenarioError::new(format!(
                    "checkpoint is for scenario `{}`, not `{}`",
                    ck.scenario, info.name
                )));
            }
            engine
                .restore_state(&ck.engine)
                .map_err(ScenarioError::new)?;
            (ck.integrals_initial.clone(), ck.series.clone())
        }
        None => {
            let integrals = engine.integrals();
            let series = vec![SeriesPoint {
                t: engine.time,
                steps: 0,
                l2_norm: engine.l2_norm(),
                l2_error: l2_error_of(&engine),
            }];
            (integrals, series)
        }
    };
    let steps_before = engine.steps;

    let ctl = req.control.as_deref();
    let keep_going = |e: &Engine<P>| match ctl {
        None => true,
        Some(c) => {
            c.note_progress(e.steps, e.time);
            !c.should_stop(e.steps)
        }
    };

    // Wall time accumulates around the stepping only: the per-checkpoint
    // norm/error evaluations are diagnostics, and including them would
    // deflate `cell_updates_per_second` — the throughput number kernels
    // and pipelines are compared by.
    let mut wall_seconds = 0.0;
    let mut paused = false;
    match r.fixed_steps {
        Some(steps) => {
            // `while` (not `for`): a resumed run continues from the
            // restored step count.
            while engine.steps < steps {
                if !keep_going(&engine) {
                    paused = true;
                    break;
                }
                let dt = engine.max_dt();
                if !(dt.is_finite() && dt > 0.0) {
                    return Err(ScenarioError::new(format!("degenerate time step {dt}")));
                }
                // DETERMINISM-OK: timing is reporting-only metadata.
                let wall = Instant::now();
                engine.step(dt);
                wall_seconds += wall.elapsed().as_secs_f64();
                series.push(SeriesPoint {
                    t: engine.time,
                    steps: engine.steps,
                    l2_norm: engine.l2_norm(),
                    l2_error: l2_error_of(&engine),
                });
            }
        }
        None => {
            for k in 1..=SERIES_CHECKPOINTS {
                let target = r.t_end * k as f64 / SERIES_CHECKPOINTS as f64;
                if engine.time >= target - target.abs() * 1e-12 {
                    // A resumed run is already past this checkpoint; its
                    // series point came with the checkpoint.
                    continue;
                }
                // DETERMINISM-OK: timing is reporting-only metadata.
                let wall = Instant::now();
                // The control check lives inside the step loop against
                // the *real* target, so the dt sequence — and with it
                // every bit of the state — matches an uninterrupted run.
                let reached = engine
                    .advance_until(target, &keep_going)
                    .map_err(ScenarioError::new)?;
                wall_seconds += wall.elapsed().as_secs_f64();
                if !reached {
                    paused = true;
                    break;
                }
                series.push(SeriesPoint {
                    t: engine.time,
                    steps: engine.steps,
                    l2_norm: engine.l2_norm(),
                    l2_error: l2_error_of(&engine),
                });
            }
        }
    }
    if paused {
        if let Some(c) = ctl {
            if c.cancel_requested() {
                return Err(ScenarioError::new("run cancelled"));
            }
        }
    }

    if let Some(path) = &req.snapshot {
        crate::output::write_atomic(path, |f| crate::output::write_csv(&engine, f))
            .map_err(|e| ScenarioError::new(format!("cannot write {}: {e}", path.display())))?;
    }
    if let Some(path) = &req.save_checkpoint {
        let ck = Checkpoint {
            scenario: info.name.to_string(),
            smoke: req.smoke,
            knobs: checkpoint_knobs(&engine, &r, req),
            integrals_initial: integrals_initial.clone(),
            series: series.clone(),
            engine: engine.save_state(),
        };
        ck.save(path).map_err(ScenarioError::new)?;
    }

    let steps_run = engine.steps - steps_before;
    let tune = engine.tune_report();
    // PANIC-OK: internal invariant — the series is seeded with the t=0
    // point before the step loop.
    let last = series.last().expect("series has the initial point");
    Ok(RunSummary {
        scenario: info.name,
        system: info.system,
        order: engine.config.order,
        cells: dims,
        num_cells,
        kernel: engine.config.kernel.name(),
        pipeline: engine.config.pipeline,
        stepping: engine.config.stepping,
        block_size: engine.block_size(),
        backend: tune.backend,
        tune: format!(
            "mode={:?} block_size={} (static {}) gemm={}",
            tune.mode, tune.block_size, tune.static_block_size, tune.backend
        ),
        steps: engine.steps,
        t_end: engine.time,
        paused,
        wall_seconds,
        cell_updates_per_second: if wall_seconds > 0.0 {
            (num_cells * steps_run) as f64 / wall_seconds
        } else {
            0.0
        },
        l2_norm: last.l2_norm,
        l2_error: last.l2_error,
        integrals_initial,
        integrals_final: engine.integrals(),
        series,
        receivers: engine
            .receivers
            .iter()
            .map(|r| ReceiverTrace {
                position: r.position,
                records: r.records.clone(),
            })
            .collect(),
    })
}

/// The fully resolved knob set a checkpoint stores: replayed through
/// [`RunRequest::set`], these rebuild the exact engine configuration —
/// the tuner's block-size pick is pinned as an explicit integer, the
/// pipeline and stepping mode are pinned against a changed default
/// between save and resume, and the SIMD width is pinned so the padded
/// state layout survives a move to a different host.
fn checkpoint_knobs<P: LinearPde>(
    engine: &Engine<P>,
    r: &Resolved,
    req: &RunRequest,
) -> Vec<(String, String)> {
    let c = &engine.config;
    let width = c.width.unwrap_or(aderdg_tensor::SimdWidth::host());
    let mut knobs: Vec<(String, String)> = vec![
        ("order".into(), c.order.to_string()),
        ("kernel".into(), c.kernel.name().to_string()),
        ("cfl".into(), c.cfl.to_string()),
        ("width".into(), crate::spec::width_name(width).into()),
        ("rule".into(), crate::spec::rule_name(c.rule).into()),
        ("block_size".into(), engine.block_size().to_string()),
        ("tuning".into(), c.tuning.as_str().into()),
        ("pipeline".into(), c.pipeline.as_str().into()),
        ("stepping".into(), c.stepping.as_str().into()),
    ];
    if let Some(s) = c.shard_size {
        knobs.push(("shard_size".into(), s.to_string()));
    }
    if let Some(cells) = req.cells {
        knobs.push(("cells".into(), cells.to_string()));
    }
    if !req.smoke {
        // Smoke runs are step-bounded; `t_end` would conflict at resume.
        knobs.push(("t_end".into(), r.t_end.to_string()));
    }
    knobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> ScenarioInfo {
        ScenarioInfo {
            name: "t",
            title: "t",
            system: "acoustic",
            order: 4,
            cells: [3, 3, 3],
            t_end: 0.5,
            kernel: "splitck",
            has_exact: false,
            smoke_cells: [2, 2, 2],
        }
    }

    #[test]
    fn resolve_merges_defaults_and_overrides() {
        let r = resolve(&info(), &RunRequest::new()).unwrap();
        assert_eq!(r.config.order, 4);
        assert_eq!(r.config.kernel.name(), "splitck");
        assert_eq!(r.dims, [3, 3, 3]);
        assert_eq!(r.t_end, 0.5);
        assert!(r.fixed_steps.is_none());

        let req = RunRequest {
            order: Some(6),
            kernel: Some("generic".into()),
            cells: Some(5),
            t_end: Some(0.1),
            ..RunRequest::new()
        };
        let r = resolve(&info(), &req).unwrap();
        assert_eq!(r.config.order, 6);
        assert_eq!(r.config.kernel.name(), "generic");
        assert_eq!(r.dims, [5, 5, 5]);
        assert_eq!(r.t_end, 0.1);
    }

    #[test]
    fn resolve_smoke_uses_the_smoke_grid_and_clamps_order() {
        let r = resolve(&info(), &RunRequest::smoke()).unwrap();
        assert_eq!(r.config.order, 3); // default order 4 clamped
        assert_eq!(r.dims, [2, 2, 2]);
        assert_eq!(r.fixed_steps, Some(SMOKE_STEPS));
        // An explicit low order is honored.
        let req = RunRequest {
            order: Some(2),
            ..RunRequest::smoke()
        };
        assert_eq!(resolve(&info(), &req).unwrap().config.order, 2);
    }

    #[test]
    fn resolve_smoke_rejects_conflicting_run_shape_overrides() {
        for (req, needle) in [
            (
                RunRequest {
                    cells: Some(4),
                    ..RunRequest::smoke()
                },
                "--cells conflicts",
            ),
            (
                RunRequest {
                    t_end: Some(0.5),
                    ..RunRequest::smoke()
                },
                "--t-end conflicts",
            ),
            (
                RunRequest {
                    order: Some(5),
                    ..RunRequest::smoke()
                },
                "--order 5 conflicts",
            ),
        ] {
            let e = resolve(&info(), &req).unwrap_err();
            assert!(e.message.contains(needle), "{req:?}: {e}");
        }
    }

    #[test]
    fn resolve_rejects_invalid_overrides() {
        for req in [
            RunRequest {
                kernel: Some("turbo".into()),
                ..RunRequest::new()
            },
            RunRequest {
                order: Some(1),
                ..RunRequest::new()
            },
            RunRequest {
                cfl: Some(0.9),
                ..RunRequest::new()
            },
            RunRequest {
                cells: Some(0),
                ..RunRequest::new()
            },
            RunRequest {
                t_end: Some(-1.0),
                ..RunRequest::new()
            },
            RunRequest {
                block_size: Some(Some(0)),
                ..RunRequest::new()
            },
            RunRequest {
                shard_size: Some(Some(0)),
                ..RunRequest::new()
            },
        ] {
            assert!(resolve(&info(), &req).is_err(), "{req:?}");
        }
    }

    #[test]
    fn with_spec_copies_every_solver_knob() {
        let spec =
            SolverSpec::parse("order = 6\nkernel = aosoa_splitck\ncfl = 0.3\nblock_size = 4\n")
                .unwrap();
        let req = RunRequest::new().with_spec(&spec);
        let r = resolve(&info(), &req).unwrap();
        assert_eq!(r.config.order, 6);
        assert_eq!(r.config.kernel.name(), "aosoa_splitck");
        assert_eq!(r.config.cfl, 0.3);
        assert_eq!(r.config.block_size, Some(4));
    }

    #[test]
    fn registry_register_resolve_names() {
        struct S;
        impl Scenario for S {
            fn info(&self) -> ScenarioInfo {
                super::tests::info()
            }
            fn run(&self, _req: &RunRequest) -> Result<RunSummary, ScenarioError> {
                Err(ScenarioError::new("unimplemented"))
            }
        }
        static SCEN: S = S;
        let registry = ScenarioRegistry::new();
        assert!(registry.scenarios().is_empty());
        registry.register(&SCEN);
        assert_eq!(registry.names(), vec!["t"]);
        assert!(registry.resolve("t").is_some());
        assert!(registry.resolve("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_scenario_registration_panics() {
        struct S;
        impl Scenario for S {
            fn info(&self) -> ScenarioInfo {
                super::tests::info()
            }
            fn run(&self, _req: &RunRequest) -> Result<RunSummary, ScenarioError> {
                Err(ScenarioError::new("unimplemented"))
            }
        }
        static SCEN: S = S;
        let registry = ScenarioRegistry::new();
        registry.register(&SCEN);
        registry.register(&SCEN);
    }
}
