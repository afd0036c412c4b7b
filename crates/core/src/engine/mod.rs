//! The ADER-DG engine: mesh-level orchestration of predictor, Riemann
//! solve and corrector (the Rust counterpart of the paper's TBB task
//! parallelism within one MPI rank).
//!
//! [`Engine::step`] runs **one task-graph driver** in three layers:
//!
//! * **plan** — the mesh is partitioned into contiguous cell shards
//!   ([`aderdg_mesh::ShardPlan`]) and one macro cycle is unrolled into a
//!   static task graph ([`aderdg_mesh::LtsGraph`]). Under
//!   [`SteppingMode::Global`] every cell sits in one cluster (flat plan,
//!   built once in [`Engine::new`]); under [`SteppingMode::Lts`] the
//!   clustering is derived lazily from the state's per-cell stable dt.
//! * **tasks** — per shard and sub-window: predictor + in-place volume
//!   update → once-per-face flux sweep → six face lifts per cell. Each
//!   interior face's Rusanov flux is solved **exactly once** per due slot
//!   (eq. 5) into a face-indexed buffer; between the tasks each cell keeps
//!   only its twelve face traces.
//! * **driver** — the tasks run on a dependency scheduler
//!   ([`par::run_graph_init`]) with no global predictor→corrector
//!   barrier: a shard's face sweep starts as soon as its own and its
//!   neighbouring shards' predictors finish. Global stepping is the
//!   one-cluster macro cycle (`Lmax = 0`: one slot, one task triple per
//!   shard).
//!
//! The code follows the same split. This file holds the configuration
//! types, [`Engine`] and its public API; `plan` builds, caches and drops
//! the graph plan (shard partition, task graph, face-flux storage);
//! `tasks` is the step body — per-worker scratch and the predict / flux
//! / apply functions the scheduler runs; `lts` holds what only a
//! multi-level plan needs (sub-window face traces, their worker temps,
//! the per-cluster clocks).

mod lts;
mod plan;
mod tasks;

use crate::kernels::{FaceTraces, StpKernel};
use crate::par;
use crate::plan::{CellSource, KernelVariant, StpConfig, StpPlan};
use crate::registry::KernelRegistry;
use crate::tune::{tune_plan, TuneReport, TuningMode};
use aderdg_mesh::{ShardPlan, StructuredMesh};
use aderdg_pde::{LinearPde, PointSource};
use aderdg_tensor::AlignedVec;
use plan::GraphPlan;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The step pipeline: the task-graph driver is the only one.
///
/// Kept only because the frozen `benchmark/` harness names it; nothing
/// in the engine reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// The face-centric shard task graph [`Engine::step`] runs.
    Sharded,
}

/// Which time-stepping strategy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteppingMode {
    /// Every cell advances at the one global CFL-stable dt — the
    /// one-cluster macro cycle of the graph driver. The default:
    /// simplest, and the reference the multi-cluster runs are pinned
    /// against.
    Global,
    /// Clustered local time stepping: cells are bucketed into
    /// power-of-two dt-clusters ([`aderdg_mesh::assign_levels`]) and
    /// one [`Engine::step`] advances a whole **macro cycle** on the
    /// shard task graph — coarse clusters take fewer, longer sub-steps.
    /// `max_dt` returns the macro step (`2^Lmax` × the global stable
    /// dt), so drive loops are unchanged. See `docs/LTS.md`.
    Lts,
}

impl SteppingMode {
    /// Parses a specification-file value (`global` | `lts`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "global" => Some(Self::Global),
            "lts" => Some(Self::Lts),
            _ => None,
        }
    }

    /// The specification-file spelling (inverse of
    /// [`SteppingMode::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Global => "global",
            Self::Lts => "lts",
        }
    }
}

/// A degenerate CFL step: [`Engine::max_dt`] came back zero, negative or
/// non-finite (an infinite wavespeed, a NaN in the state). Returned by
/// [`Engine::advance_until`]; [`Engine::run_until`] panics with the same
/// message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegenerateDt {
    /// The offending time step.
    pub dt: f64,
}

impl std::fmt::Display for DegenerateDt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degenerate time step {}", self.dt)
    }
}

impl std::error::Error for DegenerateDt {}

/// Engine-level configuration.
///
/// Every knob has a sensible default from [`EngineConfig::new`]; the
/// builder methods override them individually. When to change what:
///
/// * **`order`** — accuracy vs cost. Each increment multiplies the
///   per-cell work roughly by `(N+1)⁴/N⁴` but raises the convergence
///   rate; the paper evaluates orders 2–12. Raise it (and coarsen the
///   mesh) for smooth solutions; lower it for discontinuous data.
/// * **`kernel`** — which Space-Time Predictor variant runs; resolved
///   from the [`KernelRegistry`]. `splitck` (the default) is the best
///   all-round cache-aware variant; `aosoa_splitck` wins once the
///   vectorized user functions dominate (high order, many quantities);
///   `generic` is the readable reference, useful for debugging.
/// * **`cfl`** — time-step safety factor (≤ 0.45 empirically for the
///   3-D scheme). Lower it only if a run blows up (strongly varying
///   material parameters); raising it risks instability.
/// * **`width`** — the SIMD level ([`Isa`](aderdg_tensor::Isa)): the
///   padding of every tensor and the cap of the GEMM tile and lane
///   kernels. Leave at `None` ([`Isa::detect`](aderdg_tensor::Isa::detect))
///   except to reproduce the paper's narrower-build comparisons (e.g. an
///   AVX2 build on an AVX-512 machine, Fig. 4).
/// * **`block_size`** — cells per predictor block. `None` (default)
///   leaves the choice to the tuner (see `tuning`): big blocks amortize
///   operator loads (the win of the batched pipeline), but a block that
///   outgrows L2 pays more in re-fetched state than it saves. Set it
///   explicitly to `1` to force the per-cell path, or to sweep the
///   step time over block sizes (`aderdg-run --block-size`).
/// * **`tuning`** — how the block size is picked when not overridden.
///   `model` (default) replays the kernel's block access pattern through
///   a cache simulator and takes the cheapest predicted candidate —
///   deterministic, no timing involved. `static` reproduces the original
///   [`auto_block_size`] footprint heuristic (hermetic CI baseline).
///   The GEMM kernel is not tuned: every mode runs
///   the widest ISA tile the host supports at or below `width`, so what
///   varies across hosts is that tile, never a timing. The decision is
///   recorded in [`Engine::tune_report`].
/// * **`stepping`** — `global` (default) advances every cell at the one
///   CFL-stable dt: the one-cluster macro cycle of the graph driver.
///   `lts` clusters cells by their own stable dt and sub-cycles the fine
///   clusters on the same driver; it pays past ~2:1 dt contrast (see
///   `docs/LTS.md`). The driver's shard size is derived from the mesh
///   and the block size ([`auto_shard_size`]), never configured.
#[derive(Clone, Copy)]
pub struct EngineConfig {
    /// STP kernel to run, resolved from the [`KernelRegistry`].
    pub kernel: &'static dyn StpKernel,
    /// Scheme order (nodes per dimension).
    pub order: usize,
    /// CFL safety factor (≤ 1).
    pub cfl: f64,
    /// SIMD level for padding/dispatch (`None` = the host's).
    pub width: Option<aderdg_tensor::Isa>,
    /// Cells per predictor block (`None` = let the tuner decide, see
    /// [`TuningMode`]).
    pub block_size: Option<usize>,
    /// Plan-time tuning strategy for the block size.
    pub tuning: TuningMode,
    /// Time-stepping strategy (see [`SteppingMode`]).
    pub stepping: SteppingMode,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("kernel", &self.kernel.name())
            .field("order", &self.order)
            .field("cfl", &self.cfl)
            .field("width", &self.width)
            .field("block_size", &self.block_size)
            .field("tuning", &self.tuning)
            .field("stepping", &self.stepping)
            .finish()
    }
}

impl EngineConfig {
    /// Default configuration: SplitCK at the given order, CFL factor 0.4.
    ///
    /// The CFL factor multiplies the estimate
    /// `1/((2N−1)·Σ_d s_d/Δx_d)`; empirically the 3-D ADER-DG scheme with
    /// Rusanov fluxes is stable up to ≈ 0.45 of it (consistent with the
    /// ~0.33–0.45 stability factors reported for ADER-DG in the
    /// literature), so 0.4 leaves a safety margin.
    pub fn new(order: usize) -> Self {
        Self {
            kernel: KernelVariant::SplitCk.kernel(),
            order,
            cfl: 0.4,
            width: None,
            block_size: None,
            tuning: TuningMode::default(),
            stepping: SteppingMode::Global,
        }
    }

    /// Selects a kernel (builder style): any [`StpKernel`], in the
    /// [`KernelRegistry`] table or not.
    pub fn with_kernel(mut self, kernel: &'static dyn StpKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects a kernel by registry key (builder style).
    ///
    /// # Panics
    /// If no kernel of that name is registered; use
    /// [`KernelRegistry::resolve`] directly for fallible lookup.
    pub fn with_kernel_name(mut self, name: &str) -> Self {
        self.kernel = KernelRegistry::global()
            .resolve(name)
            // PANIC-OK: documented contract (`# Panics` above); fallible
            // lookup is `KernelRegistry::resolve`.
            .unwrap_or_else(|| panic!("no registered kernel named `{name}`"));
        self
    }

    /// Selects the SIMD level (builder style).
    pub fn with_width(mut self, width: aderdg_tensor::Isa) -> Self {
        self.width = Some(width);
        self
    }

    /// Fixes the predictor block size (builder style); `1` forces the
    /// per-cell path.
    ///
    /// # Panics
    /// If `block_size` is zero.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size >= 1, "block size must be at least 1");
        self.block_size = Some(block_size);
        self
    }

    /// Selects the plan-time tuning strategy (builder style).
    pub fn with_tuning(mut self, tuning: TuningMode) -> Self {
        self.tuning = tuning;
        self
    }

    /// A no-op: the task-graph driver is the only step pipeline. Kept
    /// only because the frozen `benchmark/` harness calls it.
    pub fn with_pipeline(self, _pipeline: PipelineMode) -> Self {
        self
    }

    /// Selects the time-stepping strategy (builder style).
    pub fn with_stepping(mut self, stepping: SteppingMode) -> Self {
        self.stepping = stepping;
        self
    }
}

/// Cache budget the *static* block-size heuristic targets: half of a
/// typical 1 MiB per-core L2, leaving the other half for the cell states
/// and predictor outputs streaming through the block.
pub const BLOCK_L2_BUDGET_BYTES: usize = 512 * 1024;

/// Largest block any tuning mode picks: past this, the amortization of
/// the operator loads has long saturated and bigger blocks only reduce
/// the parallel grain count.
pub const BLOCK_SIZE_CAP: usize = 16;

/// The *static* block-size heuristic (`tuning = static`): the largest
/// `B ≤ 16` whose block working set `B · footprint` fits a 512 KiB L2
/// budget, and at least `1`, from the kernel's per-cell scratch footprint
/// ([`StpKernel::footprint_bytes`]). Low-footprint kernels (SplitCK at
/// moderate order) get wide blocks; the generic kernel's `O(N⁴m)`
/// temporaries quickly force `B = 1`.
///
/// The default `model` tuning mode replaces this constant-budget guess
/// with a cache-simulated ranking (see [`crate::tune`]); the heuristic
/// remains both the hermetic fallback and the answer for kernels whose
/// `run_block` is the per-cell fallback.
pub fn auto_block_size(footprint_bytes: usize) -> usize {
    (BLOCK_L2_BUDGET_BYTES / footprint_bytes.max(1)).clamp(1, BLOCK_SIZE_CAP)
}

/// Shard count the automatic shard size aims for: three tasks per shard
/// gives ~144 schedulable tasks — enough slack to keep 16 workers busy
/// through the dependency waves without shrinking shards into scheduling
/// noise.
pub const SHARD_COUNT_TARGET: usize = 48;

/// The automatic shard size of the graph driver: cells per shard
/// targeting [`SHARD_COUNT_TARGET`] shards, rounded **up** to a multiple
/// of the predictor block size so shard boundaries never split a cell
/// block (the block partition — and therefore every batched kernel's
/// floating-point result — does not depend on the shard partition).
///
/// Deliberately independent of the worker-thread count: the shard
/// partition must never leak into results, and
/// `tests/determinism.rs` pins step output bit-identical across 1/4/16
/// threads.
pub fn auto_shard_size(cells: usize, block_size: usize) -> usize {
    let target = cells.div_ceil(SHARD_COUNT_TARGET).max(1);
    target.div_ceil(block_size.max(1)) * block_size.max(1)
}

/// A point probe recording the evolved quantities over time.
#[derive(Debug, Clone)]
pub struct Receiver {
    /// Physical probe position.
    pub position: [f64; 3],
    cell: usize,
    /// Per-dimension basis values at the probe's reference coordinates.
    phi: [Vec<f64>; 3],
    /// Recorded `(time, values)` samples.
    pub records: Vec<(f64, Vec<f64>)>,
}

/// The time-stepping engine over a structured mesh.
pub struct Engine<P: LinearPde> {
    /// The mesh.
    pub mesh: StructuredMesh,
    /// The PDE system.
    pub pde: P,
    /// The kernel plan (shared by all cells — uniform mesh).
    pub plan: StpPlan,
    /// Engine configuration.
    pub config: EngineConfig,
    /// Per-cell DOFs, padded AoS.
    state: Vec<AlignedVec>,
    /// Per-cell face traces of the current (sub-)step, written by the
    /// graph driver's Predict task and read by Flux and Apply. The
    /// volume tensors never reach per-cell storage: Predict applies them
    /// to the state in place while they are still in cache.
    traces: Vec<FaceTraces>,
    /// Registered point sources by containing cell.
    sources: Vec<(usize, PointSource)>,
    /// Per-cell source projections: spatial `node_coeffs` computed once at
    /// registration; only the time-dependent `derivs` are refreshed each
    /// step.
    cell_sources: BTreeMap<usize, CellSource>,
    /// Registered receiver probes.
    pub receivers: Vec<Receiver>,
    /// Resolved predictor block size (config override or tuner pick).
    block_size: usize,
    /// What the plan-time tuner decided (block size, GEMM backend) and
    /// the candidates it weighed.
    tune: TuneReport,
    /// Simulated time.
    pub time: f64,
    /// Steps taken.
    pub steps: usize,
    /// What the graph driver steps with (shard plan, macro task graph,
    /// flux storage). Global stepping builds it in [`Engine::new`];
    /// under [`SteppingMode::Lts`] it is built lazily from the current
    /// state's per-cell stable-dt field at the first [`Engine::max_dt`]
    /// or step, and invalidated whenever the state is replaced
    /// wholesale.
    graph: OnceLock<GraphPlan>,
    /// Per-cluster `(time, sub_steps)` clocks, indexed by cluster level.
    /// Empty until the first LTS step (and always under global
    /// stepping); serialized through checkpoints so a resumed run
    /// continues them exactly.
    lts_clocks: Vec<(f64, u64)>,
}

impl<P: LinearPde> std::fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("dims", &self.mesh.dims)
            .field("order", &self.config.order)
            .field("kernel", &self.config.kernel.name())
            .field("block_size", &self.block_size)
            .field("time", &self.time)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl<P: LinearPde> Engine<P> {
    /// Builds an engine; the plan is derived from the mesh spacing and the
    /// PDE's quantity count.
    pub fn new(mesh: StructuredMesh, pde: P, config: EngineConfig) -> Self {
        let mut cfg = StpConfig::new(config.order, pde.num_quantities()).with_vars(pde.num_vars());
        if let Some(w) = config.width {
            cfg = cfg.with_width(w);
        }
        // Plan-time tuning: build the plan and pick the block size
        // (unless overridden) per the configured strategy; the report is
        // kept for introspection.
        let (plan, tune_report) = tune_plan(
            cfg,
            mesh.cell_size(),
            config.kernel,
            &pde,
            config.tuning,
            config.block_size,
        );
        let cells = mesh.num_cells();
        let state = (0..cells)
            .map(|_| AlignedVec::zeroed(plan.aos.len()))
            .collect();
        let traces = (0..cells).map(|_| FaceTraces::new(&plan)).collect();
        let block_size = tune_report.block_size;
        assert!(block_size >= 1, "block size must be at least 1");
        let engine = Self {
            mesh,
            pde,
            plan,
            config,
            state,
            traces,
            sources: Vec::new(),
            cell_sources: BTreeMap::new(),
            receivers: Vec::new(),
            block_size,
            tune: tune_report,
            time: 0.0,
            steps: 0,
            graph: OnceLock::new(),
            lts_clocks: Vec::new(),
        };
        // The global plan never depends on the state: build it up front
        // so the first step doesn't pay for it. The LTS clustering waits
        // for the initial data.
        if config.stepping == SteppingMode::Global {
            engine.graph_plan();
        }
        engine
    }

    /// The resolved predictor block size this engine steps with (the
    /// config's override, or the tuner's pick — see
    /// [`Engine::tune_report`]).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The plan-time tuning decision: chosen block size, the GEMM kernel
    /// the plan dispatches to, the static-heuristic baseline, and every
    /// block-size candidate the tuner weighed (with predicted costs).
    pub fn tune_report(&self) -> &TuneReport {
        &self.tune
    }

    /// The shard partition and canonical face index the graph driver
    /// steps with — under [`SteppingMode::Lts`] the level-aware
    /// [`Engine::lts_plan`]. Always `Some`: the `Option` is kept only
    /// because the frozen `benchmark/` harness unwraps it.
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        Some(&self.graph_plan().plan)
    }

    /// Initializes every node from a closure over physical coordinates.
    /// The closure must fill all `m` stored quantities (including
    /// parameters).
    pub fn set_initial(&mut self, f: impl Fn([f64; 3], &mut [f64]) + Sync) {
        let n = self.plan.n();
        let m = self.plan.m();
        let m_pad = self.plan.aos.m_pad();
        let nodes = self.plan.basis.nodes.clone();
        let mesh = &self.mesh;
        par::for_each_mut(&mut self.state, |c, q| {
            for k3 in 0..n {
                for k2 in 0..n {
                    for k1 in 0..n {
                        let x = mesh.cell_point(c, [nodes[k1], nodes[k2], nodes[k3]]);
                        let node = (k3 * n + k2) * n + k1;
                        f(x, &mut q[node * m_pad..node * m_pad + m]);
                    }
                }
            }
        });
        // New initial data → new per-cell dt field → new clustering.
        self.invalidate_clustering();
        self.lts_clocks.clear();
    }

    /// Registers a point source (projected onto its containing cell).
    ///
    /// # Panics
    /// If another source already lives in the same cell: the predictor
    /// takes one rank-1 `CellSource` per cell, so two co-located sources
    /// cannot be superposed — rejecting loudly beats silently dropping
    /// one of them.
    pub fn add_point_source(&mut self, source: PointSource) {
        let cell = self.mesh.locate(source.position);
        assert!(
            !self.cell_sources.contains_key(&cell),
            "cell {cell} already has a point source; multiple sources per \
             cell are not supported (refine the mesh to separate them)"
        );
        let xi = self.mesh.to_reference(cell, source.position);
        // The spatial projection is time-independent: compute it once here
        // and only refresh the amplitude derivatives per step.
        let projected = CellSource::project(&self.plan, xi, self.mesh.cell_size(), Vec::new());
        self.cell_sources.insert(cell, projected);
        self.sources.push((cell, source));
    }

    /// Refreshes the time-dependent part of every registered source's
    /// projection (`derivs` at `t_n`); the spatial `node_coeffs` were
    /// computed at registration and are never rebuilt.
    fn refresh_source_derivs(&mut self) {
        let n_order = self.plan.n();
        let time = self.time;
        for (cell, src) in &self.sources {
            let cs = self
                .cell_sources
                .get_mut(cell)
                // PANIC-OK: internal invariant — `add_source` inserts
                // the projection when it registers the source.
                .expect("every registered source has a projection");
            cs.derivs = src.amplitude_derivatives(time, n_order);
        }
    }

    /// Adds a receiver probe at a physical position.
    pub fn add_receiver(&mut self, position: [f64; 3]) -> usize {
        let cell = self.mesh.locate(position);
        let xi = self.mesh.to_reference(cell, position);
        let phi = [
            self.plan.basis.basis_at(xi[0]),
            self.plan.basis.basis_at(xi[1]),
            self.plan.basis.basis_at(xi[2]),
        ];
        self.receivers.push(Receiver {
            position,
            cell,
            phi,
            records: Vec::new(),
        });
        self.receivers.len() - 1
    }

    /// One cell's CFL rate `max_nodes Σ_d s_d / Δx_d` — the wave-speed
    /// contributions of the three dimensions add up.
    fn cell_rate(&self, q: &[f64]) -> f64 {
        let n = self.plan.n();
        let m = self.plan.m();
        let m_pad = self.plan.aos.m_pad();
        let dx = self.mesh.cell_size();
        let mut rate: f64 = 0.0;
        for k in 0..n * n * n {
            let mut r = 0.0;
            for d in 0..3 {
                r += self.pde.max_wavespeed(d, &q[k * m_pad..k * m_pad + m]) / dx[d];
            }
            rate = rate.max(r);
        }
        rate
    }

    /// Stable dt for a CFL rate: `cfl / ((2N − 1) · rate)` (infinite for
    /// a quiescent rate — callers surface that as [`DegenerateDt`]).
    fn rate_to_dt(&self, rate: f64) -> f64 {
        if rate == 0.0 {
            f64::INFINITY
        } else {
            self.config.cfl / ((2.0 * self.plan.n() as f64 - 1.0) * rate)
        }
    }

    /// The global CFL-stable dt over all cells.
    fn base_dt(&self) -> f64 {
        self.rate_to_dt(par::map_max(&self.state, 0.0, |q| self.cell_rate(q)))
    }

    /// Maximum stable time step from the multi-dimensional CFL condition
    /// `Δt ≤ cfl / ((2N − 1) · max_cells Σ_d s_d / Δx_d)`.
    ///
    /// Under [`SteppingMode::Lts`] this is the **macro** step
    /// `dt_base · 2^Lmax` (every [`Engine::step`] then runs one whole
    /// macro cycle), so CFL-driven loops like [`Engine::advance_until`]
    /// work unchanged. With a single cluster `Lmax = 0` and the value is
    /// bit-identical to the global-stepping dt.
    pub fn max_dt(&self) -> f64 {
        match self.config.stepping {
            SteppingMode::Global => self.base_dt(),
            SteppingMode::Lts => {
                let gp = self.graph_plan();
                gp.dt_base * gp.graph.num_slots() as f64
            }
        }
    }

    /// Per-cluster `(time, sub_steps)` clocks of the LTS path, indexed
    /// by cluster level. Empty until the first LTS step (and always under
    /// global stepping); serialized through checkpoints so a resumed run
    /// continues them exactly.
    pub fn lts_clocks(&self) -> &[(f64, u64)] {
        &self.lts_clocks
    }

    /// The shard partition the graph driver steps with — under LTS the
    /// level-aware one (cluster levels per shard, per-face cadences),
    /// built from the current state on first use.
    pub fn lts_plan(&self) -> &ShardPlan {
        &self.graph_plan().plan
    }

    /// Advances one time step of length `dt` (one whole macro cycle
    /// under [`SteppingMode::Lts`]).
    pub fn step(&mut self, dt: f64) {
        // Source amplitude derivatives are refreshed once per (macro)
        // step at `t_n` — exact for a single cluster; under real
        // sub-cycling every sub-window reuses that expansion (see
        // docs/LTS.md, "Point sources under LTS").
        self.refresh_source_derivs();
        self.step_graph(dt);
        self.time += dt;
        self.steps += 1;
        self.record_receivers();
    }

    /// Runs with CFL-limited steps until `t_end` (last step clipped).
    ///
    /// Termination is judged with a tolerance *relative* to `t_end` (one
    /// part in 10¹²): the seed's absolute `t_end - 1e-14` cutoff
    /// underflows for large targets (`1e3 - 1e-14 == 1e3` in f64), which
    /// let the loop chase sub-resolution remainders with degenerate
    /// clipped steps. Once within tolerance the clock snaps to `t_end`;
    /// a clipped step too small to advance `time` at all clamps instead
    /// of asserting.
    pub fn run_until(&mut self, t_end: f64) {
        self.advance_until(t_end, |_| true)
            // PANIC-OK: the unchecked variant's documented contract; the
            // fallible form is `advance_until`.
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Checked [`Engine::run_until`]: advances with CFL-limited steps
    /// toward `t_end`, consulting `keep_going` before every dt
    /// computation.
    ///
    /// Returns `Ok(true)` when the target is reached (or the remaining
    /// gap fell below f64 resolution — same clamp as `run_until`),
    /// `Ok(false)` when `keep_going` stopped the run early (the engine
    /// is left at a step boundary, ready to be checkpointed), and
    /// [`DegenerateDt`] when `max_dt` comes back zero, negative or
    /// non-finite — a long-lived service fails the one job instead of
    /// panicking the process.
    ///
    /// The control check never perturbs the step sequence: `dt` is
    /// always `max_dt().min(t_end - time)` against the *real* target, so
    /// a paused-and-resumed run replays the exact dt sequence of an
    /// uninterrupted one (see `tests/checkpoint_restart.rs`).
    pub fn advance_until(
        &mut self,
        t_end: f64,
        mut keep_going: impl FnMut(&Self) -> bool,
    ) -> Result<bool, DegenerateDt> {
        let tol = t_end.abs() * 1e-12;
        while self.time < t_end - tol {
            if !keep_going(self) {
                return Ok(false);
            }
            let dt = self.max_dt().min(t_end - self.time);
            if !(dt.is_finite() && dt > 0.0) {
                return Err(DegenerateDt { dt });
            }
            if self.time + dt == self.time {
                // dt is below f64 resolution at this magnitude; one more
                // step could never advance the clock.
                break;
            }
            self.step(dt);
        }
        if (self.time - t_end).abs() <= tol {
            self.time = t_end;
        }
        Ok(true)
    }

    /// Serializes this engine's full mutable state — DOFs, clock, step
    /// count and receiver records — into a [`crate::checkpoint::EngineState`]
    /// (the configuration travels separately as resolved knobs; see
    /// [`crate::checkpoint`]).
    pub fn save_state(&self) -> crate::checkpoint::EngineState {
        let state_len = self.plan.aos.len();
        let mut state = Vec::with_capacity(self.state.len() * state_len);
        for q in &self.state {
            state.extend_from_slice(q);
        }
        crate::checkpoint::EngineState {
            dims: self.mesh.dims,
            order: self.config.order,
            state_len,
            time: self.time,
            steps: self.steps,
            state,
            receivers: self
                .receivers
                .iter()
                .map(|r| crate::checkpoint::ReceiverState {
                    position: r.position,
                    records: r.records.clone(),
                })
                .collect(),
            lts_clocks: self.lts_clocks.clone(),
        }
    }

    /// Restores a saved [`crate::checkpoint::EngineState`] into this engine,
    /// which must have been built with the same mesh dimensions, order
    /// and padded state layout (resolved-knob replay guarantees that;
    /// see [`crate::checkpoint`]) and have the same receivers
    /// registered. DOFs are copied bit-exactly, padding included, so
    /// subsequent steps are bit-identical to the uninterrupted run.
    pub fn restore_state(
        &mut self,
        s: &crate::checkpoint::EngineState,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        if s.dims != self.mesh.dims {
            return Err(CheckpointError::new(format!(
                "mesh mismatch: checkpoint has {:?} cells, engine has {:?}",
                s.dims, self.mesh.dims
            )));
        }
        if s.order != self.config.order {
            return Err(CheckpointError::new(format!(
                "order mismatch: checkpoint has {}, engine has {}",
                s.order, self.config.order
            )));
        }
        if s.state_len != self.plan.aos.len() {
            return Err(CheckpointError::new(format!(
                "state layout mismatch: checkpoint has {} doubles/cell, engine has {} \
                 (different SIMD padding?)",
                s.state_len,
                self.plan.aos.len()
            )));
        }
        if s.state.len() != self.state.len() * s.state_len {
            return Err(CheckpointError::new(format!(
                "state size mismatch: checkpoint has {} doubles, engine needs {}",
                s.state.len(),
                self.state.len() * s.state_len
            )));
        }
        if s.receivers.len() != self.receivers.len() {
            return Err(CheckpointError::new(format!(
                "receiver count mismatch: checkpoint has {}, engine has {}",
                s.receivers.len(),
                self.receivers.len()
            )));
        }
        for (r, rs) in self.receivers.iter().zip(&s.receivers) {
            if r.position != rs.position {
                return Err(CheckpointError::new(format!(
                    "receiver position mismatch: checkpoint has {:?}, engine has {:?}",
                    rs.position, r.position
                )));
            }
        }
        for (q, chunk) in self.state.iter_mut().zip(s.state.chunks_exact(s.state_len)) {
            q.copy_from_slice(chunk);
        }
        for (r, rs) in self.receivers.iter_mut().zip(&s.receivers) {
            r.records = rs.records.clone();
        }
        self.time = s.time;
        self.steps = s.steps;
        // Rebuild the clustering from the restored state (deterministic,
        // so a resumed LTS run reproduces the saved run's plan exactly);
        // the per-cluster clocks continue from the checkpoint.
        self.invalidate_clustering();
        self.lts_clocks = s.lts_clocks.clone();
        Ok(())
    }

    /// Nodal L2 error of the evolved quantities against an exact solution.
    pub fn l2_error(&self, exact: &dyn aderdg_pde::ExactSolution) -> f64 {
        let n = self.plan.n();
        let m_pad = self.plan.aos.m_pad();
        let vars = self.pde.num_vars();
        let nodes = &self.plan.basis.nodes;
        let w = &self.plan.basis.weights;
        let dx = self.mesh.cell_size();
        let cell_vol = dx[0] * dx[1] * dx[2];
        let mut err2 = 0.0;
        let mut qe = vec![0.0; vars];
        for c in 0..self.mesh.num_cells() {
            let q = &self.state[c];
            for k3 in 0..n {
                for k2 in 0..n {
                    for k1 in 0..n {
                        let x = self.mesh.cell_point(c, [nodes[k1], nodes[k2], nodes[k3]]);
                        exact.evaluate(x, self.time, &mut qe);
                        let node = (k3 * n + k2) * n + k1;
                        let wk = w[k1] * w[k2] * w[k3] * cell_vol;
                        for s in 0..vars {
                            let e = q[node * m_pad + s] - qe[s];
                            err2 += wk * e * e;
                        }
                    }
                }
            }
        }
        err2.sqrt()
    }

    fn sample_cell(&self, cell: usize, phi: &[Vec<f64>; 3]) -> Vec<f64> {
        let n = self.plan.n();
        let m_pad = self.plan.aos.m_pad();
        let vars = self.pde.num_vars();
        let q = &self.state[cell];
        let mut out = vec![0.0; vars];
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    let wgt = phi[0][k1] * phi[1][k2] * phi[2][k3];
                    if wgt == 0.0 {
                        continue;
                    }
                    let node = (k3 * n + k2) * n + k1;
                    for s in 0..vars {
                        out[s] += wgt * q[node * m_pad + s];
                    }
                }
            }
        }
        out
    }

    fn record_receivers(&mut self) {
        if self.receivers.is_empty() {
            return;
        }
        let samples: Vec<(usize, Vec<f64>)> = self
            .receivers
            .iter()
            .enumerate()
            .map(|(i, r)| (i, self.sample_cell(r.cell, &r.phi)))
            .collect();
        for (i, v) in samples {
            let t = self.time;
            self.receivers[i].records.push((t, v));
        }
    }

    /// Quadrature-weighted mesh integral of every evolved quantity —
    /// the discrete conserved quantities. With periodic boundaries each
    /// entry is conserved to round-off by the once-per-face flux
    /// telescoping; with walls, exactly the rows whose wall flux vanishes
    /// (e.g. pressure at a rigid acoustic wall) stay constant
    /// (`tests/boundary_matrix.rs`).
    pub fn integrals(&self) -> Vec<f64> {
        let n = self.plan.n();
        let m_pad = self.plan.aos.m_pad();
        let vars = self.pde.num_vars();
        let w = &self.plan.basis.weights;
        let dx = self.mesh.cell_size();
        let cell_vol = dx[0] * dx[1] * dx[2];
        let mut acc = vec![0.0; vars];
        for c in 0..self.mesh.num_cells() {
            let q = &self.state[c];
            for k3 in 0..n {
                for k2 in 0..n {
                    for k1 in 0..n {
                        let node = (k3 * n + k2) * n + k1;
                        let wk = w[k1] * w[k2] * w[k3] * cell_vol;
                        for (s, a) in acc.iter_mut().enumerate() {
                            *a += wk * q[node * m_pad + s];
                        }
                    }
                }
            }
        }
        acc
    }

    /// Quadrature-weighted L2 norm of the evolved quantities — a discrete
    /// energy proxy for stability monitoring.
    pub fn l2_norm(&self) -> f64 {
        let n = self.plan.n();
        let m_pad = self.plan.aos.m_pad();
        let vars = self.pde.num_vars();
        let w = &self.plan.basis.weights;
        let dx = self.mesh.cell_size();
        let cell_vol = dx[0] * dx[1] * dx[2];
        let mut acc = 0.0;
        for c in 0..self.mesh.num_cells() {
            let q = &self.state[c];
            for k3 in 0..n {
                for k2 in 0..n {
                    for k1 in 0..n {
                        let node = (k3 * n + k2) * n + k1;
                        let wk = w[k1] * w[k2] * w[k3] * cell_vol;
                        for s in 0..vars {
                            let v = q[node * m_pad + s];
                            acc += wk * v * v;
                        }
                    }
                }
            }
        }
        acc.sqrt()
    }

    /// Direct read access to a cell's padded AoS state.
    pub fn cell_state(&self, cell: usize) -> &[f64] {
        &self.state[cell]
    }

    /// Mutable access to a cell's state (tests, custom initial data).
    /// Invalidates the cached LTS clustering — state pokes can change
    /// the per-cell dt field it was derived from.
    pub fn cell_state_mut(&mut self, cell: usize) -> &mut [f64] {
        self.invalidate_clustering();
        &mut self.state[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::tasks::GraphScratch;
    use super::*;

    #[test]
    fn auto_block_size_scales_inversely_with_footprint() {
        // Tiny footprint saturates at the cap; huge footprint degrades
        // to the per-cell path; a 64 KiB footprint fits 8 blocks into
        // the 512 KiB budget.
        assert_eq!(auto_block_size(1), 16);
        assert_eq!(auto_block_size(64 * 1024), 8);
        assert_eq!(auto_block_size(10 << 20), 1);
        assert_eq!(auto_block_size(0), 16);
    }

    #[test]
    fn engine_resolves_block_size_from_config_or_tuner() {
        use aderdg_mesh::StructuredMesh;
        use aderdg_pde::Acoustic;
        let cfg = EngineConfig::new(3).with_block_size(5);
        let engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, cfg);
        assert_eq!(engine.block_size(), 5);
        assert_eq!(engine.tune_report().block_size, 5);

        // The default kernel (SplitCK) runs the per-cell fallback under
        // the block pipeline, so model tuning keeps the heuristic answer.
        let cfg = EngineConfig::new(3);
        let engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, cfg);
        let expected = auto_block_size(cfg.kernel.footprint_bytes(&engine.plan));
        assert_eq!(engine.block_size(), expected);
        assert_eq!(engine.tune_report().mode, TuningMode::Model);

        // A blocked kernel under model tuning picks from the candidate
        // slate, within the cap.
        let cfg = EngineConfig::new(3).with_kernel_name("aosoa_splitck");
        let engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, cfg);
        assert!((1..=BLOCK_SIZE_CAP).contains(&engine.block_size()));
        assert!(!engine.tune_report().block_candidates.is_empty());
    }

    #[test]
    fn static_tuning_preserves_the_heuristic_for_blocked_kernels() {
        use aderdg_mesh::StructuredMesh;
        use aderdg_pde::Acoustic;
        let cfg = EngineConfig::new(3)
            .with_kernel_name("aosoa_splitck")
            .with_tuning(TuningMode::Static);
        let engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, cfg);
        let expected = auto_block_size(cfg.kernel.footprint_bytes(&engine.plan));
        assert_eq!(engine.block_size(), expected);
        assert!(engine.tune_report().block_candidates.is_empty());
    }

    /// A layered-bulk acoustic engine: `bulk_lo` for `x < 0.5`, 1 beyond
    /// (sound speeds √bulk at unit density).
    fn layered_engine(stepping: SteppingMode, bulk_lo: f64) -> Engine<aderdg_pde::Acoustic> {
        use aderdg_mesh::{BoundaryKind, StructuredMesh};
        use aderdg_pde::Acoustic;
        let mesh =
            StructuredMesh::new([4, 2, 2], [0.0; 3], [1.0; 3], [BoundaryKind::Reflective; 3]);
        let config = EngineConfig::new(3)
            .with_tuning(TuningMode::Static)
            .with_stepping(stepping);
        let mut engine = Engine::new(mesh, Acoustic, config);
        engine.set_initial(|x, q| {
            q.fill(0.0);
            q[0] = (x[0] * 3.0).sin();
            Acoustic::set_params(q, 1.0, if x[0] < 0.5 { bulk_lo } else { 1.0 });
        });
        engine
    }

    #[test]
    fn one_level_plans_allocate_no_halo_storage_and_two_level_plans_do() {
        // Halo storage is what one-cluster stepping must not pay for: the
        // half-window traces are twelve face tensors per coarse
        // interface cell.
        for (stepping, bulk_lo, levels) in [
            (SteppingMode::Global, 4.0, 1),
            (SteppingMode::Lts, 1.0, 1),
            (SteppingMode::Lts, 4.0, 2),
        ] {
            let engine = layered_engine(stepping, bulk_lo);
            let gp = engine.graph_plan();
            let label = format!("{stepping:?}, bulk {bulk_lo}");
            assert_eq!(gp.plan.num_levels(), levels, "{label}");
            let ns = gp.plan.num_shards();
            assert_eq!(gp.f_star.len(), ns, "{label}");
            let scratch = GraphScratch::new(
                &engine.plan,
                engine.config.kernel,
                engine.block_size,
                &gp.plan,
            );
            if levels == 1 {
                assert!(gp.f_star_acc.is_empty(), "{label}: accumulator storage");
                assert!(gp.halo.is_empty(), "{label}: halo outputs");
                assert!(scratch.halo.is_none(), "{label}: sub-window trace temps");
            } else {
                assert_eq!(gp.f_star_acc.len(), ns, "{label}");
                assert_eq!(gp.halo.len(), ns, "{label}");
                let halo_cells: usize = gp
                    .halo
                    .iter()
                    .map(|h| h.read().expect("unpoisoned").half.len())
                    .sum();
                assert!(
                    halo_cells > 0,
                    "{label}: coarse cells border the fine layer"
                );
                assert!(scratch.halo.is_some(), "{label}");
            }
        }
    }

    /// A layered elastic engine at SIMD level `width`: P-wave speed 2 for
    /// `x < 0.5`, 1 beyond — the paper's `m = 21` system (9 evolved rows).
    fn layered_elastic_engine(
        stepping: SteppingMode,
        width: aderdg_tensor::Isa,
    ) -> Engine<aderdg_pde::Elastic> {
        use aderdg_mesh::{BoundaryKind, StructuredMesh};
        use aderdg_pde::{Elastic, Material};
        let mesh =
            StructuredMesh::new([4, 2, 2], [0.0; 3], [1.0; 3], [BoundaryKind::Reflective; 3]);
        let config = EngineConfig::new(3)
            .with_tuning(TuningMode::Static)
            .with_stepping(stepping)
            .with_width(width);
        let mut engine = Engine::new(mesh, Elastic, config);
        engine.set_initial(|x, q| {
            q.fill(0.0);
            q[aderdg_pde::elastic::VX] = (x[0] * 3.0).sin();
            let cp = if x[0] < 0.5 { 2.0 } else { 1.0 };
            let mat = Material {
                rho: 1.0,
                cp,
                cs: 0.5 * cp,
            };
            Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
        });
        engine
    }

    /// Checks, after one step, that every cell keeps twelve face traces —
    /// `q̄` at `q_rows`, the flux at `f_rows` padded doubles per node —
    /// and so do the halo entries and the F* segments; returns how many
    /// trace entries (cells + halo) exist.
    fn check_face_storage<P: LinearPde>(
        mut engine: Engine<P>,
        q_rows: usize,
        f_rows: usize,
        label: &str,
    ) -> usize {
        let dt = engine.max_dt();
        engine.step(dt);
        let nn = engine.plan.n().pow(2);
        assert_eq!(engine.plan.face.len(), nn * q_rows, "{label}");
        assert_eq!(engine.plan.flux_face.len(), nn * f_rows, "{label}");
        assert!(
            engine.plan.face.len() < engine.plan.aos.len(),
            "a face is not volume-sized"
        );
        let want = [[nn * q_rows; 6], [nn * f_rows; 6]].concat();
        let doubles = |t: &FaceTraces| -> Vec<usize> {
            t.qface.iter().chain(&t.fface).map(|v| v.len()).collect()
        };
        assert_eq!(engine.traces.len(), engine.mesh.num_cells(), "{label}");
        let mut entries = 0;
        for t in &engine.traces {
            assert_eq!(doubles(t), want, "{label}: cell traces");
            entries += 1;
        }
        let gp = engine.graph_plan();
        for shard in &gp.halo {
            for t in &shard.read().expect("unpoisoned").half {
                assert_eq!(doubles(t), want, "{label}: halo traces");
                entries += 1;
            }
        }
        for (s, seg) in gp.f_star.iter().chain(&gp.f_star_acc).enumerate() {
            let faces = gp.plan.owned_faces(s % gp.plan.num_shards()).len();
            let len = seg.read().expect("unpoisoned").len();
            assert_eq!(len, faces * nn * f_rows, "{label}: F* segment {s}");
        }
        entries
    }

    #[test]
    fn per_cell_predictor_storage_is_twelve_face_tensors() {
        // The volume tensors never leave the worker: what a cell keeps
        // between Predict and Apply — and what a halo entry keeps between
        // Predict and Flux — is its twelve face traces and nothing else.
        assert_eq!(
            std::mem::size_of::<FaceTraces>(),
            12 * std::mem::size_of::<Box<[f64]>>(),
            "FaceTraces holds the twelve face tensors only"
        );
        for (stepping, levels) in [(SteppingMode::Global, 1), (SteppingMode::Lts, 2)] {
            let engine = layered_engine(stepping, 4.0);
            let cells = engine.mesh.num_cells();
            let rows = (engine.plan.face.m_pad(), engine.plan.flux_face.m_pad());
            let entries = check_face_storage(engine, rows.0, rows.1, &format!("{stepping:?}"));
            assert_eq!(entries > cells, levels > 1, "{stepping:?}");
        }
        // Elastic, m = 21 with 9 evolved rows: the flux traces keep the
        // evolved rows' padded width only, and faces pad to at most 4
        // doubles, so AVX-512 keeps AVX2's faces.
        use aderdg_tensor::Isa;
        for (width, q_rows, f_rows) in [
            (Isa::Baseline, 22, 10),
            (Isa::Avx2, 24, 12),
            (Isa::Avx512, 24, 12),
        ] {
            for stepping in [SteppingMode::Global, SteppingMode::Lts] {
                let engine = layered_elastic_engine(stepping, width);
                let cells = engine.mesh.num_cells();
                let label = format!("elastic {width:?} {stepping:?}");
                let entries = check_face_storage(engine, q_rows, f_rows, &label);
                assert_eq!(entries > cells, stepping == SteppingMode::Lts, "{label}");
            }
        }
    }

    #[test]
    fn shard_plan_is_the_plan_the_engine_steps_with() {
        // Global: the flat plan, built in `new`, never invalidated by
        // state pokes. LTS: the clustered plan — no flat twin is built.
        let mut global = layered_engine(SteppingMode::Global, 4.0);
        assert!(global.graph.get().is_some(), "global plan is built in new");
        global.cell_state_mut(0)[0] = 1.0;
        assert!(global.graph.get().is_some());
        assert_eq!(global.shard_plan().expect("sharded").num_levels(), 1);

        let mut lts = layered_engine(SteppingMode::Lts, 4.0);
        assert!(lts.graph.get().is_none(), "clustering waits for first use");
        let stepped: *const ShardPlan = lts.shard_plan().expect("sharded");
        assert!(std::ptr::eq(stepped, lts.lts_plan()));
        assert_eq!(lts.lts_plan().num_levels(), 2);
        lts.cell_state_mut(0)[0] = 1.0;
        assert!(lts.graph.get().is_none(), "state pokes drop the clustering");
    }
}
