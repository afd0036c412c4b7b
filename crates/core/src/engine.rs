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
//! [`PipelineMode::Barrier`] — the seed cell-centric loop (every interior
//! face solved twice, global barrier between predictor and corrector) —
//! shares no traversal logic with the driver and stays, selectable only
//! explicitly, as the independent reference the driver is pinned against.

use crate::block::{BlockInputs, CellBlock};
use crate::corrector::{apply_face, apply_volume, CorrectorScratch};
use crate::kernels::{FaceTraces, StpInputs, StpKernel, StpOutputs, StpScratch};
use crate::par;
use crate::plan::{CellSource, KernelVariant, StpConfig, StpPlan};
use crate::registry::KernelRegistry;
use crate::riemann::{boundary_face, rusanov_face, BoundaryScratch};
use crate::tune::{tune_plan, TuneReport, TuningMode};
use aderdg_mesh::{
    assign_levels, Face, FaceTopo, LtsGraph, LtsTask, Neighbor, ShardPlan, StructuredMesh,
    MAX_LTS_LEVEL,
};
use aderdg_pde::{LinearPde, PointSource};
use aderdg_tensor::AlignedVec;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, RwLock};

/// Which step pipeline the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Seed cell-centric loop: every interior face's Riemann problem is
    /// solved twice (once per adjacent cell) and a global barrier
    /// separates predictor and corrector. Hermetic baseline.
    Barrier,
    /// Face-centric shard pipeline (the default): one Riemann solve per
    /// face into a face-indexed buffer; per-shard
    /// predictor/face-sweep/apply tasks chained by a dependency
    /// scheduler, no global barrier. Results are pinned to the barrier
    /// path by `tests/pipeline_equivalence.rs` and stay bit-identical
    /// across worker-thread counts.
    Sharded,
}

impl PipelineMode {
    /// Parses a specification-file value (`barrier` | `sharded`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "barrier" => Some(Self::Barrier),
            "sharded" => Some(Self::Sharded),
            _ => None,
        }
    }

    /// The specification-file spelling (inverse of [`PipelineMode::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Barrier => "barrier",
            Self::Sharded => "sharded",
        }
    }
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
/// * **`pipeline`** — `sharded` (default) runs the once-per-face task
///   graph driver: half the interior Riemann solves and no
///   predictor→corrector barrier. Switch to `barrier` to reproduce the
///   seed cell-centric loop (the independent reference of
///   `tests/pipeline_equivalence.rs`). The graph driver's shard size is
///   derived from the mesh and the block size ([`auto_shard_size`]),
///   never configured.
/// * **`stepping`** — `global` (default) advances every cell at the one
///   CFL-stable dt: the one-cluster macro cycle of the graph driver.
///   `lts` clusters cells by their own stable dt and sub-cycles the fine
///   clusters on the same driver; it pays past ~2:1 dt contrast (see
///   `docs/LTS.md`).
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
    /// Step pipeline (see [`PipelineMode`]).
    pub pipeline: PipelineMode,
    /// Time-stepping strategy (see [`SteppingMode`]). Under
    /// [`SteppingMode::Lts`] the engine always runs the graph driver
    /// and `pipeline` is ignored.
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
            .field("pipeline", &self.pipeline)
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
            pipeline: PipelineMode::Sharded,
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

    /// Selects the step pipeline (builder style).
    pub fn with_pipeline(mut self, pipeline: PipelineMode) -> Self {
        self.pipeline = pipeline;
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

/// The automatic shard size of the sharded pipeline: cells per shard
/// targeting [`SHARD_COUNT_TARGET`] shards, rounded **up** to a multiple
/// of the predictor block size so shard boundaries never split a cell
/// block (the block partition — and therefore every batched kernel's
/// floating-point result — stays identical to the barrier path's).
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
    /// flux storage). Global stepping on the sharded pipeline builds it
    /// in [`Engine::new`]; under [`SteppingMode::Lts`] it is built lazily
    /// from the current state's per-cell stable-dt field at the first
    /// [`Engine::max_dt`] or step, and invalidated whenever the state is
    /// replaced wholesale. Never built on the global barrier path.
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
            .field("pipeline", &self.config.pipeline)
            .field("block_size", &self.block_size)
            .field("time", &self.time)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

/// Everything the task-graph driver steps with: the shard partition, the
/// macro-cycle task graph over it and the face-flux storage. Under
/// [`SteppingMode::Global`] the partition is the flat one-level
/// [`ShardPlan::new`] (state-independent, built once in
/// [`Engine::new`]); under [`SteppingMode::Lts`] it is the level-aware
/// plan derived deterministically from the state the engine held when it
/// was built.
struct GraphPlan {
    /// Shard partition and canonical face enumeration (shards are
    /// level-uniform).
    plan: ShardPlan,
    /// The macro-cycle task graph (one predict/apply pair per shard per
    /// sub-window, one flux sweep per shard per owned-face slot; one
    /// task triple per shard for a one-level plan).
    graph: LtsGraph,
    /// Stable dt of the finest cluster — the global CFL dt of the state
    /// the clustering was derived from; `max_dt` reports
    /// `dt_base · num_slots` so drive loops step whole macro cycles.
    /// NaN and never read under global stepping, whose `max_dt` reduces
    /// the live state every step.
    dt_base: f64,
    /// Per-shard storage for the owned faces' resolved fluxes `F*` of
    /// the *current* sub-window (`owned_faces × plan.flux_face.len()`
    /// doubles each), overwritten at each re-solve.
    f_star: Vec<RwLock<Vec<f64>>>,
    /// Per-shard F* accumulated over a coarse window for cadence-
    /// mismatched faces: the sub-window-0 solve overwrites, the
    /// sub-window-1 solve adds, and the coarse cell applies the sum —
    /// so the face flux telescopes exactly against the fine cell's two
    /// separate applications. Empty for a one-level plan.
    f_star_acc: Vec<RwLock<Vec<f64>>>,
    /// Per-shard half-window face traces for cells that border a finer
    /// face (the sub-window differencing source). Empty for a one-level
    /// plan.
    halo: Vec<RwLock<HaloShard>>,
}

/// Half-window face traces of one shard's cells that border a
/// finer-cadence face.
struct HaloShard {
    /// Shard-local indices of those cells, ascending.
    cells: Vec<usize>,
    /// Half-dt face traces, parallel to `cells`, rewritten by each of the
    /// shard's predict tasks *before* its in-place volume update (the
    /// half-window runs read `q⁰`).
    half: Vec<FaceTraces>,
}

/// Splits a flat per-cell buffer into per-shard mutable slices matching
/// `splan.shard_range` (shards are contiguous but not uniform — LTS
/// shard boundaries also break at cluster-level changes, so a plain
/// `chunks_mut` does not apply).
fn shard_slices<'a, T>(splan: &ShardPlan, mut buf: &'a mut [T]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(splan.num_shards());
    for s in 0..splan.num_shards() {
        let (head, tail) = buf.split_at_mut(splan.shard_range(s).len());
        out.push(head);
        buf = tail;
    }
    debug_assert!(buf.is_empty(), "shard ranges must tile the buffer");
    out
}

/// Composes one sub-window face trace of a coarse cell by differencing
/// its full- and half-window predictor runs: the CK Taylor coefficients
/// depend only on `q0`, so the half-dt run's time-integrated trace *is*
/// the first half-window's exactly, and `full − half` the second's,
/// elementwise (trace tensors are time-integrals, hence additive over
/// sub-windows). With ≤ 1-level gradation one halving always suffices.
///
/// Returns the `(q̄, F̄)` face pair of face slot `fi`: the half-window
/// trace itself for `sub == 0` (no copy), the difference written into
/// `tmp` for `sub == 1`. Only the evolved rows (the plan's `vars`) are
/// time integrals: `q̄` *carries* its parameter rows (the kernels'
/// convention), so those — which the Riemann solve reads the wavespeed
/// from — are copied from the full trace, not differenced to zero.
fn sub_window_trace<'a>(
    plan: &StpPlan,
    tmp: &'a mut HaloScratch,
    full: &FaceTraces,
    half: &'a FaceTraces,
    fi: usize,
    sub: usize,
) -> (&'a [f64], &'a [f64]) {
    if sub == 0 {
        return (&half.qface[fi], &half.fface[fi]);
    }
    let (qf, ff) = (&full.qface[fi], &full.fface[fi]);
    let (qh, fh) = (&half.qface[fi], &half.fface[fi]);
    let (q_pad, vars) = (plan.face.m_pad(), plan.cfg.vars);
    let rows = tmp.qtmp.chunks_exact_mut(q_pad).zip(qf.chunks_exact(q_pad));
    for ((t, f), h) in rows.zip(qh.chunks_exact(q_pad)) {
        for s in 0..vars {
            t[s] = f[s] - h[s];
        }
        t[vars..].copy_from_slice(&f[vars..]);
    }
    for i in 0..tmp.ftmp.len() {
        tmp.ftmp[i] = ff[i] - fh[i];
    }
    (&tmp.qtmp, &tmp.ftmp)
}

/// Per-worker scratch of the graph driver (one per scheduler worker,
/// reused across that worker's tasks).
struct GraphScratch<'a> {
    stp: Box<dyn StpScratch>,
    block: CellBlock,
    sources: Vec<Option<&'a CellSource>>,
    /// The full predictor outputs of the block in flight (`block_size`
    /// of them). Each cell's own face buffers are swapped in before the
    /// kernel runs and back out after the volume update, so only the
    /// volume tensors are the worker's.
    outs: Vec<StpOutputs>,
    corr: CorrectorScratch,
    boundary: BoundaryScratch,
    /// Sub-window trace temps; `None` for a one-level plan, which never
    /// composes a sub-window trace.
    halo: Option<HaloScratch>,
}

impl GraphScratch<'_> {
    /// One scheduler worker's scratch for stepping `splan`.
    fn new(plan: &StpPlan, kernel: &dyn StpKernel, bsize: usize, splan: &ShardPlan) -> Self {
        Self {
            stp: kernel.make_block_scratch(plan, bsize),
            block: CellBlock::new(plan, bsize),
            sources: Vec::with_capacity(bsize),
            outs: (0..bsize).map(|_| StpOutputs::new(plan)).collect(),
            corr: CorrectorScratch::new(plan),
            boundary: BoundaryScratch::new(plan),
            halo: (splan.num_levels() > 1).then(|| HaloScratch {
                qtmp: vec![0.0; plan.face.len()],
                ftmp: vec![0.0; plan.flux_face.len()],
            }),
        }
    }
}

/// One face-trace temp pair for the second sub-window's difference (at
/// most one side of a face is ever coarse). The halo half-window
/// predictor runs need no scratch of their own: they reuse the worker's
/// block scratch, which every kernel's `run` accepts (the
/// `make_block_scratch` contract), and its first [`StpOutputs`].
struct HaloScratch {
    qtmp: Vec<f64>,
    ftmp: Vec<f64>,
}

/// Looks up a shard's lock guard in a small sorted `(shard, guard)` list
/// (the per-task dependency guards).
fn dep_guard<T>(guards: &[(usize, T)], shard: usize) -> &T {
    let i = guards
        .binary_search_by_key(&shard, |g| g.0)
        // PANIC-OK: internal invariant — the static task graph listed
        // every shard this task may read.
        .expect("shard not in the task's dependency set");
    &guards[i].1
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
        if (config.stepping, config.pipeline) == (SteppingMode::Global, PipelineMode::Sharded) {
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

    /// The shard partition and canonical face index the sharded
    /// pipeline steps with (`None` on the barrier path) — under
    /// [`SteppingMode::Lts`] the level-aware [`Engine::lts_plan`].
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        match self.config.pipeline {
            PipelineMode::Barrier => None,
            PipelineMode::Sharded => Some(&self.graph_plan().plan),
        }
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

    /// The graph driver's plan. Under global stepping it never depends on
    /// the state; under LTS it is built from the *current* state on first
    /// use and cached until the state is replaced wholesale
    /// ([`Engine::set_initial`], [`Engine::restore_state`],
    /// [`Engine::cell_state_mut`]).
    fn graph_plan(&self) -> &GraphPlan {
        self.graph.get_or_init(|| self.build_graph_plan())
    }

    fn build_graph_plan(&self) -> GraphPlan {
        let shard_size = auto_shard_size(self.mesh.num_cells(), self.block_size);
        let (splan, dt_base) = match self.config.stepping {
            SteppingMode::Global => (ShardPlan::new(&self.mesh, shard_size), f64::NAN),
            SteppingMode::Lts => {
                let cell_dt: Vec<f64> = self
                    .state
                    .iter()
                    .map(|q| self.rate_to_dt(self.cell_rate(q)))
                    .collect();
                // Bitwise equal to `base_dt`: f64 division by a positive
                // value is monotone, so the min over per-cell dt is the
                // dt of the max per-cell rate.
                let dt_base = cell_dt.iter().copied().fold(f64::INFINITY, f64::min);
                let levels = assign_levels(&self.mesh, &cell_dt, MAX_LTS_LEVEL);
                (
                    ShardPlan::with_levels(&self.mesh, shard_size, &levels),
                    dt_base,
                )
            }
        };
        let graph = LtsGraph::build(&splan);
        let face_len = self.plan.flux_face.len();
        let ns = splan.num_shards();
        let flux_storage = || -> Vec<RwLock<Vec<f64>>> {
            (0..ns)
                .map(|s| RwLock::new(vec![0.0; splan.owned_faces(s).len() * face_len]))
                .collect()
        };
        let f_star = flux_storage();
        // The accumulator and halo buffers only exist when clusters
        // actually differ — a one-level plan (global stepping, or LTS on
        // a dt-homogeneous state) allocates nothing beyond `f_star`.
        let (f_star_acc, halo) = if splan.num_levels() > 1 {
            let halo = (0..ns)
                .map(|s| {
                    let level = splan.shard_level(s);
                    let range = splan.shard_range(s);
                    let cells: Vec<usize> = range
                        .clone()
                        .filter(|&c| {
                            splan
                                .cell_faces(c)
                                .iter()
                                .any(|&id| splan.face_cadence(id) < level)
                        })
                        .map(|c| c - range.start)
                        .collect();
                    let half = cells.iter().map(|_| FaceTraces::new(&self.plan)).collect();
                    RwLock::new(HaloShard { cells, half })
                })
                .collect();
            (flux_storage(), halo)
        } else {
            (Vec::new(), Vec::new())
        };
        GraphPlan {
            plan: splan,
            graph,
            dt_base,
            f_star,
            f_star_acc,
            halo,
        }
    }

    /// Drops the cached LTS clustering after the state was replaced: the
    /// per-cell dt field it was derived from may have changed. The global
    /// plan is state-independent and stays.
    fn invalidate_clustering(&mut self) {
        if self.config.stepping == SteppingMode::Lts {
            self.graph = OnceLock::new();
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
    /// under [`SteppingMode::Lts`], which ignores the pipeline setting
    /// and always runs the graph driver).
    pub fn step(&mut self, dt: f64) {
        // Source amplitude derivatives are refreshed once per (macro)
        // step at `t_n` — exact for a single cluster; under real
        // sub-cycling every sub-window reuses that expansion (see
        // docs/LTS.md, "Point sources under LTS").
        self.refresh_source_derivs();
        match (self.config.stepping, self.config.pipeline) {
            (SteppingMode::Global, PipelineMode::Barrier) => self.step_barrier(dt),
            _ => self.step_graph(dt),
        }
        self.time += dt;
        self.steps += 1;
        self.record_receivers();
    }

    /// The seed cell-centric step: block predictor over all cells, a
    /// global barrier, then a per-cell corrector that re-solves every
    /// interior face from both adjacent cells (`6 · cells` Riemann solves
    /// per step).
    ///
    /// The unfused reference of the graph driver: full predictor outputs
    /// for every cell live in a step-local buffer, and the volume update
    /// runs after the barrier, not inside the predictor task.
    fn step_barrier(&mut self, dt: f64) {
        let plan = &self.plan;
        let pde = &self.pde;
        let kernel = self.config.kernel;
        let cell_sources = &self.cell_sources;

        // 1. Predictor over cell blocks (element-local, embarrassingly
        //    parallel — the paper's dominant kernel). Contiguous cells
        //    are staged into a per-thread CellBlock and fed through the
        //    kernel's block entry point, so one operator load serves the
        //    whole block; kernels without a real block implementation
        //    fall back to their per-cell path inside `run_block`.
        let state = &self.state;
        let bsize = self.block_size;
        let mut outputs: Vec<StpOutputs> =
            (0..state.len()).map(|_| StpOutputs::new(plan)).collect();
        let mut blocks: Vec<&mut [StpOutputs]> = outputs.chunks_mut(bsize).collect();
        par::for_each_mut_init(
            &mut blocks,
            || {
                (
                    kernel.make_block_scratch(plan, bsize),
                    CellBlock::new(plan, bsize),
                    Vec::with_capacity(bsize),
                )
            },
            |(scratch, block, sources), bi, outs| {
                let base = bi * bsize;
                block.clear();
                for i in 0..outs.len() {
                    block.push(&state[base + i]);
                }
                sources.clear();
                sources.extend((0..outs.len()).map(|i| cell_sources.get(&(base + i))));
                kernel.run_block(
                    plan,
                    pde,
                    scratch.as_mut(),
                    &BlockInputs::new(block, dt, sources),
                    outs,
                );
            },
        );

        // 2. Corrector: volume + Riemann face corrections.
        let outputs = &outputs;
        let mesh = &self.mesh;
        par::for_each_mut_init(
            &mut self.state,
            || {
                (
                    CorrectorScratch::new(plan),
                    BoundaryScratch::new(plan),
                    vec![0.0f64; plan.flux_face.len()],
                )
            },
            |(corr, bscratch, f_star), c, q| {
                let out = &outputs[c];
                apply_volume(plan, pde, corr, out, q);
                for face in Face::ALL {
                    let d = face.dim;
                    let side = face.side;
                    let fi = face.index();
                    match mesh.neighbor(c, face) {
                        Neighbor::Cell(nb) => {
                            let nb_out = &outputs[nb];
                            let of = face.opposite().index();
                            if side == 0 {
                                // Neighbour is the left state.
                                rusanov_face(
                                    plan,
                                    pde,
                                    d,
                                    &nb_out.qface[of],
                                    &nb_out.fface[of],
                                    &out.qface[fi],
                                    &out.fface[fi],
                                    f_star,
                                );
                            } else {
                                rusanov_face(
                                    plan,
                                    pde,
                                    d,
                                    &out.qface[fi],
                                    &out.fface[fi],
                                    &nb_out.qface[of],
                                    &nb_out.fface[of],
                                    f_star,
                                );
                            }
                        }
                        Neighbor::Boundary(kind) => {
                            boundary_face(
                                plan,
                                pde,
                                d,
                                side,
                                kind,
                                &out.qface[fi],
                                &out.fface[fi],
                                bscratch,
                                f_star,
                            );
                        }
                    }
                    apply_face(plan, d, side, f_star, &out.fface[fi], q);
                }
            },
        );
    }

    /// The task-graph driver: one **macro cycle** of `2^Lmax` level-0
    /// sub-windows, scheduled as the sub-window-resolved predict /
    /// flux-sweep / apply task graph ([`LtsGraph`]) on the persistent
    /// work-stealing pool ([`par::run_graph_init`]). A shard's sweep
    /// starts as soon as its own and its face-neighbours' predictors are
    /// done, with no global barrier, and each finished task pushes the
    /// dependents it unlocks onto the finishing worker's own deque.
    ///
    /// Global stepping is the one-cluster case: `Lmax = 0`, one slot, one
    /// predict / flux / apply triple per shard at the full `dt`. Under
    /// LTS `dt` is the macro step; a level-`L` cluster takes
    /// `2^(Lmax−L)` sub-steps of `dt · 2^L / 2^Lmax` each (exact f64
    /// scalings, so a clipped macro step scales all clusters alike).
    ///
    /// Cadence-mismatched faces (a cadence-`c` face under a level-`c+1`
    /// cell) are re-solved per fine sub-window with the coarse side's
    /// trace composed by [`sub_window_trace`]; the two fine `F*` are
    /// accumulated and applied once by the coarse cell, so the face flux
    /// telescopes exactly and conservation holds to round-off.
    ///
    /// Fused volume update: Predict applies [`apply_volume`] to each
    /// cell's `q` in place right after the kernel ran into the worker's
    /// own [`StpOutputs`], and keeps only the cell's face traces; Apply
    /// is the six face lifts. A shard's half-window runs read `q⁰`, so
    /// they run first. Nothing else reads a cell's `q` between its
    /// Predict and its Apply.
    ///
    /// Determinism: every face flux is computed exactly once per due
    /// slot by one task from fixed predictor outputs into the
    /// face-indexed buffer, and each cell's operations on `q` — volume
    /// x, y, z in Predict, then its six faces in `Face::ALL` order in
    /// Apply — keep the barrier path's order, so results are independent
    /// of the schedule and bit-identical across worker-thread counts.
    ///
    /// ORDERING: most locks below are uncontended — every pair of
    /// conflicting accesses to `traces`, `state` and `halo` is ordered by
    /// the task graph (a shard's tasks form a chain `P(k) → … → A(k) →
    /// P(k+1)`, and every cross-shard read has graph edges — with
    /// `AcqRel` ready-counters — placing it after the writer and before
    /// the next one). With more than one slot `f_star` and `f_star_acc`
    /// *are* contended (a sweep may rewrite segments of faces unrelated
    /// to a concurrently-running apply task holding the same lock — the
    /// data stays disjoint, the lock is shared), so all tasks acquire
    /// them along one global hierarchy: `f_star[i]` before every
    /// `f_star_acc[j]`, each tier in ascending shard order. Flux takes
    /// `f_star[s]` then `f_star_acc[s]`; Apply takes all its `f_star`
    /// read guards ascending, then all `f_star_acc` read guards
    /// ascending — strictly increasing ranks, hence no deadlock.
    fn step_graph(&mut self, dt: f64) {
        self.graph_plan();
        // PANIC-OK: internal invariant — just built above.
        let gp = self.graph.get().expect("graph plan built");
        let splan = &gp.plan;
        let graph = &gp.graph;
        let num_levels = splan.num_levels();
        if self.config.stepping == SteppingMode::Lts && self.lts_clocks.len() != num_levels {
            self.lts_clocks = vec![(self.time, 0); num_levels];
        }
        let plan = &self.plan;
        let pde = &self.pde;
        let kernel = self.config.kernel;
        let bsize = self.block_size;
        let cell_sources = &self.cell_sources;
        let num_slots = graph.num_slots();
        // Exact: `num_slots` is a power of two.
        let dt_base = dt / num_slots as f64;
        let face_len = plan.flux_face.len();
        let multi = num_levels > 1;

        let trace_shards: Vec<RwLock<&mut [FaceTraces]>> = shard_slices(splan, &mut self.traces)
            .into_iter()
            .map(RwLock::new)
            .collect();
        let state_shards: Vec<Mutex<&mut [AlignedVec]>> = shard_slices(splan, &mut self.state)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let f_star = &gp.f_star;
        let f_star_acc = &gp.f_star_acc;
        let halo_shards = &gp.halo;

        par::run_graph_init(
            graph.indegree(),
            graph.dependents(),
            || GraphScratch::new(plan, kernel, bsize, splan),
            |ws, task| match graph.task(task) {
                // Predictor over the shard's cells at the cluster's own
                // sub-step, in predictor blocks exactly like the barrier
                // path, each block's volume update applied in place;
                // before that, half-window runs for halo cells.
                LtsTask::Predict { shard: s, .. } => {
                    let level = splan.shard_level(s);
                    let dt_s = dt_base * (1u64 << level) as f64;
                    let range = splan.shard_range(s);
                    // PANIC-OK: lock poisoning means a sibling task
                    // panicked; cascading into the batch abort is
                    // correct (likewise for every lock below).
                    let mut state = state_shards[s].lock().unwrap();
                    // PANIC-OK: poisoning cascades (see above).
                    let mut traces = trace_shards[s].write().unwrap();
                    if multi {
                        // First: these runs read q⁰, which the volume
                        // update below overwrites.
                        // PANIC-OK: poisoning cascades (see above).
                        let mut halo = halo_shards[s].write().unwrap();
                        let HaloShard { cells, half } = &mut *halo;
                        let out = &mut ws.outs[0];
                        for (&local, h) in cells.iter().zip(half.iter_mut()) {
                            h.swap(out);
                            kernel.run(
                                plan,
                                pde,
                                ws.stp.as_mut(),
                                &StpInputs {
                                    q0: &state[local][..],
                                    dt: 0.5 * dt_s,
                                    source: cell_sources.get(&(range.start + local)),
                                },
                                out,
                            );
                            h.swap(out);
                        }
                    }
                    let blocks = state.chunks_mut(bsize).zip(traces.chunks_mut(bsize));
                    for (bi, (qs, ts)) in blocks.enumerate() {
                        let first = range.start + bi * bsize;
                        ws.block.clear();
                        for q in qs.iter() {
                            ws.block.push(q);
                        }
                        ws.sources.clear();
                        ws.sources
                            .extend((0..qs.len()).map(|i| cell_sources.get(&(first + i))));
                        let outs = &mut ws.outs[..qs.len()];
                        for (t, out) in ts.iter_mut().zip(outs.iter_mut()) {
                            t.swap(out);
                        }
                        kernel.run_block(
                            plan,
                            pde,
                            ws.stp.as_mut(),
                            &BlockInputs::new(&ws.block, dt_s, &ws.sources),
                            outs,
                        );
                        for ((t, out), q) in ts.iter_mut().zip(outs.iter_mut()).zip(qs) {
                            apply_volume(plan, pde, &mut ws.corr, out, q);
                            t.swap(out);
                        }
                    }
                }
                // Once-per-face flux sweep over the shard's owned faces
                // *due at this sweep's slot*, into the shard's dense F*
                // segment (and the coarse-window accumulator for
                // mismatched faces).
                LtsTask::Flux { shard: s, sweep } => {
                    let slot = graph.sweep_slot(s, sweep);
                    // Shards whose predictors feed this sweep's active
                    // faces (the graph's edges mirror exactly these).
                    let deps = graph.flux_deps(s, sweep);
                    let guards: Vec<_> = deps
                        .iter()
                        // PANIC-OK: poisoning cascades (see above).
                        .map(|&t| (t, trace_shards[t].read().unwrap()))
                        .collect();
                    let hguards: Vec<_> = if multi {
                        deps.iter()
                            // PANIC-OK: poisoning cascades (see above).
                            .map(|&t| (t, halo_shards[t].read().unwrap()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    let traces_of = |cell: usize| {
                        let t = splan.shard_of(cell);
                        (t, &dep_guard(&guards, t)[cell - splan.shard_range(t).start])
                    };
                    // Lock hierarchy: own f_star, then (at the first
                    // mismatched face) own f_star_acc — see the ORDERING
                    // note in the doc comment.
                    // PANIC-OK: poisoning cascades (see above).
                    let mut fs = f_star[s].write().unwrap();
                    let mut acc = None;
                    for (i, id) in splan.owned_faces(s).enumerate() {
                        let c = splan.face_cadence(id) as usize;
                        if slot & ((1usize << c) - 1) != 0 {
                            continue;
                        }
                        let sub = (slot >> c) & 1;
                        let dst = &mut fs[i * face_len..(i + 1) * face_len];
                        match splan.face(id) {
                            FaceTopo::Interior { dim, lower, upper } => {
                                let (ls, lo) = traces_of(lower);
                                let (us, up) = traces_of(upper);
                                // Lower cell's upper trace is the left
                                // state — same convention as the barrier
                                // path, so F* is bit-identical.
                                let (fl, fu) = (2 * dim + 1, 2 * dim);
                                let mut left: (&[f64], &[f64]) = (&lo.qface[fl], &lo.fface[fl]);
                                let mut right: (&[f64], &[f64]) = (&up.qface[fu], &up.fface[fu]);
                                // The face cadence is the *min* adjacent
                                // level, so at most one side is coarse.
                                let lo_mis = (splan.shard_level(ls) as usize) > c;
                                let up_mis = (splan.shard_level(us) as usize) > c;
                                if lo_mis || up_mis {
                                    let (cs, cell, full, fi) = if lo_mis {
                                        (ls, lower, lo, fl)
                                    } else {
                                        (us, upper, up, fu)
                                    };
                                    let h = dep_guard(&hguards, cs);
                                    let hi = h
                                        .cells
                                        .binary_search(&(cell - splan.shard_range(cs).start))
                                        // PANIC-OK: internal invariant —
                                        // `build_graph_plan` registered a
                                        // halo slot for every coarse cell
                                        // bordering a finer face.
                                        .expect("halo slot for coarse cell");
                                    // PANIC-OK: internal invariant — a
                                    // mismatched face implies a
                                    // multi-level plan, whose workers
                                    // carry halo scratch.
                                    let hs = ws.halo.as_mut().expect("halo scratch");
                                    let composed =
                                        sub_window_trace(plan, hs, full, &h.half[hi], fi, sub);
                                    if lo_mis {
                                        left = composed;
                                    } else {
                                        right = composed;
                                    }
                                }
                                rusanov_face(plan, pde, dim, left.0, left.1, right.0, right.1, dst);
                                if lo_mis || up_mis {
                                    let acc = acc.get_or_insert_with(|| {
                                        // PANIC-OK: poisoning cascades
                                        // (see above).
                                        f_star_acc[s].write().unwrap()
                                    });
                                    let a = &mut acc[i * face_len..(i + 1) * face_len];
                                    if sub == 0 {
                                        a.copy_from_slice(dst);
                                    } else {
                                        for (av, dv) in a.iter_mut().zip(dst.iter()) {
                                            *av += dv;
                                        }
                                    }
                                }
                            }
                            FaceTopo::Boundary {
                                dim,
                                cell,
                                side,
                                kind,
                            } => {
                                let (_, own) = traces_of(cell);
                                let fi = 2 * dim + side;
                                boundary_face(
                                    plan,
                                    pde,
                                    dim,
                                    side,
                                    kind,
                                    &own.qface[fi],
                                    &own.fface[fi],
                                    &mut ws.boundary,
                                    dst,
                                );
                            }
                        }
                    }
                }
                // Six face lifts per cell at the cluster's sub-step (the
                // volume update already ran in Predict), reading F* from
                // the owning shards' segments — the accumulated
                // coarse-window flux for faces finer than this cluster's
                // window.
                LtsTask::Apply { shard: s, .. } => {
                    let level = splan.shard_level(s);
                    let range = splan.shard_range(s);
                    // PANIC-OK: poisoning cascades (see above).
                    let traces = trace_shards[s].read().unwrap();
                    // Lock hierarchy: every f_star guard (ascending),
                    // then every f_star_acc guard (ascending) — see the
                    // ORDERING note in the doc comment.
                    let owners = splan.apply_deps(s);
                    let fguards: Vec<_> = owners
                        .iter()
                        // PANIC-OK: poisoning cascades (see above).
                        .map(|&t| (t, f_star[t].read().unwrap()))
                        .collect();
                    let aguards: Vec<_> = if multi {
                        owners
                            .iter()
                            // PANIC-OK: poisoning cascades (see above).
                            .map(|&t| (t, f_star_acc[t].read().unwrap()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    // PANIC-OK: poisoning cascades (see above).
                    let mut state = state_shards[s].lock().unwrap();
                    for (i, (q, own)) in state.iter_mut().zip(traces.iter()).enumerate() {
                        let c = range.start + i;
                        for face in Face::ALL {
                            let id = splan.cell_faces(c)[face.index()];
                            let owner = splan.face_owner(id);
                            let local = id - splan.owned_faces(owner).start;
                            let seg: &[f64] = if splan.face_cadence(id) < level {
                                &dep_guard(&aguards, owner)[..]
                            } else {
                                &dep_guard(&fguards, owner)[..]
                            };
                            let fstar = &seg[local * face_len..(local + 1) * face_len];
                            apply_face(
                                plan,
                                face.dim,
                                face.side,
                                fstar,
                                &own.fface[face.index()],
                                q,
                            );
                        }
                    }
                }
            },
        );

        // Advance the per-cluster clocks (LTS only — none exist under
        // global stepping): a level-L cluster took `2^(Lmax−L)` sub-steps
        // and all clusters meet at `t + dt`.
        let t_end = self.time + dt;
        for (level, clock) in self.lts_clocks.iter_mut().enumerate() {
            clock.0 = t_end;
            clock.1 += (num_slots >> level) as u64;
        }
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
            .with_pipeline(PipelineMode::Sharded)
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
            .with_pipeline(PipelineMode::Sharded)
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
            12 * std::mem::size_of::<AlignedVec>(),
            "FaceTraces holds the twelve face tensors only"
        );
        for (stepping, levels) in [(SteppingMode::Global, 1), (SteppingMode::Lts, 2)] {
            let engine = layered_engine(stepping, 4.0);
            let cells = engine.mesh.num_cells();
            let rows = engine.plan.face.m_pad();
            assert_eq!(rows, engine.plan.flux_face.m_pad());
            let entries = check_face_storage(engine, rows, rows, &format!("{stepping:?}"));
            assert_eq!(entries > cells, levels > 1, "{stepping:?}");
        }
        // Elastic, m = 21 with 9 evolved rows: the flux traces keep the
        // evolved rows' padded width only.
        use aderdg_tensor::Isa;
        for (width, q_rows, f_rows) in [
            (Isa::Baseline, 22, 10),
            (Isa::Avx2, 24, 12),
            (Isa::Avx512, 24, 16),
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

        let barrier = Engine::new(
            StructuredMesh::unit_cube(2),
            aderdg_pde::Acoustic,
            EngineConfig::new(3).with_pipeline(PipelineMode::Barrier),
        );
        assert!(barrier.shard_plan().is_none());
        assert!(barrier.graph.get().is_none(), "barrier path builds no plan");
    }
}
