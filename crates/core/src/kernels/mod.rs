//! The Space-Time Predictor kernel layer.
//!
//! All kernels share one contract: given the cell's current DOFs (padded
//! AoS), the time step, and an optional projected point source, produce
//!
//! * `qavg` — the time-integrated state `q̄ = ∫ q dt` (eq. 4),
//! * `favg[d]` — the time-integrated flux tensors `F̄_d = F_d(q̄)`
//!   (linearity, Sec. IV-B),
//! * `qface`, `fface` — `q̄` (all `m` rows) and the normal flux (its
//!   evolved rows, [`StpPlan::flux_face`]) projected onto the six faces
//!   (inputs of the corrector / Riemann solve, Sec. II-B).
//!
//! The variants differ only in algorithm and data layout — which is the
//! paper's entire subject — and must agree to floating-point tolerance,
//! which the registry-driven equivalence tests enforce for **every**
//! registered kernel.
//!
//! The layer is open: a kernel is any implementation of [`StpKernel`]
//! (name, scratch factory, run). Adding a named variant is one new module
//! plus one entry in the fixed table of
//! [`KernelRegistry`](crate::registry::KernelRegistry); the engine, the
//! solver spec and the equivalence tests resolve or enumerate kernels
//! through that table and pick the newcomer up automatically. The figure
//! harnesses sweep the paper's four variants through
//! [`KernelVariant`](crate::plan::KernelVariant), whose cache-model replays
//! live in [`traces`](crate::traces).
//!
//! Every algorithm has exactly one body: [`onthefly`] is SplitCK's body
//! with transposed user-function calls. Under the engine's block pipeline
//! all but [`aosoa`] run the trait's per-cell `run_block` loop; AoSoA
//! SplitCK's one body runs over stacked cells, so its per-cell `run` is
//! the one-cell block. A `--block-size` A/B therefore only measures
//! something for `aosoa_splitck`.

pub mod aosoa;
pub mod generic;
pub mod log;
pub mod onthefly;
#[cfg(test)]
mod poison_tests;
pub mod splitck;
#[cfg(test)]
mod test_support;

use crate::block::BlockInputs;
use crate::faceproj;
use crate::plan::{CellSource, StpPlan};
use aderdg_pde::LinearPde;
use aderdg_tensor::AlignedVec;
use std::any::Any;

/// Inputs of one predictor invocation.
#[derive(Debug, Clone, Copy)]
pub struct StpInputs<'a> {
    /// Current DOFs in padded AoS layout (`plan.aos`).
    pub q0: &'a [f64],
    /// Time-step length.
    pub dt: f64,
    /// Point source projected onto this cell, if any.
    pub source: Option<&'a CellSource>,
}

/// Outputs of one predictor invocation (buffers owned by the caller and
/// reused across cells).
#[derive(Debug, Clone)]
pub struct StpOutputs {
    /// Time-integrated DOFs, padded AoS.
    pub qavg: AlignedVec,
    /// Time-integrated flux tensor per dimension, padded AoS.
    pub favg: [AlignedVec; 3],
    /// `q̄` projected onto the six faces (−x, +x, −y, +y, −z, +z), at
    /// [`StpPlan::face`].
    pub qface: [Box<[f64]>; 6],
    /// Normal time-integrated flux projected onto the six faces, at
    /// [`StpPlan::flux_face`] (evolved rows only).
    pub fface: [Box<[f64]>; 6],
}

impl StpOutputs {
    /// Allocates zeroed output buffers matching `plan`.
    pub fn new(plan: &StpPlan) -> Self {
        let FaceTraces { qface, fface } = FaceTraces::new(plan);
        Self {
            qface,
            fface,
            ..Self::volume_only(plan)
        }
    }

    /// Zeroed volume tensors matching `plan`, with empty face boxes: the
    /// graph driver's per-thread outputs, into which each cell's own
    /// [`FaceTraces`] are swapped before a kernel writes them.
    pub(crate) fn volume_only(plan: &StpPlan) -> Self {
        let vol = plan.aos.len();
        Self {
            qavg: AlignedVec::zeroed(vol),
            favg: std::array::from_fn(|_| AlignedVec::zeroed(vol)),
            qface: Default::default(),
            fface: Default::default(),
        }
    }
}

/// The part of one cell's [`StpOutputs`] that outlives its predictor
/// task: the twelve face traces the Riemann solve and the face lifts
/// read. The volume tensors are consumed by the in-place volume update
/// while still in cache and never stored per cell.
///
/// Face tensors are plain zeroed boxes, not 64-byte [`AlignedVec`]s: no
/// face kernel needs the alignment (`SimdF64::load` is unaligned), and a
/// zeroed `Vec` takes the allocator's `calloc` path, where an aligned
/// zeroed allocation is `posix_memalign` plus a `memset` per tensor.
#[derive(Debug)]
pub(crate) struct FaceTraces {
    /// `q̄` on the six faces, as [`StpOutputs::qface`].
    pub qface: [Box<[f64]>; 6],
    /// Normal flux on the six faces, as [`StpOutputs::fface`].
    pub fface: [Box<[f64]>; 6],
}

impl FaceTraces {
    /// Allocates zeroed face traces matching `plan`.
    pub fn new(plan: &StpPlan) -> Self {
        let (face, flux) = (plan.face.len(), plan.flux_face.len());
        let zeroed = |len: usize| vec![0.0; len].into_boxed_slice();
        Self {
            qface: std::array::from_fn(|_| zeroed(face)),
            fface: std::array::from_fn(|_| zeroed(flux)),
        }
    }

    /// Exchanges these buffers with `out`'s face buffers — no face data
    /// is copied. Swapping in, running a kernel and swapping back leaves
    /// the kernel's traces here (every kernel overwrites all of its
    /// outputs, so what was swapped in is never read).
    pub fn swap(&mut self, out: &mut StpOutputs) {
        std::mem::swap(&mut self.qface, &mut out.qface);
        std::mem::swap(&mut self.fface, &mut out.fface);
    }
}

/// Reusable, kernel-specific scratch buffers (their sizes *are* the
/// memory-footprint story of the paper).
///
/// Object-safe so the engine can hold scratch for any registered kernel;
/// kernels recover their concrete type through [`StpScratch::as_any_mut`].
pub trait StpScratch: Send {
    /// Total bytes of temporary storage this kernel allocated — the
    /// measured counterpart of the Sec. IV-A footprint formulas.
    fn footprint_bytes(&self) -> usize;

    /// Downcast hook for [`StpKernel::run`] implementations.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements [`StpScratch`] for a concrete scratch type that already has
/// inherent `footprint_bytes(&self) -> usize`.
macro_rules! impl_stp_scratch {
    ($ty:ty) => {
        impl crate::kernels::StpScratch for $ty {
            fn footprint_bytes(&self) -> usize {
                <$ty>::footprint_bytes(self)
            }

            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
    };
}
pub(crate) use impl_stp_scratch;

/// Downcasts a `&mut dyn StpScratch` to the concrete scratch type a kernel
/// allocated in its `make_scratch`.
///
/// # Panics
/// If `scratch` was produced by a different kernel — pairing scratch and
/// kernel is the caller's contract, as it was with the former closed enum.
pub fn downcast_scratch<S: StpScratch + 'static>(scratch: &mut dyn StpScratch) -> &mut S {
    scratch
        .as_any_mut()
        .downcast_mut::<S>()
        // PANIC-OK: documented contract (`# Panics` above) — mispairing
        // scratch and kernel is a programming error.
        .expect("scratch buffer does not belong to this kernel")
}

/// An open-ended Space-Time Predictor implementation.
///
/// Object-safe: the engine and the figure harnesses work exclusively with
/// `&'static dyn StpKernel` resolved from the
/// [`KernelRegistry`](crate::registry::KernelRegistry).
pub trait StpKernel: Send + Sync {
    /// Registry key and specification-file name (e.g. `splitck`).
    fn name(&self) -> &'static str;

    /// Human-readable label used by the figure harnesses (defaults to
    /// [`name`](StpKernel::name)).
    fn label(&self) -> &'static str {
        self.name()
    }

    /// Allocates this kernel's scratch buffers for `plan`.
    ///
    /// Contract: the scratch serves every plan with the same
    /// [`StpConfig`](crate::plan::StpConfig) bitwise as a fresh one, so
    /// it may cache nothing else of `plan` (cell size, GEMM backend)
    /// without checking it on each run — the graph driver keeps one
    /// block scratch per thread and reuses it across engines.
    fn make_scratch(&self, plan: &StpPlan) -> Box<dyn StpScratch>;

    /// Runs the predictor. `scratch` must come from this kernel's
    /// [`make_scratch`](StpKernel::make_scratch).
    fn run(
        &self,
        plan: &StpPlan,
        pde: &dyn LinearPde,
        scratch: &mut dyn StpScratch,
        inputs: &StpInputs<'_>,
        out: &mut StpOutputs,
    );

    /// Allocates scratch for block invocations of up to `capacity` cells
    /// ([`run_block`](StpKernel::run_block)).
    ///
    /// Contract: the result is also valid scratch for one-cell
    /// [`run`](StpKernel::run) calls, bitwise-equal to a run on
    /// [`make_scratch`](StpKernel::make_scratch)'s — the engine's LTS
    /// half-window runs reuse a worker's block scratch. The default
    /// returns per-cell scratch, matching the default `run_block`
    /// fallback; a kernel with a real block implementation overrides both
    /// together and returns its `run` scratch type sized for `capacity`.
    fn make_block_scratch(&self, plan: &StpPlan, capacity: usize) -> Box<dyn StpScratch> {
        let _ = capacity;
        self.make_scratch(plan)
    }

    /// Runs the predictor over a staged cell block, writing one
    /// [`StpOutputs`] per staged cell. `scratch` must come from this
    /// kernel's [`make_block_scratch`](StpKernel::make_block_scratch)
    /// with a capacity of at least `inputs.len()`.
    ///
    /// The default loops [`run`](StpKernel::run) over the block's cells,
    /// so every kernel works under the engine's block pipeline; a variant
    /// opts into genuine batching (amortized operator loads, batched
    /// GEMMs) by overriding this method with the same body over stacked
    /// cells — today only [`aosoa`].
    fn run_block(
        &self,
        plan: &StpPlan,
        pde: &dyn LinearPde,
        scratch: &mut dyn StpScratch,
        inputs: &BlockInputs<'_>,
        out: &mut [StpOutputs],
    ) {
        assert_eq!(inputs.len(), out.len(), "one output per staged cell");
        for (i, cell_out) in out.iter_mut().enumerate() {
            self.run(plan, pde, scratch, &inputs.cell_inputs(i), cell_out);
        }
    }

    /// Bytes of temporary storage this kernel would allocate under `plan`.
    fn footprint_bytes(&self, plan: &StpPlan) -> usize {
        self.make_scratch(plan).footprint_bytes()
    }
}

impl std::fmt::Debug for dyn StpKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StpKernel")
            .field("name", &self.name())
            .finish()
    }
}

/// Shared epilogue: projects `qavg` (all rows) and `favg` (the evolved
/// rows of [`StpPlan::flux_face`]) onto the six faces.
pub(crate) fn project_faces(plan: &StpPlan, out: &mut StpOutputs) {
    for d in 0..3 {
        let (lo, hi) = out.qface[2 * d..].split_at_mut(1);
        faceproj::project_dim(plan, &out.qavg, d, plan.face, &mut lo[0], &mut hi[0]);
        let (lo, hi) = out.fface[2 * d..].split_at_mut(1);
        faceproj::project_dim(
            plan,
            &out.favg[d],
            d,
            plan.flux_face,
            &mut lo[0],
            &mut hi[0],
        );
    }
}
