//! The AoSoA SplitCK predictor — paper Sec. V.
//!
//! Same dimension-split Cauchy-Kowalewsky algorithm as
//! [`splitck`](crate::kernels::splitck), but on the hybrid
//! Array-of-Struct-of-Array layout `A[k3][k2][s][k1]`:
//!
//! * the x-derivative becomes a *transposed* GEMM against the precomputed
//!   padded `Dᵀ` (`Cᵀ = Bᵀ Aᵀ`, Sec. V-B case 1),
//! * y/z-derivatives fuse the `(s, k1)` resp. `(k2, s, k1)` dimensions into
//!   one wide GEMM operand (case 2, Fig. 7),
//! * user functions receive whole x-lines as SoA chunks and run their
//!   vectorized variants (Fig. 8) — this is what moves the ≈10 % scalar
//!   user-function FLOPs of the other variants into packed instructions,
//! * kernel inputs are transposed AoS → AoSoA on entry and outputs back on
//!   exit, because the rest of the engine keeps the AoS API (Sec. V-B).

use super::{project_faces, StpInputs, StpOutputs};
use crate::block::BlockInputs;
use crate::plan::{CellSource, StpPlan};
use aderdg_gemm::{Gemm, GemmBatch};
use aderdg_pde::LinearPde;
use aderdg_tensor::simd::{dispatch, LaneKernel, SimdF64};
use aderdg_tensor::{aos_to_aosoa, aosoa_to_aos, aosoa_to_aos_rows, AlignedVec};

/// Temporaries of the AoSoA kernel: the SplitCK working set in hybrid
/// layout plus one buffer for the hybrid-layout time average, stacked
/// over the cells of a block (cell `c` occupies
/// `[c · aosoa.len(), (c + 1) · aosoa.len())` of every buffer; the
/// per-cell kernel is the one-cell block).
///
/// No buffer needs clearing between invocations: every entry a sweep
/// reads was written earlier in the same invocation.
#[derive(Debug, Clone)]
pub struct AosoaScratch {
    /// Maximum cells per invocation.
    capacity: usize,
    /// Current Taylor term, AoSoA.
    p: AlignedVec,
    /// Next Taylor term, AoSoA.
    ptemp: AlignedVec,
    /// Flux tensor (reused across dimensions), AoSoA.
    flux: AlignedVec,
    /// Gradient tensor (ncp only), AoSoA.
    grad_q: AlignedVec,
    /// Time-averaged state in AoSoA (transposed to AoS on exit).
    qavg_h: AlignedVec,
    /// [`StpPlan::aosoa_flux_gemms`] of the plan this scratch was made
    /// for, keyed by the PDE's evolved-row count (the plan does not know
    /// it; built on first use).
    flux_gemms: Option<(usize, [Gemm; 3])>,
}

impl AosoaScratch {
    /// Allocates the hybrid-layout working set for one cell.
    pub fn new(plan: &StpPlan) -> Self {
        Self::with_capacity(plan, 1)
    }

    /// Allocates the stacked working set for up to `capacity` cells.
    pub fn with_capacity(plan: &StpPlan, capacity: usize) -> Self {
        assert!(capacity > 0, "block scratch needs capacity >= 1");
        let tensor = || AlignedVec::zeroed(capacity * plan.aosoa.len());
        Self {
            capacity,
            p: tensor(),
            ptemp: tensor(),
            flux: tensor(),
            grad_q: tensor(),
            qavg_h: tensor(),
            flux_gemms: None,
        }
    }

    /// Bytes of temporary storage.
    pub fn footprint_bytes(&self) -> usize {
        (self.p.len() * 5) * 8
    }

    /// Fills every tensor with NaN (hook of the no-stale-data test).
    #[cfg(test)]
    pub(super) fn poison(&mut self) {
        for t in [
            &mut self.p,
            &mut self.ptemp,
            &mut self.flux,
            &mut self.grad_q,
            &mut self.qavg_h,
        ] {
            t.fill(f64::NAN);
        }
    }
}

/// Derivative along `d` of all `m` rows of `cells` stacked AoSoA tensors
/// (the ncp gradient) via **one** batched GEMM call: the per-cell slice
/// batches of the hybrid layout extend contiguously across stacked cells
/// (batches · stride = aosoa.len()), so the whole block becomes a single
/// uniformly strided batch sharing the operator operand. For `d = 0` the
/// batch is row-stacked with a shared `Dᵀ` and collapses into one tall
/// GEMM ([`aderdg_gemm::GemmBatch::fuse_rows`]); the z sweep is one GEMM
/// per cell at the cell stride.
fn derive_gemm_aosoa(plan: &StpPlan, d: usize, cells: usize, src: &[f64], dst: &mut [f64]) {
    let gemm = &plan.gemm_aosoa[d];
    let (batches, stride) = match d {
        2 => (1, plan.aosoa.len()),
        _ => plan.aosoa_batches(d),
    };
    if d == 0 {
        // Transposed form: C(block) = A(block) · Dᵀ_padded, Dᵀ shared.
        let batch = GemmBatch::shared_b(cells * batches, stride, stride);
        gemm.execute_batched(&batch, src, &plan.diff_t_padded, dst);
    } else {
        // Fused-dimension form: C(block) = D · B(block), D shared.
        let batch = GemmBatch::shared_a(cells * batches, stride, stride);
        gemm.execute_batched(&batch, &plan.basis.diff, src, dst);
    }
}

/// Derivative along `d` of the evolved rows of `cells` stacked flux
/// tensors into the evolved rows of `dst`, on
/// [`StpPlan::aosoa_flux_gemms`]: overwriting for `d = 0`, accumulating
/// for `d ≥ 1`. The parameter rows of `dst` are not touched.
fn derive_flux_aosoa(
    plan: &StpPlan,
    gemms: &[Gemm; 3],
    d: usize,
    cells: usize,
    src: &[f64],
    dst: &mut [f64],
) {
    let n = plan.n();
    let block = plan.m() * plan.aosoa.n_pad();
    match d {
        0 => {
            let batch = GemmBatch::shared_b(cells * n * n, block, block);
            gemms[0].execute_batched(&batch, src, &plan.diff_t_padded, dst);
        }
        1 => {
            let batch = GemmBatch::shared_a(cells * n, n * block, n * block);
            gemms[1].execute_batched(&batch, &plan.basis.diff, src, dst);
        }
        _ => {
            // The `k2` slices of a cell interleave (row stride n · block,
            // slice offset block), which a strided batch cannot express.
            for c in 0..cells {
                for k2 in 0..n {
                    let off = c * plan.aosoa.len() + k2 * block;
                    gemms[2].execute_offset(&plan.basis.diff, 0, src, off, dst, off);
                }
            }
        }
    }
}

/// Vectorized user-function sweep over `planes` x-lines at the plan's ISA
/// level: one user-function call per line (Sec. V-C) — the flux of `src`,
/// or with `grad` the non-conservative product. Only the `vars` evolved
/// rows of each line of `dst` are written (nothing downstream reads the
/// zero parameter rows of a flux). Stacked cells are swept by passing
/// `cells · n²` planes.
#[allow(clippy::too_many_arguments)]
fn user_fn_sweep(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    vars: usize,
    d: usize,
    planes: usize,
    src: &[f64],
    grad: Option<&[f64]>,
    dst: &mut [f64],
) {
    let (n, n_pad, isa) = (plan.n(), plan.aosoa.n_pad(), plan.isa());
    let block = plan.m() * n_pad;
    for plane in 0..planes {
        let line = plane * block..(plane + 1) * block;
        let out = &mut dst[line.start..line.start + vars * n_pad];
        match grad {
            None => pde.flux_lanes(isa, d, &src[line], out, n, n_pad),
            Some(g) => pde.ncp_lanes(isa, d, &src[line.clone()], &g[line], out, n, n_pad),
        }
    }
}

/// `y ← c·x` (`accumulate = false`) or `y ← y + c·x` on the leading `run`
/// doubles of every `stride`-long segment — the evolved rows of the
/// `(k3, k2)` blocks — with an unfused multiply and add, so the result
/// does not depend on the ISA level.
struct RowsAxpy<'a> {
    c: f64,
    x: &'a [f64],
    y: &'a mut [f64],
    run: usize,
    stride: usize,
    accumulate: bool,
}

impl LaneKernel for RowsAxpy<'_> {
    /// Plain element loops, vectorized by the compiler at the wrapper's
    /// ISA level (`S` only selects it): written over explicit `S` lane
    /// groups, LLVM re-vectorizes this body *across* groups with
    /// gather/scatter and runs 3× slower.
    #[inline(always)]
    fn run<S: SimdF64>(self) {
        let c = self.c;
        let (xs, ys) = (self.x.chunks(self.stride), self.y.chunks_mut(self.stride));
        for (y, x) in ys.zip(xs) {
            let lanes = y[..self.run].iter_mut().zip(&x[..self.run]);
            if self.accumulate {
                lanes.for_each(|(y, x)| *y += c * x);
            } else {
                lanes.for_each(|(y, x)| *y = c * x);
            }
        }
    }
}

/// What the one predictor body reads per cell: [`StpInputs`] is the
/// one-cell case of [`BlockInputs`].
trait CellInputs {
    fn cells(&self) -> usize;
    fn dt(&self) -> f64;
    fn q0(&self, c: usize) -> &[f64];
    fn source(&self, c: usize) -> Option<&CellSource>;
}

impl CellInputs for StpInputs<'_> {
    fn cells(&self) -> usize {
        1
    }
    fn dt(&self) -> f64 {
        self.dt
    }
    fn q0(&self, _c: usize) -> &[f64] {
        self.q0
    }
    fn source(&self, _c: usize) -> Option<&CellSource> {
        self.source
    }
}

impl CellInputs for BlockInputs<'_> {
    fn cells(&self) -> usize {
        self.len()
    }
    fn dt(&self) -> f64 {
        self.dt
    }
    fn q0(&self, c: usize) -> &[f64] {
        self.block.cell(c)
    }
    fn source(&self, c: usize) -> Option<&CellSource> {
        self.sources[c]
    }
}

/// The AoSoA SplitCK predictor over stacked cells.
///
/// This is the genuinely batched path of the paper's narrative: the
/// per-cell slice batches of the hybrid layout extend contiguously across
/// the stacked cells, so a derivative sweep of the whole block is one
/// batched GEMM call that loads the operator matrix once, and the
/// vectorized user functions sweep `cells · n²` x-lines back-to-back.
/// Everything between the GEMMs runs at the plan's ISA level, and only the
/// evolved rows are differentiated, accumulated and transposed out: the
/// parameter rows are copied into place once on entry.
fn stp_aosoa_cells(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    scratch: &mut AosoaScratch,
    inputs: &dyn CellInputs,
    out: &mut [StpOutputs],
) {
    let cells = inputs.cells();
    assert_eq!(cells, out.len(), "one output per staged cell");
    assert!(
        cells <= scratch.capacity,
        "block of {cells} cells exceeds scratch capacity {}",
        scratch.capacity
    );
    let n = plan.n();
    let vars = pde.num_vars();
    let n_pad = plan.aosoa.n_pad();
    let block = plan.m() * n_pad;
    let cl = plan.aosoa.len();
    let planes = cells * n * n;
    let has_ncp = pde.has_ncp();
    let coef = plan.taylor(inputs.dt());
    let AosoaScratch {
        p,
        ptemp,
        flux,
        grad_q,
        qavg_h,
        flux_gemms,
        ..
    } = scratch;
    let gemms = match flux_gemms {
        Some((rows, gemms)) if *rows == vars => gemms,
        slot => &slot.insert((vars, plan.aosoa_flux_gemms(vars))).1,
    };
    debug_assert!(
        gemms[0].spec().alpha == plan.inv_dx[0],
        "another plan's scratch"
    );
    // Evolved rows of every staged (k3, k2) block, as one lane kernel call.
    let axpy = |c: f64, x: &[f64], y: &mut [f64], accumulate: bool| {
        let rows = RowsAxpy {
            c,
            x: &x[..planes * block],
            y: &mut y[..planes * block],
            run: vars * n_pad,
            stride: block,
            accumulate,
        };
        dispatch(plan.isa(), n_pad, rows);
    };

    // Entry transpose AoS → AoSoA (Sec. V-B: cheaper than per-call
    // on-the-fly transposes; the ablation bench quantifies it), cell by
    // cell into the stacked buffer. The material parameters never change:
    // their rows — the contiguous runs s ∈ [vars, m) of each (k3, k2)
    // block — go into the other two state tensors once, here.
    for c in 0..cells {
        let cell = &mut p[c * cl..(c + 1) * cl];
        aos_to_aosoa(inputs.q0(c), &plan.aos, cell, &plan.aosoa);
    }
    for plane in 0..planes {
        let params = plane * block + vars * n_pad..(plane + 1) * block;
        ptemp[params.clone()].copy_from_slice(&p[params.clone()]);
        qavg_h[params.clone()].copy_from_slice(&p[params]);
    }
    axpy(coef[0], p, qavg_h, false);

    for o in 0..n {
        for d in 0..3 {
            user_fn_sweep(plan, pde, vars, d, planes, p, None, flux);
            derive_flux_aosoa(plan, gemms, d, cells, flux, ptemp);
            if has_ncp {
                derive_gemm_aosoa(plan, d, cells, p, grad_q);
                // Vectorized ncp per x-line (flux is the output buffer),
                // accumulated into ptemp.
                user_fn_sweep(plan, pde, vars, d, planes, p, Some(grad_q), flux);
                axpy(1.0, flux, ptemp, true);
            }
        }
        for c in 0..cells {
            let Some(src) = inputs.source(c) else {
                continue;
            };
            // node_coeffs are (k3, k2, k1)-ordered; address the AoSoA slot
            // within cell c's stacked range.
            for (plane, coeffs) in src.node_coeffs.chunks_exact(n).enumerate() {
                for (k1, &coeff) in coeffs.iter().enumerate() {
                    let base = c * cl + plane * block + k1;
                    for (s, &a) in src.derivs[o].iter().take(vars).enumerate() {
                        ptemp[base + s * n_pad] += coeff * a;
                    }
                }
            }
        }
        std::mem::swap(p, ptemp);
        axpy(coef[o + 1], p, qavg_h, true);
    }

    // Exit transposes: q̄ per cell, then the recomputed time-averaged
    // fluxes (one block-wide vectorized sweep per dimension; their
    // parameter rows are zero and leave as zeros) back to the engine's
    // AoS layout. The transposes write every entry of their destination.
    for (c, cell_out) in out.iter_mut().enumerate() {
        let cell = &qavg_h[c * cl..(c + 1) * cl];
        aosoa_to_aos(cell, &plan.aosoa, &mut cell_out.qavg, &plan.aos);
    }
    for d in 0..3 {
        user_fn_sweep(plan, pde, vars, d, planes, qavg_h, None, flux);
        for (c, cell_out) in out.iter_mut().enumerate() {
            let cell = &flux[c * cl..(c + 1) * cl];
            aosoa_to_aos_rows(cell, &plan.aosoa, &mut cell_out.favg[d], &plan.aos, vars);
        }
    }
    for cell_out in out.iter_mut() {
        project_faces(plan, cell_out);
    }
}

/// Runs the AoSoA SplitCK predictor on one cell — the one-cell block.
pub fn stp_aosoa(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    scratch: &mut AosoaScratch,
    inputs: &StpInputs<'_>,
    out: &mut StpOutputs,
) {
    stp_aosoa_cells(plan, pde, scratch, inputs, std::slice::from_mut(out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generic::{stp_generic, GenericScratch};
    use crate::plan::StpConfig;
    use aderdg_pde::{Acoustic, AdvectionNcpSystem, AdvectionSystem, Elastic, LinearPde, Material};

    fn random_state(plan: &StpPlan, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let m = plan.m();
        let m_pad = plan.aos.m_pad();
        let mut q = vec![0.0; plan.aos.len()];
        for k in 0..plan.n().pow(3) {
            for s in 0..m {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                q[k * m_pad + s] = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            }
        }
        q
    }

    fn compare_with_generic(
        plan: &StpPlan,
        pde: &dyn LinearPde,
        q0: &[f64],
        source: Option<&CellSource>,
        tol: f64,
    ) {
        let inputs = StpInputs {
            q0,
            dt: 0.01,
            source,
        };
        let mut out_g = StpOutputs::new(plan);
        stp_generic(
            plan,
            pde,
            &mut GenericScratch::new(plan),
            &inputs,
            &mut out_g,
        );
        let mut out_h = StpOutputs::new(plan);
        stp_aosoa(plan, pde, &mut AosoaScratch::new(plan), &inputs, &mut out_h);
        for (i, (a, b)) in out_h.qavg.iter().zip(out_g.qavg.iter()).enumerate() {
            assert!(
                (a - b).abs() < tol * (1.0 + b.abs()),
                "qavg[{i}]: {a} vs {b}"
            );
        }
        for d in 0..3 {
            for (i, (a, b)) in out_h.favg[d].iter().zip(out_g.favg[d].iter()).enumerate() {
                assert!(
                    (a - b).abs() < tol * (1.0 + b.abs()),
                    "favg{d}[{i}]: {a} vs {b}"
                );
            }
        }
        for f in 0..6 {
            for (a, b) in out_h.qface[f].iter().zip(out_g.qface[f].iter()) {
                assert!((a - b).abs() < tol * (1.0 + b.abs()));
            }
            for (a, b) in out_h.fface[f].iter().zip(out_g.fface[f].iter()) {
                assert!((a - b).abs() < tol * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn aosoa_matches_generic_advection() {
        for (n, m) in [(3, 2), (5, 6), (8, 3)] {
            let plan = StpPlan::new(StpConfig::new(n, m), [1.25, 1.0, 0.8]);
            let pde = AdvectionSystem::new(m, [-0.4, 0.7, 0.3]);
            let q0 = random_state(&plan, (7 * n + m) as u64);
            compare_with_generic(&plan, &pde, &q0, None, 1e-11);
        }
    }

    #[test]
    fn aosoa_matches_generic_ncp() {
        let plan = StpPlan::new(StpConfig::new(4, 3), [1.0; 3]);
        let pde = AdvectionNcpSystem::new(3, [0.6, -0.1, 0.9]);
        let q0 = random_state(&plan, 21);
        compare_with_generic(&plan, &pde, &q0, None, 1e-11);
    }

    #[test]
    fn aosoa_matches_generic_acoustic() {
        let plan = StpPlan::new(StpConfig::new(5, 6), [1.0; 3]);
        let pde = Acoustic;
        let mut q0 = random_state(&plan, 3);
        let m_pad = plan.aos.m_pad();
        for k in 0..125 {
            q0[k * m_pad + 4] = 1.1 + 0.02 * (k % 7) as f64;
            q0[k * m_pad + 5] = 2.5;
        }
        compare_with_generic(&plan, &pde, &q0, None, 1e-11);
    }

    #[test]
    fn aosoa_matches_generic_elastic_21_quantities() {
        // The paper's benchmark configuration: m = 21, curvilinear metric.
        let plan = StpPlan::new(StpConfig::new(4, 21), [1.0; 3]);
        let pde = Elastic;
        let mut q0 = random_state(&plan, 17);
        let m_pad = plan.aos.m_pad();
        let mat = Material {
            rho: 2.7,
            cp: 6.0,
            cs: 3.46,
        };
        for k in 0..64 {
            let mut jac = Elastic::IDENTITY_JAC;
            // Mildly curvilinear, per-node varying metric.
            jac[1] = 0.05 * ((k % 5) as f64 - 2.0);
            jac[5] = 0.03 * ((k % 3) as f64 - 1.0);
            Elastic::set_params(&mut q0[k * m_pad..k * m_pad + 21], mat, &jac);
        }
        compare_with_generic(&plan, &pde, &q0, None, 1e-10);
    }

    #[test]
    fn aosoa_matches_generic_with_point_source() {
        let plan = StpPlan::new(StpConfig::new(4, 2), [1.0; 3]);
        let pde = AdvectionSystem::new(2, [0.2, 0.5, -0.7]);
        let q0 = random_state(&plan, 31);
        let derivs: Vec<Vec<f64>> = (0..=4)
            .map(|o| vec![0.1 * (o as f64 + 1.0), -0.05 * o as f64])
            .collect();
        let src = CellSource::project(&plan, [0.7, 0.2, 0.4], [1.0; 3], derivs);
        compare_with_generic(&plan, &pde, &q0, Some(&src), 1e-11);
    }

    #[test]
    fn footprint_comparable_to_splitck() {
        use crate::kernels::splitck::SplitCkScratch;
        let plan = StpPlan::new(StpConfig::new(8, 21), [1.0; 3]);
        let h = AosoaScratch::new(&plan).footprint_bytes();
        let s = SplitCkScratch::new(&plan).footprint_bytes();
        // Same O(N³m) class; ratio bounded by padding differences.
        let ratio = h as f64 / s as f64;
        assert!(ratio > 0.5 && ratio < 3.0, "ratio={ratio}");
    }
}

use super::{downcast_scratch, impl_stp_scratch, StpKernel, StpScratch};

impl_stp_scratch!(AosoaScratch);

/// Registry entry for the AoSoA SplitCK variant with vectorized user
/// functions (Sec. V).
#[derive(Debug, Clone, Copy)]
pub struct AosoaKernel;

impl StpKernel for AosoaKernel {
    fn name(&self) -> &'static str {
        "aosoa_splitck"
    }

    fn label(&self) -> &'static str {
        "AoSoA SplitCK"
    }

    fn make_scratch(&self, plan: &StpPlan) -> Box<dyn StpScratch> {
        Box::new(AosoaScratch::new(plan))
    }

    fn run(
        &self,
        plan: &StpPlan,
        pde: &dyn LinearPde,
        scratch: &mut dyn StpScratch,
        inputs: &StpInputs<'_>,
        out: &mut StpOutputs,
    ) {
        stp_aosoa(plan, pde, downcast_scratch(scratch), inputs, out);
    }

    fn make_block_scratch(&self, plan: &StpPlan, capacity: usize) -> Box<dyn StpScratch> {
        Box::new(AosoaScratch::with_capacity(plan, capacity))
    }

    fn run_block(
        &self,
        plan: &StpPlan,
        pde: &dyn LinearPde,
        scratch: &mut dyn StpScratch,
        inputs: &BlockInputs<'_>,
        out: &mut [StpOutputs],
    ) {
        stp_aosoa_cells(plan, pde, downcast_scratch(scratch), inputs, out);
    }
}
