//! The *rejected* alternative of paper Sec. V-A: SplitCK on the AoS
//! layout, with on-the-fly AoS → SoA → AoS transposes around every
//! vectorized user-function call.
//!
//! The paper tested this design and found it effective only for complex
//! non-linear user functions; for the cheap linear fluxes of seismic
//! applications the transposition cost eats the vectorization gain, which
//! motivated the AoSoA layout. It is not one of the paper's four measured
//! variants, and not a body of its own: the registry entry runs
//! [`stp_splitck`] on a scratch that carries three SoA x-lines, so the
//! only difference from `splitck` is how the user functions are called —
//! through the two line sweeps below. The `figures onthefly` table times
//! it against SplitCK and AoSoA SplitCK, and the registry equivalence
//! matrix checks it like any other kernel.

use super::splitck::{stp_splitck, SplitCkScratch};
use super::{StpInputs, StpOutputs};
use crate::plan::StpPlan;
use aderdg_pde::LinearPde;
use aderdg_tensor::AlignedVec;

/// Gathers the AoS x-line at `(k3, k2)` into an SoA block.
#[inline]
fn gather_line(plan: &StpPlan, src: &[f64], plane: usize, dst: &mut [f64]) {
    let n = plan.n();
    let m = plan.m();
    let m_pad = plan.aos.m_pad();
    let n_pad = plan.aosoa.n_pad();
    let base = plane * n * m_pad;
    for k1 in 0..n {
        let node = &src[base + k1 * m_pad..base + k1 * m_pad + m];
        for (s, &v) in node.iter().enumerate() {
            dst[s * n_pad + k1] = v;
        }
    }
}

/// Scatters an SoA block back into the AoS x-line at `(k3, k2)`.
#[inline]
fn scatter_line(plan: &StpPlan, src: &[f64], plane: usize, dst: &mut [f64]) {
    let n = plan.n();
    let m = plan.m();
    let m_pad = plan.aos.m_pad();
    let n_pad = plan.aosoa.n_pad();
    let base = plane * n * m_pad;
    for k1 in 0..n {
        let node = &mut dst[base + k1 * m_pad..base + k1 * m_pad + m];
        for (s, v) in node.iter_mut().enumerate() {
            *v = src[s * n_pad + k1];
        }
    }
}

/// Vectorized flux sweep with per-line gather/scatter transposes — the
/// Sec. V-A pattern whose cost the AoSoA layout eliminates.
pub(super) fn flux_onthefly(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    d: usize,
    src: &[f64],
    dst: &mut [f64],
    line_q: &mut [f64],
    line_f: &mut [f64],
) {
    let n = plan.n();
    let n_pad = plan.aosoa.n_pad();
    for plane in 0..n * n {
        gather_line(plan, src, plane, line_q);
        pde.flux_lanes(plan.isa(), d, line_q, line_f, n, n_pad);
        scatter_line(plan, line_f, plane, dst);
    }
}

/// Vectorized ncp sweep, `dst += B_d(q) · grad`, with the same per-line
/// gathers; the result is accumulated straight from the SoA line.
pub(super) fn ncp_onthefly(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    d: usize,
    q: &[f64],
    grad: &[f64],
    dst: &mut [f64],
    [line_q, line_f, line_g]: &mut [AlignedVec; 3],
) {
    let n = plan.n();
    let m = plan.m();
    let m_pad = plan.aos.m_pad();
    let n_pad = plan.aosoa.n_pad();
    for plane in 0..n * n {
        gather_line(plan, q, plane, line_q);
        gather_line(plan, grad, plane, line_g);
        pde.ncp_lanes(plan.isa(), d, line_q, line_g, line_f, n, n_pad);
        let base = plane * n * m_pad;
        for k1 in 0..n {
            for s in 0..m {
                dst[base + k1 * m_pad + s] += line_f[s * n_pad + k1];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_support::{compare_with_generic, random_state};
    use crate::plan::StpConfig;
    use aderdg_pde::{AdvectionNcpSystem, Elastic, Material};

    #[test]
    fn onthefly_matches_generic_elastic() {
        let plan = StpPlan::new(StpConfig::new(4, 21), [1.0; 3]);
        let mut q0 = random_state(&plan, 5);
        let m_pad = plan.aos.m_pad();
        let mat = Material {
            rho: 2.7,
            cp: 6.0,
            cs: 3.46,
        };
        for k in 0..64 {
            Elastic::set_params(
                &mut q0[k * m_pad..k * m_pad + 21],
                mat,
                &Elastic::IDENTITY_JAC,
            );
        }
        compare_with_generic(&OnTheFlyKernel, &plan, &Elastic, &q0, 1e-3, None, 1e-11);
    }

    #[test]
    fn onthefly_matches_generic_ncp() {
        let plan = StpPlan::new(StpConfig::new(5, 3), [1.0; 3]);
        let pde = AdvectionNcpSystem::new(3, [0.7, -0.4, 0.2]);
        let q0 = random_state(&plan, 17);
        compare_with_generic(&OnTheFlyKernel, &plan, &pde, &q0, 0.02, None, 1e-11);
    }

    #[test]
    fn footprint_close_to_splitck() {
        use crate::kernels::splitck::SplitCkKernel;
        let plan = StpPlan::new(StpConfig::new(8, 21), [1.0; 3]);
        let otf = OnTheFlyKernel.footprint_bytes(&plan);
        let split = SplitCkKernel.footprint_bytes(&plan);
        assert!((otf as f64 / split as f64) < 1.2);
    }
}

use super::{downcast_scratch, StpKernel, StpScratch};

/// Registry entry for the rejected on-the-fly-transpose design (Sec. V-A):
/// SplitCK's body on a scratch with SoA x-lines, which the `onthefly`
/// figure and the equivalence matrix exercise like any other kernel.
#[derive(Debug, Clone, Copy)]
pub struct OnTheFlyKernel;

impl StpKernel for OnTheFlyKernel {
    fn name(&self) -> &'static str {
        "onthefly"
    }

    fn label(&self) -> &'static str {
        "on-the-fly SplitCK"
    }

    fn make_scratch(&self, plan: &StpPlan) -> Box<dyn StpScratch> {
        let mut scratch = SplitCkScratch::new(plan);
        let line = plan.m() * plan.aosoa.n_pad();
        scratch.lines = Some(std::array::from_fn(|_| AlignedVec::zeroed(line)));
        Box::new(scratch)
    }

    fn run(
        &self,
        plan: &StpPlan,
        pde: &dyn LinearPde,
        scratch: &mut dyn StpScratch,
        inputs: &StpInputs<'_>,
        out: &mut StpOutputs,
    ) {
        stp_splitck(plan, pde, downcast_scratch(scratch), inputs, out);
    }
}
