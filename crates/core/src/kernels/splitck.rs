//! The dimension-split, cache-aware Cauchy-Kowalewsky predictor — paper
//! Fig. 5 / Sec. IV.
//!
//! Reformulation of the LoG algorithm with minimized memory footprint:
//!
//! * dimensions are processed one at a time, reusing the *same* `flux` and
//!   `gradQ` tensors for all three (factor-3 reduction),
//! * the time integration happens on the fly — `qavg` accumulates
//!   `c_o · p[o]` inside the loop instead of storing the whole space-time
//!   predictor (removes the time dimension from the footprint),
//! * the time-averaged flux is *recomputed* after the loop from the
//!   time-averaged state, exploiting linearity (`F(q̄) = Σ c_o F(p_o)`) —
//!   "the equivalent of almost one extra iteration", increasingly
//!   insignificant at high order.
//!
//! Resulting footprint: `O(N^d m)` instead of `O(N^{d+1} m d)`.

use super::onthefly::{flux_onthefly, ncp_onthefly};
use super::{project_faces, StpInputs, StpOutputs};
use crate::kernels::log::{derive_gemm_aos, flux_pointwise_aos, ncp_pointwise_aos};
use crate::plan::StpPlan;
use aderdg_pde::LinearPde;
use aderdg_tensor::AlignedVec;

/// Temporaries of the SplitCK kernel: four volume tensors, period (the
/// on-the-fly call strategy adds three SoA x-lines).
#[derive(Debug, Clone)]
pub struct SplitCkScratch {
    /// Current Taylor term `p[o]`.
    p: AlignedVec,
    /// Next Taylor term being accumulated.
    ptemp: AlignedVec,
    /// Flux of the current term in the current direction (reused ×3).
    flux: AlignedVec,
    /// State gradient in the current direction (reused ×3; ncp only).
    grad_q: AlignedVec,
    /// Pointwise ncp result buffer.
    ncp: Vec<f64>,
    /// SoA x-lines (`m × n_pad`: state, result, ncp gradient) of the
    /// [`onthefly`](super::onthefly) call strategy, filled by its registry
    /// entry alone; `None` calls the user functions pointwise on AoS.
    pub(super) lines: Option<[AlignedVec; 3]>,
}

impl SplitCkScratch {
    /// Allocates the four volume tensors.
    pub fn new(plan: &StpPlan) -> Self {
        let vol = plan.aos.len();
        Self {
            p: AlignedVec::zeroed(vol),
            ptemp: AlignedVec::zeroed(vol),
            flux: AlignedVec::zeroed(vol),
            grad_q: AlignedVec::zeroed(vol),
            ncp: vec![0.0; plan.m()],
            lines: None,
        }
    }

    /// Bytes of temporary storage — the `O(N^d m)` footprint.
    pub fn footprint_bytes(&self) -> usize {
        let lines: usize = self.lines.iter().flatten().map(AlignedVec::len).sum();
        (self.p.len() + self.ptemp.len() + self.flux.len() + self.grad_q.len() + lines) * 8
    }
}

/// Runs the SplitCK predictor (Fig. 5), calling the user functions as
/// `scratch` says: pointwise, or per x-line through SoA transposes.
pub fn stp_splitck(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    scratch: &mut SplitCkScratch,
    inputs: &StpInputs<'_>,
    out: &mut StpOutputs,
) {
    let n = plan.n();
    let m = plan.m();
    let vars = pde.num_vars();
    let m_pad = plan.aos.m_pad();
    let vol = n * n * n;
    let has_ncp = pde.has_ncp();
    let coef = plan.taylor(inputs.dt);
    let SplitCkScratch {
        p,
        ptemp,
        flux,
        grad_q,
        ncp,
        lines,
    } = scratch;

    // p ← q0; qavg ← c_0 · p (on-the-fly time integration).
    p.as_mut_slice()
        .copy_from_slice(&inputs.q0[..plan.aos.len()]);
    for (qa, pv) in out.qavg.iter_mut().zip(p.iter()) {
        *qa = coef[0] * pv;
    }

    for o in 0..n {
        ptemp.fill_zero();
        // One dimension at a time; flux and gradQ are reused across d.
        for d in 0..3 {
            match lines {
                None => flux_pointwise_aos(plan, pde, d, p, flux),
                Some([lq, lf, _]) => flux_onthefly(plan, pde, d, p, flux, lq, lf),
            }
            derive_gemm_aos(plan, d, flux, ptemp, true);
            if has_ncp {
                derive_gemm_aos(plan, d, p, grad_q, false);
                match lines {
                    None => ncp_pointwise_aos(plan, pde, d, p, grad_q, ncp, ptemp),
                    Some(lines) => ncp_onthefly(plan, pde, d, p, grad_q, ptemp, lines),
                }
            }
        }
        if let Some(src) = inputs.source {
            let amp = &src.derivs[o];
            for k in 0..vol {
                let c = src.node_coeffs[k];
                for (s, &a) in amp.iter().enumerate() {
                    ptemp[k * m_pad + s] += c * a;
                }
            }
        }
        // Carry the material parameters along (they are not evolved):
        // `p` still holds the previous term with valid parameters.
        for k in 0..vol {
            ptemp[k * m_pad + vars..k * m_pad + m]
                .copy_from_slice(&p[k * m_pad + vars..k * m_pad + m]);
        }
        std::mem::swap(p, ptemp);
        // qavg += c_{o+1} · p[o+1].
        let c = coef[o + 1];
        for (qa, pv) in out.qavg.iter_mut().zip(p.iter()) {
            *qa += c * pv;
        }
    }

    // q̄ carries the original parameters — restore them *before* the flux
    // recomputation so the user functions see valid media.
    for k in 0..vol {
        out.qavg[k * m_pad + vars..k * m_pad + m]
            .copy_from_slice(&inputs.q0[k * m_pad + vars..k * m_pad + m]);
    }

    // Recompute the time-averaged flux from the time-averaged state
    // (Fig. 5's post-loop; linearity of F).
    for d in 0..3 {
        match lines {
            None => flux_pointwise_aos(plan, pde, d, &out.qavg, flux),
            Some([lq, lf, _]) => flux_onthefly(plan, pde, d, &out.qavg, flux, lq, lf),
        }
        out.favg[d].as_mut_slice().copy_from_slice(flux);
    }

    project_faces(plan, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generic::GenericScratch;
    use crate::kernels::log::LogKernel;
    use crate::kernels::test_support::{
        assert_outputs_close, compare_with_generic, random_state, run,
    };
    use crate::plan::{CellSource, StpConfig};
    use aderdg_pde::{Acoustic, AdvectionNcpSystem, AdvectionSystem};

    #[test]
    fn splitck_matches_generic_advection() {
        for (n, m) in [(3, 2), (4, 7), (6, 4)] {
            let plan = StpPlan::new(StpConfig::new(n, m), [1.0, 0.5, 2.0]);
            let pde = AdvectionSystem::new(m, [0.9, -0.2, 0.45]);
            let q0 = random_state(&plan, (13 * n + m) as u64);
            compare_with_generic(&SplitCkKernel, &plan, &pde, &q0, 0.015, None, 1e-11);
        }
    }

    #[test]
    fn splitck_matches_generic_ncp() {
        let plan = StpPlan::new(StpConfig::new(5, 2), [1.0; 3]);
        let pde = AdvectionNcpSystem::new(2, [0.3, 0.8, -0.5]);
        let q0 = random_state(&plan, 4242);
        compare_with_generic(&SplitCkKernel, &plan, &pde, &q0, 0.015, None, 1e-11);
    }

    #[test]
    fn splitck_matches_generic_acoustic_with_params() {
        let plan = StpPlan::new(StpConfig::new(4, 6), [1.0; 3]);
        let pde = Acoustic;
        let mut q0 = random_state(&plan, 7);
        // Overwrite parameter slots with physical values.
        let m_pad = plan.aos.m_pad();
        for k in 0..64 {
            q0[k * m_pad + 4] = 1.2 + 0.01 * (k % 5) as f64;
            q0[k * m_pad + 5] = 3.0;
        }
        compare_with_generic(&SplitCkKernel, &plan, &pde, &q0, 0.015, None, 1e-11);
    }

    #[test]
    fn splitck_matches_generic_and_log_with_point_source() {
        let plan = StpPlan::new(StpConfig::new(4, 3), [1.0; 3]);
        let pde = AdvectionSystem::new(3, [0.5, 0.1, -0.3]);
        let q0 = random_state(&plan, 11);
        // Source with nontrivial derivatives in every order slot.
        let derivs: Vec<Vec<f64>> = (0..=4)
            .map(|o| {
                (0..3)
                    .map(|s| 0.3 * (o + 1) as f64 * (s as f64 - 1.0))
                    .collect()
            })
            .collect();
        let src = CellSource::project(&plan, [0.3, 0.6, 0.2], [1.0; 3], derivs);
        let source = Some(&src);
        compare_with_generic(&SplitCkKernel, &plan, &pde, &q0, 0.015, source, 1e-11);

        // And LoG with the same source agrees too.
        let inputs = StpInputs {
            q0: &q0,
            dt: 0.015,
            source,
        };
        let split = run(&SplitCkKernel, &plan, &pde, &inputs);
        assert_outputs_close(&split, &run(&LogKernel, &plan, &pde, &inputs), 1e-11);
    }

    #[test]
    fn footprint_is_order_of_magnitude_below_generic() {
        let plan = StpPlan::new(StpConfig::new(8, 21), [1.0; 3]);
        let split = SplitCkScratch::new(&plan).footprint_bytes();
        let generic = GenericScratch::new(&plan).footprint_bytes();
        assert!(
            generic as f64 / split as f64 > 5.0,
            "generic={generic} split={split}"
        );
    }
}

use super::{downcast_scratch, impl_stp_scratch, StpKernel, StpScratch};

impl_stp_scratch!(SplitCkScratch);

/// Registry entry for the dimension-split Cauchy-Kowalewsky variant
/// (Fig. 5 / Sec. IV).
#[derive(Debug, Clone, Copy)]
pub struct SplitCkKernel;

impl StpKernel for SplitCkKernel {
    fn name(&self) -> &'static str {
        "splitck"
    }

    fn label(&self) -> &'static str {
        "SplitCK"
    }

    fn make_scratch(&self, plan: &StpPlan) -> Box<dyn StpScratch> {
        Box::new(SplitCkScratch::new(plan))
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
