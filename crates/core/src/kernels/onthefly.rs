//! The *rejected* alternative of paper Sec. V-A: SplitCK on the AoS
//! layout, with on-the-fly AoS → SoA → AoS transposes around every
//! vectorized user-function call.
//!
//! The paper tested this design and found it effective only for complex
//! non-linear user functions; for the cheap linear fluxes of seismic
//! applications the transposition cost eats the vectorization gain, which
//! motivated the AoSoA layout. It is implemented here as a fifth kernel so
//! the ablation bench can reproduce that comparison (it is *not* part of
//! the paper's four measured variants).

use super::{project_faces, StpInputs, StpOutputs};
use crate::kernels::log::derive_gemm_aos;
use crate::plan::StpPlan;
use aderdg_pde::LinearPde;
use aderdg_tensor::AlignedVec;

/// SplitCK scratch plus two SoA line buffers for the per-call transposes.
#[derive(Debug, Clone)]
pub struct OnTheFlyScratch {
    p: AlignedVec,
    ptemp: AlignedVec,
    flux: AlignedVec,
    grad_q: AlignedVec,
    /// Gathered SoA input line (`m × n_pad`).
    line_q: AlignedVec,
    /// SoA output line.
    line_f: AlignedVec,
    /// Second gathered line (ncp gradient).
    line_g: AlignedVec,
}

impl OnTheFlyScratch {
    /// Allocates the working set.
    pub fn new(plan: &StpPlan) -> Self {
        let vol = plan.aos.len();
        let line = plan.m() * plan.aosoa.n_pad();
        Self {
            p: AlignedVec::zeroed(vol),
            ptemp: AlignedVec::zeroed(vol),
            flux: AlignedVec::zeroed(vol),
            grad_q: AlignedVec::zeroed(vol),
            line_q: AlignedVec::zeroed(line),
            line_f: AlignedVec::zeroed(line),
            line_g: AlignedVec::zeroed(line),
        }
    }

    /// Bytes of temporary storage.
    pub fn footprint_bytes(&self) -> usize {
        (self.p.len() * 4 + self.line_q.len() * 3) * 8
    }
}

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
fn flux_onthefly(
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

/// Runs the on-the-fly-transpose SplitCK predictor.
pub fn stp_onthefly(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    scratch: &mut OnTheFlyScratch,
    inputs: &StpInputs<'_>,
    out: &mut StpOutputs,
) {
    let n = plan.n();
    let m = plan.m();
    let vars = pde.num_vars();
    let m_pad = plan.aos.m_pad();
    let n_pad = plan.aosoa.n_pad();
    let vol = n * n * n;
    let has_ncp = pde.has_ncp();
    let coef = plan.taylor(inputs.dt);

    scratch
        .p
        .as_mut_slice()
        .copy_from_slice(&inputs.q0[..plan.aos.len()]);
    for (qa, pv) in out.qavg.iter_mut().zip(scratch.p.iter()) {
        *qa = coef[0] * pv;
    }

    for o in 0..n {
        scratch.ptemp.fill_zero();
        for d in 0..3 {
            {
                let OnTheFlyScratch {
                    p,
                    flux,
                    line_q,
                    line_f,
                    ..
                } = scratch;
                flux_onthefly(plan, pde, d, p, flux, line_q, line_f);
            }
            derive_gemm_aos(plan, d, &scratch.flux, &mut scratch.ptemp, true);
            if has_ncp {
                derive_gemm_aos(plan, d, &scratch.p, &mut scratch.grad_q, false);
                let OnTheFlyScratch {
                    p,
                    ptemp,
                    grad_q,
                    line_q,
                    line_f,
                    line_g,
                    ..
                } = scratch;
                for plane in 0..n * n {
                    gather_line(plan, p, plane, line_q);
                    gather_line(plan, grad_q, plane, line_g);
                    pde.ncp_lanes(plan.isa(), d, line_q, line_g, line_f, n, n_pad);
                    // Accumulate the scattered result into ptemp.
                    let base = plane * n * m_pad;
                    for k1 in 0..n {
                        for s in 0..m {
                            ptemp[base + k1 * m_pad + s] += line_f[s * n_pad + k1];
                        }
                    }
                }
            }
        }
        if let Some(src) = inputs.source {
            let amp = &src.derivs[o];
            for k in 0..vol {
                let c = src.node_coeffs[k];
                for (s, &a) in amp.iter().enumerate() {
                    scratch.ptemp[k * m_pad + s] += c * a;
                }
            }
        }
        {
            let OnTheFlyScratch { p, ptemp, .. } = scratch;
            for k in 0..vol {
                ptemp[k * m_pad + vars..k * m_pad + m]
                    .copy_from_slice(&p[k * m_pad + vars..k * m_pad + m]);
            }
        }
        std::mem::swap(&mut scratch.p, &mut scratch.ptemp);
        let c = coef[o + 1];
        for (qa, pv) in out.qavg.iter_mut().zip(scratch.p.iter()) {
            *qa += c * pv;
        }
    }

    for k in 0..vol {
        out.qavg[k * m_pad + vars..k * m_pad + m]
            .copy_from_slice(&inputs.q0[k * m_pad + vars..k * m_pad + m]);
    }
    for d in 0..3 {
        {
            let OnTheFlyScratch {
                flux,
                line_q,
                line_f,
                ..
            } = scratch;
            flux_onthefly(plan, pde, d, &out.qavg, flux, line_q, line_f);
        }
        out.favg[d].as_mut_slice().copy_from_slice(&scratch.flux);
    }

    project_faces(plan, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::generic::{stp_generic, GenericScratch};
    use crate::plan::StpConfig;
    use aderdg_pde::{AdvectionNcpSystem, Elastic, Material};

    fn random_state(plan: &StpPlan, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let m_pad = plan.aos.m_pad();
        let mut q = vec![0.0; plan.aos.len()];
        for k in 0..plan.n().pow(3) {
            for s in 0..plan.m() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                q[k * m_pad + s] = ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            }
        }
        q
    }

    #[test]
    fn onthefly_matches_generic_elastic() {
        let plan = StpPlan::new(StpConfig::new(4, 21), [1.0; 3]);
        let pde = Elastic;
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
        let inputs = StpInputs {
            q0: &q0,
            dt: 1e-3,
            source: None,
        };
        let mut out_g = StpOutputs::new(&plan);
        stp_generic(
            &plan,
            &pde,
            &mut GenericScratch::new(&plan),
            &inputs,
            &mut out_g,
        );
        let mut out_o = StpOutputs::new(&plan);
        stp_onthefly(
            &plan,
            &pde,
            &mut OnTheFlyScratch::new(&plan),
            &inputs,
            &mut out_o,
        );
        for (i, (a, b)) in out_o.qavg.iter().zip(out_g.qavg.iter()).enumerate() {
            assert!((a - b).abs() < 1e-11 * (1.0 + b.abs()), "qavg[{i}]");
        }
        for f in 0..6 {
            for (a, b) in out_o.fface[f].iter().zip(out_g.fface[f].iter()) {
                assert!((a - b).abs() < 1e-11 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn onthefly_matches_generic_ncp() {
        let plan = StpPlan::new(StpConfig::new(5, 3), [1.0; 3]);
        let pde = AdvectionNcpSystem::new(3, [0.7, -0.4, 0.2]);
        let q0 = random_state(&plan, 17);
        let inputs = StpInputs {
            q0: &q0,
            dt: 0.02,
            source: None,
        };
        let mut out_g = StpOutputs::new(&plan);
        stp_generic(
            &plan,
            &pde,
            &mut GenericScratch::new(&plan),
            &inputs,
            &mut out_g,
        );
        let mut out_o = StpOutputs::new(&plan);
        stp_onthefly(
            &plan,
            &pde,
            &mut OnTheFlyScratch::new(&plan),
            &inputs,
            &mut out_o,
        );
        for (a, b) in out_o.qavg.iter().zip(out_g.qavg.iter()) {
            assert!((a - b).abs() < 1e-11 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn footprint_close_to_splitck() {
        use crate::kernels::splitck::SplitCkScratch;
        let plan = StpPlan::new(StpConfig::new(8, 21), [1.0; 3]);
        let otf = OnTheFlyScratch::new(&plan).footprint_bytes();
        let split = SplitCkScratch::new(&plan).footprint_bytes();
        assert!((otf as f64 / split as f64) < 1.2);
    }
}

use super::{downcast_scratch, impl_stp_scratch, StpKernel, StpScratch};

impl_stp_scratch!(OnTheFlyScratch);

/// Registry entry for the rejected on-the-fly-transpose design (Sec. V-A),
/// registered so the ablation harness and the equivalence matrix exercise
/// it like any other kernel.
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
        Box::new(OnTheFlyScratch::new(plan))
    }

    fn run(
        &self,
        plan: &StpPlan,
        pde: &dyn LinearPde,
        scratch: &mut dyn StpScratch,
        inputs: &StpInputs<'_>,
        out: &mut StpOutputs,
    ) {
        stp_onthefly(plan, pde, downcast_scratch(scratch), inputs, out);
    }
}
