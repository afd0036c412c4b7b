//! The Loop-over-GEMM Space-Time Predictor — paper Sec. III.
//!
//! Same algorithm as the generic kernel (the user API must not change),
//! but on SIMD-padded, aligned AoS tensors, with every tensor derivative
//! expressed as a batch of small matrix multiplications on tensor matrix
//! slices (offset + slice stride, Fig. 3) executed by the planned GEMM
//! kernels. The per-order tensors are still all kept in memory — the
//! `O(N^{d+1} m d)` footprint that Sec. IV identifies as this variant's
//! L2-capacity bottleneck.

use super::{project_faces, StpInputs, StpOutputs};
use crate::plan::StpPlan;
use aderdg_gemm::GemmBatch;
use aderdg_pde::LinearPde;
use aderdg_tensor::AlignedVec;

/// Temporaries of the LoG kernel — identical shape to the generic
/// scratch, but padded and aligned.
#[derive(Debug, Clone)]
pub struct LogScratch {
    /// `p[o]`, `o = 0..=N`, padded AoS.
    p: Vec<AlignedVec>,
    /// `flux[o][d]`, `o = 0..=N`.
    flux: Vec<[AlignedVec; 3]>,
    /// `dF[o][d]`, `o = 0..N`.
    d_f: Vec<[AlignedVec; 3]>,
    /// `gradQ[o][d]`, `o = 0..N`.
    grad_q: Vec<[AlignedVec; 3]>,
    /// Pointwise ncp result buffer.
    ncp: Vec<f64>,
}

impl LogScratch {
    /// Allocates the padded per-order tensors.
    pub fn new(plan: &StpPlan) -> Self {
        let n = plan.n();
        let vol = plan.aos.len();
        let tens = || AlignedVec::zeroed(vol);
        let tri = || [tens(), tens(), tens()];
        Self {
            p: (0..=n).map(|_| tens()).collect(),
            flux: (0..=n).map(|_| tri()).collect(),
            d_f: (0..n).map(|_| tri()).collect(),
            grad_q: (0..n).map(|_| tri()).collect(),
            ncp: vec![0.0; plan.m()],
        }
    }

    /// Bytes of temporary storage (padded — slightly above the analytic
    /// unpadded formula).
    pub fn footprint_bytes(&self) -> usize {
        let count: usize = self.p.iter().map(AlignedVec::len).sum::<usize>()
            + self
                .flux
                .iter()
                .chain(self.d_f.iter())
                .chain(self.grad_q.iter())
                .map(|t| t[0].len() * 3)
                .sum::<usize>();
        count * 8
    }
}

/// Derivative along `d` of a padded AoS tensor as a Loop-over-GEMM:
/// `dst = inv_dx · D ⨂_d src` (+ `dst` if `accumulate`).
pub(crate) fn derive_gemm_aos(
    plan: &StpPlan,
    d: usize,
    src: &[f64],
    dst: &mut [f64],
    accumulate: bool,
) {
    let gemm = if accumulate {
        &plan.gemm_aos_acc[d]
    } else {
        &plan.gemm_aos[d]
    };
    let (batches, stride) = plan.aos_batches(d);
    let batch = GemmBatch::shared_a(batches, stride, stride);
    gemm.execute_batched(&batch, &plan.basis.diff, src, dst);
}

/// Pointwise flux sweep over a padded AoS tensor (the user functions stay
/// scalar in this variant — the Sec. V motivation).
pub(crate) fn flux_pointwise_aos(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    d: usize,
    src: &[f64],
    dst: &mut [f64],
) {
    let m = plan.m();
    let m_pad = plan.aos.m_pad();
    let vol = plan.n().pow(3);
    for k in 0..vol {
        pde.flux(
            d,
            &src[k * m_pad..k * m_pad + m],
            &mut dst[k * m_pad..k * m_pad + m],
        );
    }
}

/// Pointwise non-conservative-product sweep over padded AoS tensors:
/// `dst += B_d(q) · grad` node by node, through the result buffer `ncp`.
pub(crate) fn ncp_pointwise_aos(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    d: usize,
    q: &[f64],
    grad: &[f64],
    ncp: &mut [f64],
    dst: &mut [f64],
) {
    let m = plan.m();
    let m_pad = plan.aos.m_pad();
    for k in 0..plan.n().pow(3) {
        let node = k * m_pad..k * m_pad + m;
        pde.ncp(d, &q[node.clone()], &grad[node.clone()], ncp);
        for (v, c) in dst[node].iter_mut().zip(&*ncp) {
            *v += c;
        }
    }
}

/// Runs the LoG predictor.
pub fn stp_log(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    scratch: &mut LogScratch,
    inputs: &StpInputs<'_>,
    out: &mut StpOutputs,
) {
    let n = plan.n();
    let m = plan.m();
    let vars = pde.num_vars();
    let m_pad = plan.aos.m_pad();
    let vol = n * n * n;
    let has_ncp = pde.has_ncp();

    scratch.p[0]
        .as_mut_slice()
        .copy_from_slice(&inputs.q0[..plan.aos.len()]);

    for o in 0..n {
        let (head, tail) = scratch.p.split_at_mut(o + 1);
        let p_o = &head[o];
        let p_next = &mut tail[0];

        for d in 0..3 {
            flux_pointwise_aos(plan, pde, d, p_o, &mut scratch.flux[o][d]);
        }
        for d in 0..3 {
            derive_gemm_aos(plan, d, &scratch.flux[o][d], &mut scratch.d_f[o][d], false);
        }
        if has_ncp {
            for d in 0..3 {
                derive_gemm_aos(plan, d, p_o, &mut scratch.grad_q[o][d], false);
                let grad = &scratch.grad_q[o][d];
                let d_f = &mut scratch.d_f[o][d];
                ncp_pointwise_aos(plan, pde, d, p_o, grad, &mut scratch.ncp, d_f);
            }
        }
        // p[o+1] = Σ_d dF[o][d] — full padded arrays, vectorizable.
        p_next.fill_zero();
        for d in 0..3 {
            for (pv, dv) in p_next.iter_mut().zip(scratch.d_f[o][d].iter()) {
                *pv += dv;
            }
        }
        if let Some(src) = inputs.source {
            let amp = &src.derivs[o];
            for k in 0..vol {
                let c = src.node_coeffs[k];
                for (s, &a) in amp.iter().enumerate() {
                    p_next[k * m_pad + s] += c * a;
                }
            }
        }
        // Carry the material parameters along (they are not evolved).
        let p0 = &head[0];
        for k in 0..vol {
            p_next[k * m_pad + vars..k * m_pad + m]
                .copy_from_slice(&p0[k * m_pad + vars..k * m_pad + m]);
        }
    }

    for d in 0..3 {
        let (head, tail) = scratch.flux.split_at_mut(n);
        let _ = head;
        let flux_last = &mut tail[0][d];
        flux_pointwise_aos(plan, pde, d, &scratch.p[n], flux_last);
    }

    // Time averages over the padded arrays (packed accumulation).
    let coef = plan.taylor(inputs.dt);
    out.qavg.fill_zero();
    for f in out.favg.iter_mut() {
        f.fill_zero();
    }
    for o in 0..=n {
        let c = coef[o];
        for (qa, pv) in out.qavg.iter_mut().zip(scratch.p[o].iter()) {
            *qa += c * pv;
        }
        for d in 0..3 {
            for (fa, fv) in out.favg[d].iter_mut().zip(scratch.flux[o][d].iter()) {
                *fa += c * fv;
            }
        }
    }
    // q̄ carries the original parameters (see the generic kernel).
    for k in 0..vol {
        out.qavg[k * m_pad + vars..k * m_pad + m]
            .copy_from_slice(&inputs.q0[k * m_pad + vars..k * m_pad + m]);
    }

    project_faces(plan, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_support::{compare_with_generic, random_state};
    use crate::plan::StpConfig;
    use aderdg_pde::{AdvectionNcpSystem, AdvectionSystem};

    #[test]
    fn log_matches_generic_flux_pde() {
        for (n, m) in [(3, 1), (4, 5), (5, 9)] {
            let plan = StpPlan::new(StpConfig::new(n, m), [0.8, 1.0, 1.25]);
            let pde = AdvectionSystem::new(m, [0.7, -0.3, 0.2]);
            let q0 = random_state(&plan, (n * 100 + m) as u64);
            compare_with_generic(&LogKernel, &plan, &pde, &q0, 0.02, None, 1e-12);
        }
    }

    #[test]
    fn log_matches_generic_ncp_pde() {
        let plan = StpPlan::new(StpConfig::new(4, 3), [1.0; 3]);
        let pde = AdvectionNcpSystem::new(3, [0.4, 0.9, -0.6]);
        let q0 = random_state(&plan, 99);
        compare_with_generic(&LogKernel, &plan, &pde, &q0, 0.03, None, 1e-12);
    }

    #[test]
    fn derive_gemm_matches_scalar_reference() {
        use crate::kernels::generic;
        let plan = StpPlan::new(StpConfig::new(5, 4), [1.0, 2.0, 0.5]);
        let n = 5;
        let m = 4;
        let m_pad = plan.aos.m_pad();
        let q = random_state(&plan, 7);
        for d in 0..3 {
            let mut dst = vec![0.0; plan.aos.len()];
            derive_gemm_aos(&plan, d, &q, &mut dst, false);
            // Scalar reference on the unpadded copy.
            let mut src_u = vec![0.0; n * n * n * m];
            for k in 0..n * n * n {
                src_u[k * m..(k + 1) * m].copy_from_slice(&q[k * m_pad..k * m_pad + m]);
            }
            let mut dst_u = vec![0.0; n * n * n * m];
            generic::derive_scalar(
                n,
                m,
                &plan.basis.diff,
                plan.inv_dx[d],
                d,
                &src_u,
                &mut dst_u,
            );
            for k in 0..n * n * n {
                for s in 0..m {
                    assert!(
                        (dst[k * m_pad + s] - dst_u[k * m + s]).abs() < 1e-11,
                        "d={d} k={k} s={s}"
                    );
                }
            }
        }
    }
}

use super::{downcast_scratch, impl_stp_scratch, StpKernel, StpScratch};

impl_stp_scratch!(LogScratch);

/// Registry entry for the Loop-over-GEMM variant (Sec. III).
#[derive(Debug, Clone, Copy)]
pub struct LogKernel;

impl StpKernel for LogKernel {
    fn name(&self) -> &'static str {
        "log"
    }

    fn label(&self) -> &'static str {
        "LoG"
    }

    fn make_scratch(&self, plan: &StpPlan) -> Box<dyn StpScratch> {
        Box::new(LogScratch::new(plan))
    }

    fn run(
        &self,
        plan: &StpPlan,
        pde: &dyn LinearPde,
        scratch: &mut dyn StpScratch,
        inputs: &StpInputs<'_>,
        out: &mut StpOutputs,
    ) {
        stp_log(plan, pde, downcast_scratch(scratch), inputs, out);
    }
}
