//! The generic (scalar, unoptimized) Space-Time Predictor — paper Fig. 1.
//!
//! Faithful to the reference implementation: unpadded AoS temporaries, all
//! per-order tensors (`p`, `flux`, `dF`, `gradQ`) kept in memory for the
//! whole kernel (`O(N^{d+1} m d)` footprint, Sec. IV-A), pointwise user
//! functions, plain scalar loops for the tensor contractions — the compiler
//! may auto-vectorize fragments, exactly as the paper observes for the
//! "generic" bars of Fig. 9.

use super::{project_faces, StpInputs, StpOutputs};
use crate::plan::StpPlan;
use aderdg_pde::LinearPde;

/// Temporaries of the generic kernel. One `flux` slot more than time-loop
/// iterations so the time-averaged flux can be accumulated from the stored
/// per-order fluxes (the linearity identity `F(q̄) = Σ_o c_o F(p_o)`).
#[derive(Debug, Clone)]
pub struct GenericScratch {
    /// `p[o]`, `o = 0..=N`: the Taylor terms (time derivatives) of `q`.
    p: Vec<Vec<f64>>,
    /// `flux[o][d]`, `o = 0..=N`: flux of `p[o]` in direction `d`.
    flux: Vec<[Vec<f64>; 3]>,
    /// `dF[o][d]`, `o = 0..N`: flux derivative + ncp contribution.
    d_f: Vec<[Vec<f64>; 3]>,
    /// `gradQ[o][d]`, `o = 0..N`: state gradients (only with ncp terms).
    grad_q: Vec<[Vec<f64>; 3]>,
}

impl GenericScratch {
    /// Allocates all per-order tensors (the point of the generic variant is
    /// that this is large).
    pub fn new(plan: &StpPlan) -> Self {
        let n = plan.n();
        let vol = n * n * n * plan.m();
        let tens = || vec![0.0f64; vol];
        let tri = || [tens(), tens(), tens()];
        Self {
            p: (0..=n).map(|_| tens()).collect(),
            flux: (0..=n).map(|_| tri()).collect(),
            d_f: (0..n).map(|_| tri()).collect(),
            grad_q: (0..n).map(|_| tri()).collect(),
        }
    }

    /// Bytes of temporary storage.
    pub fn footprint_bytes(&self) -> usize {
        let count: usize = self.p.iter().map(Vec::len).sum::<usize>()
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

/// Scalar nodal derivative along `d` of the unpadded AoS tensor `src`,
/// scaled by `inv_dx`: `dst[k][s] = inv_dx · Σ_l D[k_d][l] src[k_d→l][s]`.
pub(crate) fn derive_scalar(
    n: usize,
    m: usize,
    diff: &[f64],
    inv_dx: f64,
    d: usize,
    src: &[f64],
    dst: &mut [f64],
) {
    dst.fill(0.0);
    // Stride of the contracted index in node space.
    let stride = match d {
        0 => m,
        1 => n * m,
        _ => n * n * m,
    };
    // Iterate nodes (k3, k2, k1); for each, contract along d.
    for k3 in 0..n {
        for k2 in 0..n {
            for k1 in 0..n {
                let kd = [k1, k2, k3][d];
                let node = ((k3 * n + k2) * n + k1) * m;
                let line_base = node - kd * stride;
                for l in 0..n {
                    let w = inv_dx * diff[kd * n + l];
                    let so = line_base + l * stride;
                    for s in 0..m {
                        dst[node + s] += w * src[so + s];
                    }
                }
            }
        }
    }
}

/// Runs the generic predictor (Fig. 1).
pub fn stp_generic(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    scratch: &mut GenericScratch,
    inputs: &StpInputs<'_>,
    out: &mut StpOutputs,
) {
    let n = plan.n();
    let m = plan.m();
    let vars = pde.num_vars();
    let m_pad = plan.aos.m_pad();
    let vol = n * n * n;
    let diff = &plan.basis.diff;
    let has_ncp = pde.has_ncp();

    // p[0] ← q0 (strip the padding).
    for k in 0..vol {
        scratch.p[0][k * m..(k + 1) * m].copy_from_slice(&inputs.q0[k * m_pad..k * m_pad + m]);
    }

    // Cauchy-Kowalewsky iteration: p[o+1] = Σ_d (∂_d F_d + B_d ∂_d)(p[o]).
    for o in 0..n {
        let (head, tail) = scratch.p.split_at_mut(o + 1);
        let p_o = &head[o];
        let p_next = &mut tail[0];

        // flux[o][d] ← computeF(p[o]) — pointwise user function (scalar).
        for d in 0..3 {
            let flux = &mut scratch.flux[o][d];
            for k in 0..vol {
                pde.flux(d, &p_o[k * m..(k + 1) * m], &mut flux[k * m..(k + 1) * m]);
            }
        }
        // dF[o][d] ← derive(flux, d).
        for d in 0..3 {
            derive_scalar(
                n,
                m,
                diff,
                plan.inv_dx[d],
                d,
                &scratch.flux[o][d],
                &mut scratch.d_f[o][d],
            );
        }
        // gradQ[o][d] ← derive(p[o], d); dF[o][d] += computeNcp(gradQ).
        if has_ncp {
            for d in 0..3 {
                derive_scalar(
                    n,
                    m,
                    diff,
                    plan.inv_dx[d],
                    d,
                    p_o,
                    &mut scratch.grad_q[o][d],
                );
                let grad = &scratch.grad_q[o][d];
                let d_f = &mut scratch.d_f[o][d];
                let mut ncp = vec![0.0; m];
                for k in 0..vol {
                    pde.ncp(
                        d,
                        &p_o[k * m..(k + 1) * m],
                        &grad[k * m..(k + 1) * m],
                        &mut ncp,
                    );
                    for s in 0..m {
                        d_f[k * m + s] += ncp[s];
                    }
                }
            }
        }
        // p[o+1] ← Σ_d dF[o][d] (+ o-th source time derivative).
        p_next.fill(0.0);
        for d in 0..3 {
            for (pv, dv) in p_next.iter_mut().zip(&scratch.d_f[o][d]) {
                *pv += dv;
            }
        }
        if let Some(src) = inputs.source {
            let amp = &src.derivs[o];
            for k in 0..vol {
                let c = src.node_coeffs[k];
                for (s, &a) in amp.iter().enumerate() {
                    p_next[k * m + s] += c * a;
                }
            }
        }
        // Material parameters are carried along, not evolved: restore them
        // so the user functions of the next iteration see valid media.
        let p0 = &head[0];
        for k in 0..vol {
            p_next[k * m + vars..(k + 1) * m].copy_from_slice(&p0[k * m + vars..(k + 1) * m]);
        }
    }

    // Final flux slot: flux[N][d] = F_d(p[N]) so favg can be summed from
    // the stored per-order fluxes.
    for d in 0..3 {
        let p_last = &scratch.p[n];
        let flux = &mut scratch.flux[n][d];
        for k in 0..vol {
            pde.flux(
                d,
                &p_last[k * m..(k + 1) * m],
                &mut flux[k * m..(k + 1) * m],
            );
        }
    }

    // Time averages: q̄ = Σ_o c_o p[o], F̄_d = Σ_o c_o flux[o][d] (eq. 4).
    let coef = plan.taylor(inputs.dt);
    out.qavg.fill_zero();
    for f in out.favg.iter_mut() {
        f.fill_zero();
    }
    for o in 0..=n {
        let c = coef[o];
        let p_o = &scratch.p[o];
        for k in 0..vol {
            for s in 0..m {
                out.qavg[k * m_pad + s] += c * p_o[k * m + s];
            }
        }
        for d in 0..3 {
            let flux = &scratch.flux[o][d];
            let favg = &mut out.favg[d];
            for k in 0..vol {
                for s in 0..m {
                    favg[k * m_pad + s] += c * flux[k * m + s];
                }
            }
        }
    }
    // Output convention: q̄ carries the *original* parameters (they are
    // data, not time-integrated state) so downstream user-function calls
    // (corrector ncp, Riemann wave speeds) see valid media.
    for k in 0..vol {
        out.qavg[k * m_pad + vars..k * m_pad + m]
            .copy_from_slice(&inputs.q0[k * m_pad + vars..k * m_pad + m]);
    }

    project_faces(plan, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StpConfig;
    use aderdg_pde::AdvectionSystem;

    #[test]
    fn derive_scalar_differentiates_polynomials() {
        let plan = StpPlan::new(StpConfig::new(5, 2), [1.0; 3]);
        let n = 5;
        let m = 2;
        let x = plan.basis.nodes.clone();
        // q(x,y,z; 0) = x³, q(...; 1) = y² — derivative along x: (3x², 0);
        // along y: (0, 2y).
        let mut src = vec![0.0; n * n * n * m];
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    let node = ((k3 * n + k2) * n + k1) * m;
                    src[node] = x[k1].powi(3);
                    src[node + 1] = x[k2] * x[k2];
                }
            }
        }
        let mut dst = vec![0.0; n * n * n * m];
        derive_scalar(n, m, &plan.basis.diff, 1.0, 0, &src, &mut dst);
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    let node = ((k3 * n + k2) * n + k1) * m;
                    assert!((dst[node] - 3.0 * x[k1] * x[k1]).abs() < 1e-10);
                    assert!(dst[node + 1].abs() < 1e-10);
                }
            }
        }
        derive_scalar(n, m, &plan.basis.diff, 2.0, 1, &src, &mut dst);
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    let node = ((k3 * n + k2) * n + k1) * m;
                    assert!(dst[node].abs() < 1e-9);
                    assert!((dst[node + 1] - 4.0 * x[k2]).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn constant_state_stays_constant_without_source() {
        // For q ≡ const the flux is constant, derivatives vanish, so
        // q̄ = dt·q and all higher Taylor terms are zero.
        let pde = AdvectionSystem::new(3, [1.0, 2.0, 3.0]);
        let plan = StpPlan::new(StpConfig::new(4, 3), [1.0; 3]);
        let mut scratch = GenericScratch::new(&plan);
        let m_pad = plan.aos.m_pad();
        let mut q0 = vec![0.0; plan.aos.len()];
        for k in 0..64 {
            for s in 0..3 {
                q0[k * m_pad + s] = (s + 1) as f64;
            }
        }
        let mut out = StpOutputs::new(&plan);
        let dt = 0.05;
        stp_generic(
            &plan,
            &pde,
            &mut scratch,
            &StpInputs {
                q0: &q0,
                dt,
                source: None,
            },
            &mut out,
        );
        for k in 0..64 {
            for s in 0..3 {
                let want = dt * (s + 1) as f64;
                assert!(
                    (out.qavg[k * m_pad + s] - want).abs() < 1e-13,
                    "k={k} s={s}"
                );
            }
        }
        // favg must equal dt · F(q) = dt · (−a_d q).
        for d in 0..3 {
            let a = [1.0, 2.0, 3.0][d];
            for k in 0..64 {
                for s in 0..3 {
                    let want = -a * dt * (s + 1) as f64;
                    assert!((out.favg[d][k * m_pad + s] - want).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn footprint_scales_like_n4() {
        let p4 = StpPlan::new(StpConfig::new(4, 5), [1.0; 3]);
        let p8 = StpPlan::new(StpConfig::new(8, 5), [1.0; 3]);
        let f4 = GenericScratch::new(&p4).footprint_bytes();
        let f8 = GenericScratch::new(&p8).footprint_bytes();
        let ratio = f8 as f64 / f4 as f64;
        // N⁴ scaling: 8⁴/4⁴ = 16, modulo the O(N³) terms.
        assert!(ratio > 12.0 && ratio < 20.0, "ratio={ratio}");
    }
}

use super::{downcast_scratch, impl_stp_scratch, StpKernel, StpScratch};

impl_stp_scratch!(GenericScratch);

/// Registry entry for the scalar reference variant (Fig. 1).
#[derive(Debug, Clone, Copy)]
pub struct GenericKernel;

impl StpKernel for GenericKernel {
    fn name(&self) -> &'static str {
        "generic"
    }

    fn make_scratch(&self, plan: &StpPlan) -> Box<dyn StpScratch> {
        Box::new(GenericScratch::new(plan))
    }

    fn run(
        &self,
        plan: &StpPlan,
        pde: &dyn LinearPde,
        scratch: &mut dyn StpScratch,
        inputs: &StpInputs<'_>,
        out: &mut StpOutputs,
    ) {
        stp_generic(plan, pde, downcast_scratch(scratch), inputs, out);
    }
}
