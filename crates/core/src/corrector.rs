//! The corrector step (paper eq. 5).
//!
//! Updates the cell state with the time-integrated volume contribution and
//! the face corrections from the numerical fluxes, in the strong
//! DG-with-flux-difference form (algebraically equivalent to eq. 5's weak
//! form for linear problems):
//!
//! `q^{n+1}_k = q^n_k + [Σ_d ∂_d F̄_d + B_d ∂_d q̄]_k`
//! `  + Σ_d 1/(w_{k_d} Δx_d) [φ_{k_d}(1)(F*_+ − F̄(1⁻)) − φ_{k_d}(0)(F*_− − F̄(0⁻))]`
//!
//! where all time integration already happened in the predictor.
//!
//! The two halves run at different points of the engine's graph driver:
//! [`apply_volume`] inside the Predict task, on the worker's own
//! [`StpOutputs`] right after the kernel produced them (F̄ still in cache;
//! only the twelve face traces are kept per cell), and [`apply_face`] —
//! a whole-row lane kernel at the plan's ISA — six times per cell in the
//! Apply task. Per cell the operations on `q` keep one fixed order:
//! volume x, y, z, then the faces in `Face::ALL` order. Under LTS a
//! shard's half-window predictor runs read `q⁰`, so they come *before*
//! the in-place volume update. The barrier pipeline, the unfused
//! reference, calls both halves after its global barrier on step-local
//! outputs.

use crate::kernels::log::derive_gemm_aos;
use crate::kernels::StpOutputs;
use crate::plan::StpPlan;
use aderdg_pde::LinearPde;
use aderdg_tensor::simd::{dispatch, LaneKernel, SimdF64};
use aderdg_tensor::AlignedVec;

/// Scratch buffers of the corrector (one per worker thread).
#[derive(Debug, Clone)]
pub struct CorrectorScratch {
    /// Derivative of a time-averaged flux tensor.
    dflux: AlignedVec,
    /// Gradient of `q̄` (ncp only).
    grad: AlignedVec,
    /// Pointwise ncp result.
    ncp: Vec<f64>,
}

impl CorrectorScratch {
    /// Allocates corrector scratch for `plan`.
    pub fn new(plan: &StpPlan) -> Self {
        Self {
            dflux: AlignedVec::zeroed(plan.aos.len()),
            grad: AlignedVec::zeroed(plan.aos.len()),
            ncp: vec![0.0; plan.m()],
        }
    }
}

/// Applies the volume contribution: `q += Σ_d ∂_d F̄_d (+ B_d ∂_d q̄)`.
pub fn apply_volume(
    plan: &StpPlan,
    pde: &dyn LinearPde,
    scratch: &mut CorrectorScratch,
    outputs: &StpOutputs,
    q: &mut [f64],
) {
    let m = plan.m();
    let m_pad = plan.aos.m_pad();
    let vol = plan.n().pow(3);
    for d in 0..3 {
        derive_gemm_aos(plan, d, &outputs.favg[d], &mut scratch.dflux, false);
        for (qv, dv) in q.iter_mut().zip(scratch.dflux.iter()) {
            *qv += dv;
        }
        if pde.has_ncp() {
            derive_gemm_aos(plan, d, &outputs.qavg, &mut scratch.grad, false);
            for k in 0..vol {
                pde.ncp(
                    d,
                    &outputs.qavg[k * m_pad..k * m_pad + m],
                    &scratch.grad[k * m_pad..k * m_pad + m],
                    &mut scratch.ncp,
                );
                for s in 0..m {
                    q[k * m_pad + s] += scratch.ncp[s];
                }
            }
        }
    }
}

/// Applies one face correction: face of normal dimension `d`, `side`
/// (0 = lower), given the resolved numerical flux `f_star` and the cell's
/// own face flux trace `f_own`.
///
/// Runs at the plan's ISA level over whole padded quantity rows: per face
/// node the difference `F* − F̄_own` is formed once, then each of the `n`
/// volume rows along `d` gets `q += c_kd · (F* − F̄_own)` with an unfused
/// multiply and add — the same operations in the same order as the scalar
/// loop it replaced, so the result does not depend on the ISA level. The
/// padding entries of both face tensors must be zero (the predictor and
/// the Riemann solve write them so): the state's padding then gains a
/// signed zero, which leaves every value but a `-0.0` as it was (the
/// engine's state padding is `+0.0`).
pub fn apply_face(
    plan: &StpPlan,
    d: usize,
    side: usize,
    f_star: &[f64],
    f_own: &[f64],
    q: &mut [f64],
) {
    let n = plan.n();
    let m_pad = plan.aos.m_pad();
    debug_assert_eq!(m_pad, plan.face.m_pad());
    assert!(d < 3 && side < 2, "face out of range");
    assert!(q.len() >= plan.aos.len(), "volume tensor too short");
    assert!(
        f_star.len() >= plan.face.len() && f_own.len() >= plan.face.len(),
        "face tensor too short"
    );
    // Face node (a, b) lifts into the volume rows at
    // `a·outer + b·inner + kd·step`, kd = 0..n — faceproj's ordering.
    let (outer, inner, step) = match d {
        0 => (n * n, n, 1), // x-faces: (k3=a, k2=b, k1=kd)
        1 => (n * n, 1, n), // y-faces: (k3=a, k1=b, k2=kd)
        _ => (n, 1, n * n), // z-faces: (k2=a, k1=b, k3=kd)
    };
    dispatch(
        plan.isa(),
        m_pad,
        FaceLift {
            q,
            f_star,
            f_own,
            phi: if side == 0 {
                &plan.basis.phi_left
            } else {
                &plan.basis.phi_right
            },
            inv_w: &plan.basis.inv_weights,
            sign: if side == 1 { 1.0 } else { -1.0 },
            scale: plan.inv_dx[d],
            n,
            m_pad,
            outer,
            inner,
            step,
        },
    );
}

/// One face's lift into the volume, for [`dispatch`].
struct FaceLift<'a> {
    q: &'a mut [f64],
    f_star: &'a [f64],
    f_own: &'a [f64],
    phi: &'a [f64],
    inv_w: &'a [f64],
    sign: f64,
    scale: f64,
    n: usize,
    m_pad: usize,
    outer: usize,
    inner: usize,
    step: usize,
}

impl LaneKernel for FaceLift<'_> {
    #[inline(always)]
    fn run<S: SimdF64>(self) {
        let (n, m_pad) = (self.n, self.m_pad);
        debug_assert_eq!(m_pad % S::LANES, 0, "dispatch granule contract");
        // The last row any face node touches bounds every row below.
        let last_row = (n - 1) * (self.outer + self.inner + self.step);
        assert!(self.q.len() >= (last_row + 1) * m_pad);
        assert!(self.phi.len() >= n && self.inv_w.len() >= n);
        let faces = self
            .f_star
            .chunks_exact(m_pad)
            .zip(self.f_own.chunks_exact(m_pad));
        for (node, (fs, fo)) in faces.take(n * n).enumerate() {
            let first = (node / n) * self.outer + (node % n) * self.inner;
            let mut i = 0;
            while i + S::LANES <= m_pad {
                // SAFETY: `fs` and `fo` are chunks of exactly `m_pad`
                // doubles and `i + S::LANES <= m_pad`.
                let diff = unsafe { S::load(fs.as_ptr().add(i)).sub(S::load(fo.as_ptr().add(i))) };
                for kd in 0..n {
                    let c = self.sign * self.phi[kd] * self.inv_w[kd] * self.scale;
                    let at = (first + kd * self.step) * m_pad + i;
                    // SAFETY: `node / n`, `node % n` and `kd` are all below
                    // `n`, so the row is at most `last_row`, and `i +
                    // S::LANES <= m_pad`: the access ends inside the
                    // `(last_row + 1) · m_pad` doubles `q` was checked to
                    // hold.
                    unsafe {
                        let p = self.q.as_mut_ptr().add(at);
                        S::load(p).add(S::splat(c).mul(diff)).store(p);
                    }
                }
                i += S::LANES;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::StpInputs;
    use crate::plan::{KernelVariant, StpConfig};
    use aderdg_pde::AdvectionSystem;

    /// The scalar loop [`apply_face`] replaced, kept as the bitwise
    /// reference.
    fn apply_face_reference(
        plan: &StpPlan,
        d: usize,
        side: usize,
        f_star: &[f64],
        f_own: &[f64],
        q: &mut [f64],
    ) {
        let n = plan.n();
        let m = plan.m();
        let m_pad = plan.aos.m_pad();
        let mf_pad = plan.face.m_pad();
        let phi = if side == 0 {
            &plan.basis.phi_left
        } else {
            &plan.basis.phi_right
        };
        let sign = if side == 1 { 1.0 } else { -1.0 };
        let inv_w = &plan.basis.inv_weights;
        let scale = plan.inv_dx[d];
        for a in 0..n {
            for b in 0..n {
                let fo = (a * n + b) * mf_pad;
                for kd in 0..n {
                    let c = sign * phi[kd] * inv_w[kd] * scale;
                    let node = match d {
                        0 => (a * n + b) * n + kd,
                        1 => (a * n + kd) * n + b,
                        _ => (kd * n + a) * n + b,
                    };
                    let qo = node * m_pad;
                    for s in 0..m {
                        q[qo + s] += c * (f_star[fo + s] - f_own[fo + s]);
                    }
                }
            }
        }
    }

    #[test]
    fn face_lift_is_bitwise_equal_to_the_scalar_loop_at_every_isa() {
        for (n, m) in [(3, 6), (4, 9), (7, 21)] {
            for backend in aderdg_gemm::backends().iter().filter(|b| b.supported()) {
                let p =
                    StpPlan::with_gemm_backend(StpConfig::new(n, m), [1.0, 0.8, 1.25], *backend);
                let mut rng = aderdg_tensor::Lcg::new((n * 100 + m) as u64);
                // Every state entry nonzero — parameter rows and padding
                // included; face tensors with the zero padding the
                // predictor and the Riemann solve write.
                let q0 = rng.vec(p.aos.len(), -1.0, 1.0);
                let face = |rng: &mut aderdg_tensor::Lcg| {
                    let mut f = vec![0.0; p.face.len()];
                    for node in f.chunks_exact_mut(p.face.m_pad()) {
                        node[..m].copy_from_slice(&rng.vec(m, -1.0, 1.0));
                    }
                    f
                };
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for d in 0..3 {
                    for side in 0..2 {
                        let (f_star, f_own) = (face(&mut rng), face(&mut rng));
                        let mut want = q0.clone();
                        apply_face_reference(&p, d, side, &f_star, &f_own, &mut want);
                        let mut got = q0.clone();
                        apply_face(&p, d, side, &f_star, &f_own, &mut got);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{} n={n} m={m} d={d} side={side}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    /// 1-D sanity: a smooth periodic advection profile updated with exact
    /// (periodic self-) neighbour data must match the exact translation,
    /// with spectrally decreasing error in the order (a systematic scheme
    /// bug would produce an O(dt) error independent of the order).
    #[test]
    fn single_cell_periodic_advection_converges() {
        let e6 = one_step_error(6);
        let e9 = one_step_error(9);
        let e12 = one_step_error(12);
        assert!(e9 < e6 / 20.0, "e6={e6} e9={e9}");
        assert!(e12 < e9 / 20.0, "e9={e9} e12={e12}");
        // n = 12 resolves sin(2πx) to ~1e-7 (spectral interpolation limit).
        assert!(e12 < 1e-6, "e12={e12}");
    }

    fn one_step_error(n: usize) -> f64 {
        let plan = StpPlan::new(StpConfig::new(n, 1), [1.0; 3]);
        let pde = AdvectionSystem::new(1, [1.0, 0.0, 0.0]);
        let m_pad = plan.aos.m_pad();
        let nodes = plan.basis.nodes.clone();
        // q(x) = sin(2πx) on a single periodic unit cell.
        let mut q = vec![0.0; plan.aos.len()];
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    q[((k3 * n + k2) * n + k1) * m_pad] =
                        (2.0 * std::f64::consts::PI * nodes[k1]).sin();
                }
            }
        }
        let dt = 0.01;
        let mut out = StpOutputs::new(&plan);
        let kernel = KernelVariant::SplitCk.kernel();
        let mut scratch = kernel.make_scratch(&plan);
        kernel.run(
            &plan,
            &pde,
            scratch.as_mut(),
            &StpInputs {
                q0: &q,
                dt,
                source: None,
            },
            &mut out,
        );
        // Periodic: the neighbour on either side is the cell itself.
        let mut corr = CorrectorScratch::new(&plan);
        apply_volume(&plan, &pde, &mut corr, &out, &mut q);
        use crate::riemann::rusanov_face;
        let mut f_star = vec![0.0; plan.face.len()];
        // x-lower face: left neighbour's upper face is our own upper face.
        rusanov_face(
            &plan,
            &pde,
            0,
            &out.qface[1],
            &out.fface[1],
            &out.qface[0],
            &out.fface[0],
            &mut f_star,
        );
        apply_face(&plan, 0, 0, &f_star, &out.fface[0], &mut q);
        // x-upper face: right neighbour's lower face is our own lower face.
        rusanov_face(
            &plan,
            &pde,
            0,
            &out.qface[1],
            &out.fface[1],
            &out.qface[0],
            &out.fface[0],
            &mut f_star,
        );
        apply_face(&plan, 0, 1, &f_star, &out.fface[1], &mut q);
        // y/z faces: fluxes are zero for x-advection; F* − F̄ = 0. Skip.
        let mut err: f64 = 0.0;
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    let got = q[((k3 * n + k2) * n + k1) * m_pad];
                    let want = (2.0 * std::f64::consts::PI * (nodes[k1] - dt)).sin();
                    err = err.max((got - want).abs());
                }
            }
        }
        err
    }

    #[test]
    fn zero_flux_difference_is_identity() {
        let plan = StpPlan::new(StpConfig::new(4, 2), [1.0; 3]);
        let f = vec![1.5; plan.face.len()];
        let mut q = vec![0.25; plan.aos.len()];
        let q0 = q.clone();
        for d in 0..3 {
            for side in 0..2 {
                apply_face(&plan, d, side, &f, &f, &mut q);
            }
        }
        assert_eq!(q, q0);
    }
}
