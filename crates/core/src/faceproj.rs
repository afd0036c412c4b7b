//! Projection of volume tensors onto element faces.
//!
//! Contracts the node index normal to a face with the boundary-evaluation
//! vectors `φ(0)` and `φ(1)`. The paper notes this is a single small
//! matrix-matrix product with no further optimization head-room
//! (Sec. II-B); we implement it once — a lane kernel at the plan's ISA
//! level — shared by every kernel variant.
//!
//! Face-node ordering: x-faces use `(k3, k2)`, y-faces `(k3, k1)`,
//! z-faces `(k2, k1)` — adjacent cells therefore index their shared face
//! identically.

use crate::plan::StpPlan;
use aderdg_tensor::simd::{dispatch, LaneKernel, SimdF64};

/// Projects the padded AoS volume tensor `vol` onto both faces of normal
/// dimension `d` in one pass: `lo` receives the `φ(0)` contraction, `hi`
/// the `φ(1)` contraction (padded face tensors).
///
/// Runs at the plan's ISA level over whole padded quantity rows. Every
/// entry accumulates `0 + w₀v₀ + w₁v₁ + …` in ascending node order with
/// an unfused multiply and add, so the result does not depend on the ISA
/// level. The padding entries of `vol` must be zero (every kernel writes
/// them so); they project to the zero padding of the faces.
pub fn project_dim(plan: &StpPlan, vol: &[f64], d: usize, lo: &mut [f64], hi: &mut [f64]) {
    let n = plan.n();
    let m_pad = plan.aos.m_pad();
    debug_assert_eq!(m_pad, plan.face.m_pad());
    assert!(d < 3, "dimension out of range");
    assert!(vol.len() >= plan.aos.len(), "volume tensor too short");
    assert!(
        lo.len() >= plan.face.len() && hi.len() >= plan.face.len(),
        "face tensor too short"
    );
    // Face node (a, b) contracts the volume rows at
    // `a·outer + b·inner + k·step`, k = 0..n (all in rows of `m_pad`).
    let (outer, inner, step) = match d {
        0 => (n * n, n, 1), // contract k1; face nodes (k3, k2)
        1 => (n * n, 1, n), // contract k2; face nodes (k3, k1)
        _ => (n, 1, n * n), // contract k3; face nodes (k2, k1)
    };
    dispatch(
        plan.isa(),
        m_pad,
        ProjectDim {
            vol,
            lo,
            hi,
            phi_lo: &plan.basis.phi_left,
            phi_hi: &plan.basis.phi_right,
            n,
            m_pad,
            outer,
            inner,
            step,
        },
    );
}

/// One dimension's pair of face projections, for [`dispatch`].
struct ProjectDim<'a> {
    vol: &'a [f64],
    lo: &'a mut [f64],
    hi: &'a mut [f64],
    phi_lo: &'a [f64],
    phi_hi: &'a [f64],
    n: usize,
    m_pad: usize,
    outer: usize,
    inner: usize,
    step: usize,
}

impl LaneKernel for ProjectDim<'_> {
    #[inline(always)]
    fn run<S: SimdF64>(self) {
        let (n, m_pad) = (self.n, self.m_pad);
        debug_assert_eq!(m_pad % S::LANES, 0, "dispatch granule contract");
        // The last row any face node touches bounds every row below.
        let last_row = (n - 1) * (self.outer + self.inner + self.step);
        assert!(self.vol.len() >= (last_row + 1) * m_pad && self.phi_lo.len() >= n);
        assert!(self.phi_hi.len() >= n);
        let faces = self
            .lo
            .chunks_exact_mut(m_pad)
            .zip(self.hi.chunks_exact_mut(m_pad));
        for (node, (lo, hi)) in faces.take(n * n).enumerate() {
            let first = (node / n) * self.outer + (node % n) * self.inner;
            let mut i = 0;
            while i + S::LANES <= m_pad {
                let (mut acc_lo, mut acc_hi) = (S::zero(), S::zero());
                for k in 0..n {
                    let row = first + k * self.step;
                    // SAFETY: `node / n`, `node % n` and `k` are all below
                    // `n`, so `row <= last_row`, and `i + S::LANES <=
                    // m_pad`: the load ends inside the `(last_row + 1) ·
                    // m_pad` doubles `vol` was checked to hold.
                    let v = unsafe { S::load(self.vol.as_ptr().add(row * m_pad + i)) };
                    acc_lo = acc_lo.add(S::splat(self.phi_lo[k]).mul(v));
                    acc_hi = acc_hi.add(S::splat(self.phi_hi[k]).mul(v));
                }
                // SAFETY: `lo` and `hi` are chunks of exactly `m_pad`
                // doubles and `i + S::LANES <= m_pad`.
                unsafe {
                    acc_lo.store(lo.as_mut_ptr().add(i));
                    acc_hi.store(hi.as_mut_ptr().add(i));
                }
                i += S::LANES;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{StpConfig, StpPlan};

    /// The one-side scalar loop [`project_dim`] replaced, kept as the
    /// bitwise reference.
    fn project_to_face_reference(
        plan: &StpPlan,
        vol: &[f64],
        d: usize,
        side: usize,
        out: &mut [f64],
    ) {
        let n = plan.n();
        let m = plan.m();
        let m_pad = plan.aos.m_pad();
        let phi = if side == 0 {
            &plan.basis.phi_left
        } else {
            &plan.basis.phi_right
        };
        out[..plan.face.len()].fill(0.0);
        for a in 0..n {
            for b in 0..n {
                for (k, &w) in phi.iter().enumerate() {
                    let (fo, vo) = match d {
                        0 => (a * n + b, (a * n + b) * n + k),
                        1 => (a * n + b, (a * n + k) * n + b),
                        _ => (a * n + b, (k * n + a) * n + b),
                    };
                    for s in 0..m {
                        out[fo * m_pad + s] += w * vol[vo * m_pad + s];
                    }
                }
            }
        }
    }

    /// One side of [`project_dim`].
    fn project_to_face(plan: &StpPlan, vol: &[f64], d: usize, side: usize, out: &mut [f64]) {
        let mut other = vec![f64::NAN; plan.face.len()];
        if side == 0 {
            project_dim(plan, vol, d, out, &mut other);
        } else {
            project_dim(plan, vol, d, &mut other, out);
        }
    }

    #[test]
    fn bitwise_equal_to_the_one_side_loop_at_every_backend() {
        for (n, m) in [(3, 2), (4, 6), (5, 9), (7, 21)] {
            for backend in aderdg_gemm::backends().iter().filter(|b| b.supported()) {
                let p = StpPlan::with_gemm_backend(StpConfig::new(n, m), [1.0; 3], *backend);
                let mut rng = aderdg_tensor::Lcg::new((n * 100 + m) as u64);
                let mut vol = vec![0.0; p.aos.len()];
                for node in vol.chunks_exact_mut(p.aos.m_pad()) {
                    node[..m].copy_from_slice(&rng.vec(m, -1.0, 1.0));
                }
                for d in 0..3 {
                    let mut want = [vec![f64::NAN; p.face.len()], vec![f64::NAN; p.face.len()]];
                    project_to_face_reference(&p, &vol, d, 0, &mut want[0]);
                    project_to_face_reference(&p, &vol, d, 1, &mut want[1]);
                    let mut lo = vec![f64::NAN; p.face.len()];
                    let mut hi = vec![f64::NAN; p.face.len()];
                    project_dim(&p, &vol, d, &mut lo, &mut hi);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&lo),
                        bits(&want[0]),
                        "{} n={n} m={m} d={d} lo",
                        backend.name()
                    );
                    assert_eq!(
                        bits(&hi),
                        bits(&want[1]),
                        "{} n={n} m={m} d={d} hi",
                        backend.name()
                    );
                }
            }
        }
    }

    fn plan(n: usize, m: usize) -> StpPlan {
        StpPlan::new(StpConfig::new(n, m), [1.0; 3])
    }

    /// Fills a volume tensor with a separable polynomial field so the face
    /// values are known analytically.
    fn poly_volume(plan: &StpPlan, f: impl Fn(f64, f64, f64, usize) -> f64) -> Vec<f64> {
        let n = plan.n();
        let m = plan.m();
        let m_pad = plan.aos.m_pad();
        let x = &plan.basis.nodes;
        let mut v = vec![0.0; plan.aos.len()];
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    for s in 0..m {
                        v[((k3 * n + k2) * n + k1) * m_pad + s] = f(x[k1], x[k2], x[k3], s);
                    }
                }
            }
        }
        v
    }

    #[test]
    fn projects_polynomial_boundary_values_exactly() {
        let p = plan(5, 3);
        // q(x, y, z; s) = (x² + s)(1 + y)(2 − z) — degree < n per dim.
        let field = |x: f64, y: f64, z: f64, s: usize| (x * x + s as f64) * (1.0 + y) * (2.0 - z);
        let vol = poly_volume(&p, field);
        let mf_pad = p.face.m_pad();
        let nodes = p.basis.nodes.clone();
        let mut out = vec![0.0; p.face.len()];

        // x-lower face: x = 0, face nodes (k3, k2).
        project_to_face(&p, &vol, 0, 0, &mut out);
        for k3 in 0..5 {
            for k2 in 0..5 {
                for s in 0..3 {
                    let want = field(0.0, nodes[k2], nodes[k3], s);
                    let got = out[(k3 * 5 + k2) * mf_pad + s];
                    assert!((got - want).abs() < 1e-11, "x0 {k3},{k2},{s}");
                }
            }
        }
        // y-upper face: y = 1, face nodes (k3, k1).
        project_to_face(&p, &vol, 1, 1, &mut out);
        for k3 in 0..5 {
            for k1 in 0..5 {
                for s in 0..3 {
                    let want = field(nodes[k1], 1.0, nodes[k3], s);
                    let got = out[(k3 * 5 + k1) * mf_pad + s];
                    assert!((got - want).abs() < 1e-11, "y1 {k3},{k1},{s}");
                }
            }
        }
        // z-lower face: z = 0, face nodes (k2, k1).
        project_to_face(&p, &vol, 2, 0, &mut out);
        for k2 in 0..5 {
            for k1 in 0..5 {
                for s in 0..3 {
                    let want = field(nodes[k1], nodes[k2], 0.0, s);
                    let got = out[(k2 * 5 + k1) * mf_pad + s];
                    assert!((got - want).abs() < 1e-11, "z0 {k2},{k1},{s}");
                }
            }
        }
    }

    #[test]
    fn constant_field_projects_to_constant() {
        let p = plan(4, 2);
        let vol = poly_volume(&p, |_, _, _, s| 3.0 + s as f64);
        let mut out = vec![0.0; p.face.len()];
        for d in 0..3 {
            for side in 0..2 {
                project_to_face(&p, &vol, d, side, &mut out);
                for node in 0..16 {
                    for s in 0..2 {
                        let got = out[node * p.face.m_pad() + s];
                        assert!((got - (3.0 + s as f64)).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn padding_lanes_stay_zero() {
        let p = plan(3, 3);
        let vol = poly_volume(&p, |x, _, _, _| x);
        let mut out = vec![f64::NAN; p.face.len()];
        project_to_face(&p, &vol, 0, 1, &mut out);
        for node in 0..9 {
            for s in 3..p.face.m_pad() {
                assert_eq!(out[node * p.face.m_pad() + s], 0.0);
            }
        }
    }
}
