//! Linear advection systems — the simplest linear PDEs, used for kernel
//! equivalence and convergence testing at arbitrary quantity counts.
//!
//! [`AdvectionSystem`] advects every component with the same velocity via
//! the conservative flux; [`AdvectionNcpSystem`] realizes the *identical*
//! dynamics through the non-conservative product `B·∇Q` instead. Running
//! both through a kernel and comparing results exercises the `computeF`
//! and `computeNcp` code paths of the predictor against each other.

use crate::lanes::{run_line, scale, LineFn, Rows};
use crate::traits::{ExactSolution, LinearPde};
use aderdg_tensor::simd::{Isa, SimdF64};

/// `n_vars` independently advected quantities, `∂t q + a·∇q = 0`,
/// implemented via the conservative flux `F_d(q) = -a_d q`.
///
/// With the engine convention `Q_t = ∇·F(Q) + B·∇Q`, the flux must carry
/// the minus sign:
///
/// ```
/// use aderdg_pde::{AdvectionSystem, LinearPde};
///
/// let pde = AdvectionSystem::new(2, [3.0, 0.0, 0.0]);
/// let mut f = [0.0; 2];
/// pde.flux(0, &[1.0, -2.0], &mut f);
/// assert_eq!(f, [-3.0, 6.0]);
/// assert_eq!(pde.max_wavespeed(0, &[0.0; 2]), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdvectionSystem {
    /// Number of advected components.
    pub n_vars: usize,
    /// Advection velocity.
    pub velocity: [f64; 3],
}

impl AdvectionSystem {
    /// New system with `n_vars` components and velocity `a`.
    pub fn new(n_vars: usize, velocity: [f64; 3]) -> Self {
        assert!(n_vars >= 1);
        Self { n_vars, velocity }
    }
}

impl LinearPde for AdvectionSystem {
    fn num_vars(&self) -> usize {
        self.n_vars
    }

    fn flux(&self, d: usize, q: &[f64], f: &mut [f64]) {
        let a = -self.velocity[d];
        for s in 0..self.n_vars {
            f[s] = a * q[s];
        }
        for v in f[self.n_vars..].iter_mut() {
            *v = 0.0;
        }
    }

    fn flux_lanes(&self, isa: Isa, d: usize, q: &[f64], f: &mut [f64], _len: usize, stride: usize) {
        // Fig. 8 pattern over the full padded lane range: padding lanes
        // are zero in q, so they stay zero in f. No parameters: every row
        // of the chunk is the same scaling.
        let width = self.n_vars * stride;
        scale(isa, -self.velocity[d], &q[..width], &mut f[..width]);
    }

    fn has_vectorized_user_functions(&self) -> bool {
        true
    }

    fn max_wavespeed(&self, d: usize, _q: &[f64]) -> f64 {
        self.velocity[d].abs()
    }

    fn flux_flops(&self) -> u64 {
        self.n_vars as u64
    }
}

/// The same advection dynamics expressed through the non-conservative
/// product: `F ≡ 0`, `B_d ∇_d Q = -a_d ∇_d Q`.
///
/// ```
/// use aderdg_pde::{AdvectionNcpSystem, LinearPde};
///
/// let pde = AdvectionNcpSystem::new(1, [2.0, 0.0, 0.0]);
/// assert!(pde.has_ncp());
/// let mut out = [7.0];
/// pde.flux(0, &[1.0], &mut out); // no conservative flux at all
/// assert_eq!(out, [0.0]);
/// pde.ncp(0, &[1.0], &[0.5], &mut out); // B_x ∇_x q = −a_x ∇_x q
/// assert_eq!(out, [-1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct AdvectionNcpSystem {
    /// Number of advected components.
    pub n_vars: usize,
    /// Advection velocity.
    pub velocity: [f64; 3],
}

impl AdvectionNcpSystem {
    /// New system with `n_vars` components and velocity `a`.
    pub fn new(n_vars: usize, velocity: [f64; 3]) -> Self {
        assert!(n_vars >= 1);
        Self { n_vars, velocity }
    }
}

impl LinearPde for AdvectionNcpSystem {
    fn num_vars(&self) -> usize {
        self.n_vars
    }

    fn flux(&self, _d: usize, _q: &[f64], f: &mut [f64]) {
        f.fill(0.0);
    }

    fn has_ncp(&self) -> bool {
        true
    }

    fn ncp(&self, d: usize, _q: &[f64], grad: &[f64], out: &mut [f64]) {
        let a = -self.velocity[d];
        for s in 0..self.n_vars {
            out[s] = a * grad[s];
        }
        for v in out[self.n_vars..].iter_mut() {
            *v = 0.0;
        }
    }

    fn ncp_lanes(
        &self,
        isa: Isa,
        d: usize,
        _q: &[f64],
        grad: &[f64],
        out: &mut [f64],
        _len: usize,
        stride: usize,
    ) {
        let width = self.n_vars * stride;
        scale(isa, -self.velocity[d], &grad[..width], &mut out[..width]);
    }

    fn has_vectorized_user_functions(&self) -> bool {
        true
    }

    fn max_wavespeed(&self, d: usize, _q: &[f64]) -> f64 {
        self.velocity[d].abs()
    }

    fn flux_flops(&self) -> u64 {
        0
    }

    fn ncp_flops(&self) -> u64 {
        self.n_vars as u64
    }
}

/// Solid-body-rotation advection: one quantity transported by the
/// divergence-free velocity field `v(x) = ω ẑ × (x − c)` (rotation about
/// the vertical axis through `center`), stored per node as three
/// parameters — the first *variable-coefficient* system in the gallery.
///
/// Because `∇·v = 0`, the conservative flux `F_d = −v_d q` realizes the
/// transport `q_t + v·∇q = 0` exactly; the velocity parameters are linear
/// in position, so the nodal parameter interpolation is exact for every
/// scheme order ≥ 2.
///
/// ```
/// use aderdg_pde::{LinearPde, RotatingAdvection};
///
/// let pde = RotatingAdvection { omega: 2.0, center: [0.5, 0.5, 0.5] };
/// let mut q = vec![3.0, 0.0, 0.0, 0.0]; // q plus the 3 velocity params
/// RotatingAdvection::set_params(&mut q, 2.0, [0.5, 0.5, 0.5], [0.5, 0.75, 0.1]);
/// // At (0.5, 0.75, ·) the velocity is ω·(−0.25, 0, 0) = (−0.5, 0, 0).
/// let mut f = vec![0.0; 4];
/// pde.flux(0, &q, &mut f);
/// assert!((f[0] - 0.5 * 3.0).abs() < 1e-14); // F_x = −v_x q = +0.5 q
/// assert!((pde.max_wavespeed(0, &q) - 0.5).abs() < 1e-14);
/// ```
#[derive(Debug, Clone)]
pub struct RotatingAdvection {
    /// Angular velocity about the vertical axis.
    pub omega: f64,
    /// Rotation centre.
    pub center: [f64; 3],
}

/// Number of evolved quantities of [`RotatingAdvection`].
pub const ROTATION_VARS: usize = 1;
/// Parameters of [`RotatingAdvection`]: the local velocity `(vx, vy, vz)`.
pub const ROTATION_PARAMS: usize = 3;

impl RotatingAdvection {
    /// Fills the velocity parameter slots of a node at position `x` for a
    /// rotation of angular velocity `omega` about the vertical axis
    /// through `center`.
    pub fn set_params(q: &mut [f64], omega: f64, center: [f64; 3], x: [f64; 3]) {
        q[ROTATION_VARS] = -omega * (x[1] - center[1]);
        q[ROTATION_VARS + 1] = omega * (x[0] - center[0]);
        q[ROTATION_VARS + 2] = 0.0;
    }
}

/// The vectorised flux (Fig. 8): `F_d = −v_d q` with the per-lane velocity.
struct RotatingFluxLanes {
    d: usize,
}

impl LineFn<{ ROTATION_VARS + ROTATION_PARAMS }, ROTATION_VARS> for RotatingFluxLanes {
    #[inline(always)]
    fn eval<S: SimdF64>(
        &self,
        q: &Rows<'_, S, { ROTATION_VARS + ROTATION_PARAMS }>,
        _grad: &Rows<'_, S, { ROTATION_VARS + ROTATION_PARAMS }>,
        _valid: usize,
    ) -> [S; ROTATION_VARS] {
        [q.get(ROTATION_VARS + self.d.min(2)).mul(q.get(0)).neg()]
    }
}

impl LinearPde for RotatingAdvection {
    fn num_vars(&self) -> usize {
        ROTATION_VARS
    }

    fn num_params(&self) -> usize {
        ROTATION_PARAMS
    }

    fn flux(&self, d: usize, q: &[f64], f: &mut [f64]) {
        f.fill(0.0);
        f[0] = -q[ROTATION_VARS + d] * q[0];
    }

    fn flux_lanes(&self, isa: Isa, d: usize, q: &[f64], f: &mut [f64], len: usize, stride: usize) {
        run_line(isa, &RotatingFluxLanes { d }, q, q, f, len, stride);
    }

    fn has_vectorized_user_functions(&self) -> bool {
        true
    }

    fn max_wavespeed(&self, d: usize, q: &[f64]) -> f64 {
        q[ROTATION_VARS + d].abs()
    }

    fn flux_flops(&self) -> u64 {
        1
    }
}

/// Exact solution of [`RotatingAdvection`]: a Gaussian patch carried
/// rigidly around the rotation centre,
/// `q(x, t) = A exp(−|R(−ωt)(x − c) − (x₀ − c)|² / (2σ²))`.
///
/// ```
/// use aderdg_pde::{ExactSolution, RotatingGaussian};
///
/// let exact = RotatingGaussian {
///     omega: std::f64::consts::PI, // half a turn per unit time
///     center: [0.5, 0.5, 0.5],
///     start: [0.7, 0.5, 0.5],
///     sigma: 0.1,
///     amplitude: 1.0,
/// };
/// let mut q = [0.0];
/// // After half a turn the peak sits diametrically opposite the start.
/// exact.evaluate([0.3, 0.5, 0.5], 1.0, &mut q);
/// assert!((q[0] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct RotatingGaussian {
    /// Angular velocity (must match the PDE).
    pub omega: f64,
    /// Rotation centre (must match the PDE).
    pub center: [f64; 3],
    /// Initial peak position.
    pub start: [f64; 3],
    /// Gaussian width.
    pub sigma: f64,
    /// Peak amplitude.
    pub amplitude: f64,
}

impl ExactSolution for RotatingGaussian {
    fn evaluate(&self, x: [f64; 3], t: f64, q: &mut [f64]) {
        // Trace the point back: rotate (x − c) by −ωt about ẑ.
        let (s, c) = (-self.omega * t).sin_cos();
        let dx = x[0] - self.center[0];
        let dy = x[1] - self.center[1];
        let back = [
            c * dx - s * dy + self.center[0],
            s * dx + c * dy + self.center[1],
            x[2],
        ];
        let r2: f64 = (0..3).map(|d| (back[d] - self.start[d]).powi(2)).sum();
        q[0] = self.amplitude * (-r2 / (2.0 * self.sigma * self.sigma)).exp();
    }
}

/// Smooth periodic exact solution `q_s(x, t) = sin(2π (k·(x − a t)) + φ_s)`
/// on the unit-periodic domain.
///
/// ```
/// use aderdg_pde::{AdvectedSine, ExactSolution};
///
/// let exact = AdvectedSine { n_vars: 1, velocity: [1.0, 0.0, 0.0], wave: [1.0, 0.0, 0.0] };
/// let (mut a, mut b) = ([0.0], [0.0]);
/// exact.evaluate([0.2, 0.0, 0.0], 0.0, &mut a);
/// exact.evaluate([0.5, 0.0, 0.0], 0.3, &mut b); // translated by a·t
/// assert!((a[0] - b[0]).abs() < 1e-14);
/// ```
#[derive(Debug, Clone)]
pub struct AdvectedSine {
    /// Number of components (each phase-shifted).
    pub n_vars: usize,
    /// Advection velocity (must match the PDE).
    pub velocity: [f64; 3],
    /// Integer wave vector (periodicity on the unit cube).
    pub wave: [f64; 3],
}

impl ExactSolution for AdvectedSine {
    fn evaluate(&self, x: [f64; 3], t: f64, q: &mut [f64]) {
        let phase: f64 = (0..3)
            .map(|d| self.wave[d] * (x[d] - self.velocity[d] * t))
            .sum();
        for s in 0..self.n_vars {
            q[s] = (2.0 * std::f64::consts::PI * phase + s as f64).sin();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flux_and_ncp_forms_agree_on_derivative_action() {
        // For the same state gradient, flux-divergence of F = -a q equals
        // the ncp product -a ∇q (constant coefficients).
        let a = [1.3, -0.4, 0.8];
        let f_sys = AdvectionSystem::new(4, a);
        let n_sys = AdvectionNcpSystem::new(4, a);
        let grad = [0.3, -1.0, 0.25, 2.0];
        let q = [0.0; 4];
        for d in 0..3 {
            // d(F_d)/dx = -a_d dq/dx for linear flux: evaluate flux on the
            // gradient itself (linearity).
            let mut via_flux = [0.0; 4];
            f_sys.flux(d, &grad, &mut via_flux);
            let mut via_ncp = [0.0; 4];
            n_sys.ncp(d, &q, &grad, &mut via_ncp);
            assert_eq!(via_flux, via_ncp);
        }
    }

    #[test]
    fn vectorized_paths_match_defaults() {
        let sys = AdvectionSystem::new(3, [0.5, 1.0, -2.0]);
        let stride = 8;
        let len = 6;
        let m = sys.num_quantities();
        let mut q = vec![0.0; m * stride];
        for s in 0..m {
            for i in 0..len {
                q[s * stride + i] = (s + 1) as f64 * (i as f64 - 2.5);
            }
        }
        for d in 0..3 {
            let mut f_vec = vec![0.0; m * stride];
            sys.flux_vect(d, &q, &mut f_vec, len, stride);
            // Pointwise reference.
            for i in 0..len {
                let qi: Vec<f64> = (0..m).map(|s| q[s * stride + i]).collect();
                let mut fi = vec![0.0; m];
                sys.flux(d, &qi, &mut fi);
                for s in 0..m {
                    assert!((f_vec[s * stride + i] - fi[s]).abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn wavespeeds() {
        let sys = AdvectionSystem::new(1, [3.0, -4.0, 0.0]);
        assert_eq!(sys.max_wavespeed(0, &[0.0]), 3.0);
        assert_eq!(sys.max_wavespeed(1, &[0.0]), 4.0);
        assert_eq!(sys.max_wavespeed(2, &[0.0]), 0.0);
    }

    #[test]
    fn rotation_flux_matches_pointwise_and_is_divergence_free_transport() {
        let pde = RotatingAdvection {
            omega: 1.5,
            center: [0.5, 0.5, 0.5],
        };
        let x = [0.8, 0.4, 0.3];
        let mut q = vec![2.0, 0.0, 0.0, 0.0];
        RotatingAdvection::set_params(&mut q, 1.5, [0.5, 0.5, 0.5], x);
        // v = ω (−(y−cy), x−cx, 0) = 1.5 · (0.1, 0.3, 0).
        assert!((q[1] - 0.15).abs() < 1e-14);
        assert!((q[2] - 0.45).abs() < 1e-14);
        assert_eq!(q[3], 0.0);
        let mut f = vec![0.0; 4];
        pde.flux(0, &q, &mut f);
        assert!((f[0] + 0.15 * 2.0).abs() < 1e-14);
        pde.flux(2, &q, &mut f);
        assert_eq!(f[0], 0.0);

        // Vectorized path against pointwise.
        let stride = 4;
        let m = pde.num_quantities();
        let mut qs = vec![0.0; m * stride];
        for i in 0..stride {
            for s in 0..m {
                qs[s * stride + i] = q[s] * (1.0 + i as f64);
            }
        }
        for d in 0..3 {
            let mut fv = vec![f64::NAN; m * stride];
            pde.flux_vect(d, &qs, &mut fv, stride, stride);
            for i in 0..stride {
                let qi: Vec<f64> = (0..m).map(|s| qs[s * stride + i]).collect();
                let mut fi = vec![0.0; m];
                pde.flux(d, &qi, &mut fi);
                for s in 0..m {
                    assert!((fv[s * stride + i] - fi[s]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn rotating_gaussian_returns_after_full_turn() {
        let exact = RotatingGaussian {
            omega: 2.0 * std::f64::consts::PI,
            center: [0.5, 0.5, 0.5],
            start: [0.7, 0.55, 0.5],
            sigma: 0.08,
            amplitude: 0.9,
        };
        let x = [0.62, 0.47, 0.51];
        let mut q0 = [0.0];
        let mut q1 = [0.0];
        exact.evaluate(x, 0.0, &mut q0);
        exact.evaluate(x, 1.0, &mut q1);
        assert!((q0[0] - q1[0]).abs() < 1e-12);
        // Quarter turn moves the peak from (0.7, 0.5) to (0.5, 0.7).
        let exact = RotatingGaussian {
            omega: std::f64::consts::FRAC_PI_2,
            center: [0.5, 0.5, 0.5],
            start: [0.7, 0.5, 0.5],
            sigma: 0.08,
            amplitude: 1.0,
        };
        let mut q = [0.0];
        exact.evaluate([0.5, 0.7, 0.5], 1.0, &mut q);
        assert!((q[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_solution_translates() {
        let ex = AdvectedSine {
            n_vars: 2,
            velocity: [1.0, 0.0, 0.0],
            wave: [1.0, 0.0, 0.0],
        };
        let mut q0 = [0.0; 2];
        let mut q1 = [0.0; 2];
        ex.evaluate([0.25, 0.0, 0.0], 0.0, &mut q0);
        ex.evaluate([0.55, 0.0, 0.0], 0.3, &mut q1);
        assert!((q0[0] - q1[0]).abs() < 1e-14);
        assert!((q0[1] - q1[1]).abs() < 1e-14);
    }
}
