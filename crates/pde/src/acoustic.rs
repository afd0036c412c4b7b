//! Linear acoustics: pressure–velocity first-order form.
//!
//! `p_t = -K ∇·u`, `u_t = -∇p / ρ`, with the bulk modulus `K` and density
//! `ρ` stored as per-node parameters (piecewise-smooth media). Four evolved
//! quantities + two parameters — the "small m" workload complementing the
//! 21-quantity elastic benchmark.

use crate::lanes::{recip, run_line, LineFn, Rows};
use crate::traits::{ExactSolution, LinearPde};
use aderdg_tensor::simd::{Isa, SimdF64};

/// Index of the pressure variable.
pub const P: usize = 0;
/// Index of the first velocity component.
pub const U: usize = 1;
/// Number of evolved quantities.
pub const VARS: usize = 4;
/// Parameter slots: density, bulk modulus.
pub const PARAMS: usize = 2;

/// The acoustic wave equation with per-node material parameters.
///
/// ```
/// use aderdg_pde::{Acoustic, LinearPde};
///
/// let pde = Acoustic;
/// let mut q = vec![0.0; pde.num_quantities()];
/// q[aderdg_pde::acoustic::P] = 2.0;
/// Acoustic::set_params(&mut q, 2.0, 8.0); // ρ = 2, K = 8 → c = 2
/// assert_eq!(pde.max_wavespeed(0, &q), 2.0);
/// let mut f = vec![0.0; pde.num_quantities()];
/// pde.flux(0, &q, &mut f); // F_x[u_x] = −p/ρ = −1
/// assert_eq!(f[aderdg_pde::acoustic::U], -1.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Acoustic;

impl Acoustic {
    /// Sound speed `c = sqrt(K / ρ)` from a state's parameters.
    pub fn sound_speed(q: &[f64]) -> f64 {
        (q[VARS + 1] / q[VARS]).sqrt()
    }

    /// Fills the parameter slots of a state vector.
    pub fn set_params(q: &mut [f64], rho: f64, bulk: f64) {
        q[VARS] = rho;
        q[VARS + 1] = bulk;
    }
}

/// The vectorised flux (Fig. 8): `F_d[p] = −K u_d`, `F_d[u_d] = −p/ρ`.
struct FluxLanes {
    d: usize,
}

impl LineFn<{ VARS + PARAMS }, VARS> for FluxLanes {
    #[inline(always)]
    fn eval<S: SimdF64>(
        &self,
        q: &Rows<'_, S, { VARS + PARAMS }>,
        _grad: &Rows<'_, S, { VARS + PARAMS }>,
        valid: usize,
    ) -> [S; VARS] {
        let d = self.d.min(2);
        let inv_rho = recip(q.get(VARS), valid);
        let mut f = [S::zero(); VARS];
        f[P] = q.get(VARS + 1).mul(q.get(U + d)).neg();
        f[U + d] = q.get(P).mul(inv_rho).neg();
        f
    }
}

impl LinearPde for Acoustic {
    fn num_vars(&self) -> usize {
        VARS
    }

    fn num_params(&self) -> usize {
        PARAMS
    }

    fn flux(&self, d: usize, q: &[f64], f: &mut [f64]) {
        let rho = q[VARS];
        let bulk = q[VARS + 1];
        f.fill(0.0);
        // Q_t = ∇·F: F_d[p] = -K u_d, F_d[u_d] = -p/ρ.
        f[P] = -bulk * q[U + d];
        f[U + d] = -q[P] / rho;
    }

    fn flux_lanes(&self, isa: Isa, d: usize, q: &[f64], f: &mut [f64], len: usize, stride: usize) {
        run_line(isa, &FluxLanes { d }, q, q, f, len, stride);
    }

    fn has_vectorized_user_functions(&self) -> bool {
        true
    }

    fn max_wavespeed(&self, _d: usize, q: &[f64]) -> f64 {
        Self::sound_speed(q)
    }

    /// Rigid-wall boundary: the normal velocity flips sign in the ghost
    /// state, pressure and tangential velocities are copied.
    fn reflective_ghost(&self, d: usize, _outward: f64, q: &[f64], ghost: &mut [f64]) {
        ghost.copy_from_slice(q);
        ghost[U + d] = -q[U + d];
    }

    fn flux_flops(&self) -> u64 {
        3 // one multiply, one divide, sign folds
    }
}

/// Exact plane-wave solution of the homogeneous acoustic equations:
/// `p = A sin(2πk (n·x − c t))`, `u = (n/(ρ c)) p`.
///
/// ```
/// use aderdg_pde::{AcousticPlaneWave, ExactSolution};
///
/// let wave = AcousticPlaneWave {
///     direction: [1.0, 0.0, 0.0],
///     amplitude: 1.0,
///     wavenumber: 1.0,
///     rho: 1.0,
///     bulk: 4.0,
/// };
/// assert_eq!(wave.speed(), 2.0);
/// let mut q = [0.0; 4];
/// wave.evaluate([0.25, 0.0, 0.0], 0.0, &mut q); // sin(π/2) = 1 at the crest
/// assert!((q[0] - 1.0).abs() < 1e-12);
/// assert!((q[1] - 0.5).abs() < 1e-12); // u = p/(ρc)
/// ```
#[derive(Debug, Clone)]
pub struct AcousticPlaneWave {
    /// Unit propagation direction.
    pub direction: [f64; 3],
    /// Amplitude of the pressure wave.
    pub amplitude: f64,
    /// Spatial frequency (integer for unit-cube periodicity).
    pub wavenumber: f64,
    /// Density of the (homogeneous) medium.
    pub rho: f64,
    /// Bulk modulus of the medium.
    pub bulk: f64,
}

impl AcousticPlaneWave {
    /// Sound speed of the medium.
    pub fn speed(&self) -> f64 {
        (self.bulk / self.rho).sqrt()
    }
}

impl ExactSolution for AcousticPlaneWave {
    fn evaluate(&self, x: [f64; 3], t: f64, q: &mut [f64]) {
        let n = self.direction;
        let c = self.speed();
        let phase = 2.0
            * std::f64::consts::PI
            * self.wavenumber
            * (n[0] * x[0] + n[1] * x[1] + n[2] * x[2] - c * t);
        let p = self.amplitude * phase.sin();
        q[P] = p;
        let z = 1.0 / (self.rho * c);
        q[U] = n[0] * z * p;
        q[U + 1] = n[1] * z * p;
        q[U + 2] = n[2] * z * p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(p: f64, u: [f64; 3], rho: f64, k: f64) -> Vec<f64> {
        let mut q = vec![0.0; VARS + PARAMS];
        q[P] = p;
        q[U] = u[0];
        q[U + 1] = u[1];
        q[U + 2] = u[2];
        Acoustic::set_params(&mut q, rho, k);
        q
    }

    #[test]
    fn flux_structure() {
        let pde = Acoustic;
        let q = state(2.0, [0.5, -1.0, 0.25], 2.0, 8.0);
        let mut f = vec![0.0; 6];
        pde.flux(0, &q, &mut f);
        assert_eq!(f[P], -8.0 * 0.5);
        assert_eq!(f[U], -1.0);
        assert_eq!(f[U + 1], 0.0);
        pde.flux(2, &q, &mut f);
        assert_eq!(f[P], -8.0 * 0.25);
        assert_eq!(f[U + 2], -1.0);
        // Parameter rows never flux.
        assert_eq!(f[VARS], 0.0);
        assert_eq!(f[VARS + 1], 0.0);
    }

    #[test]
    fn wavespeed_is_sound_speed() {
        let pde = Acoustic;
        let q = state(0.0, [0.0; 3], 2.0, 8.0);
        assert!((pde.max_wavespeed(1, &q) - 2.0).abs() < 1e-14);
    }

    #[test]
    fn vectorized_matches_pointwise_and_handles_padding() {
        let pde = Acoustic;
        let stride = 8;
        let len = 6;
        let m = pde.num_quantities();
        let mut q = vec![0.0; m * stride];
        for i in 0..len {
            q[P * stride + i] = 0.3 * i as f64 - 1.0;
            q[U * stride + i] = 0.1 * i as f64;
            q[(U + 1) * stride + i] = -0.2;
            q[(U + 2) * stride + i] = 0.05 * i as f64;
            q[VARS * stride + i] = 1.0 + 0.1 * i as f64;
            q[(VARS + 1) * stride + i] = 4.0;
        }
        for d in 0..3 {
            let mut fv = vec![f64::NAN; m * stride];
            pde.flux_vect(d, &q, &mut fv, len, stride);
            for i in 0..len {
                let qi: Vec<f64> = (0..m).map(|s| q[s * stride + i]).collect();
                let mut fi = vec![0.0; m];
                pde.flux(d, &qi, &mut fi);
                for s in 0..m {
                    assert!(
                        (fv[s * stride + i] - fi[s]).abs() < 1e-14,
                        "d={d} s={s} i={i}"
                    );
                }
            }
            // Padding lanes must be finite zeros despite rho = 0 there.
            for s in 0..m {
                for i in len..stride {
                    assert_eq!(fv[s * stride + i], 0.0, "padding s={s} i={i}");
                }
            }
        }
    }

    #[test]
    fn plane_wave_satisfies_pde_residual() {
        // Finite-difference check: p_t + K ∇·u ≈ 0 and u_t + ∇p/ρ ≈ 0.
        let w = AcousticPlaneWave {
            direction: [0.6, 0.8, 0.0],
            amplitude: 1.0,
            wavenumber: 1.0,
            rho: 1.3,
            bulk: 2.6,
        };
        let h = 1e-6;
        let x = [0.21, 0.53, 0.7];
        let t = 0.13;
        let eval = |x: [f64; 3], t: f64| {
            let mut q = [0.0; 4];
            w.evaluate(x, t, &mut q);
            q
        };
        let qt: Vec<f64> = (0..4)
            .map(|s| (eval(x, t + h)[s] - eval(x, t - h)[s]) / (2.0 * h))
            .collect();
        let grad = |d: usize| -> Vec<f64> {
            let mut xp = x;
            xp[d] += h;
            let mut xm = x;
            xm[d] -= h;
            (0..4)
                .map(|s| (eval(xp, t)[s] - eval(xm, t)[s]) / (2.0 * h))
                .collect()
        };
        let gx = grad(0);
        let gy = grad(1);
        let gz = grad(2);
        let div_u = gx[U] + gy[U + 1] + gz[U + 2];
        assert!((qt[P] + w.bulk * div_u).abs() < 1e-4, "pressure residual");
        assert!((qt[U] + gx[P] / w.rho).abs() < 1e-4, "ux residual");
        assert!((qt[U + 1] + gy[P] / w.rho).abs() < 1e-4, "uy residual");
        assert!((qt[U + 2] + gz[P] / w.rho).abs() < 1e-4, "uz residual");
    }
}
