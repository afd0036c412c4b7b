//! Maxwell's equations (source-free, linear, isotropic media) in
//! first-order form — a second large linear hyperbolic system exercising
//! the engine beyond seismics: `ε E_t = ∇×H`, `μ H_t = −∇×E`.
//!
//! Six evolved quantities (E, H) and two material parameters (ε, μ).

use crate::lanes::{recip, run_line, LineFn, Rows};
use crate::traits::{ExactSolution, LinearPde};
use aderdg_tensor::simd::{Isa, SimdF64};

/// Index of Ex.
pub const EX: usize = 0;
/// Index of Ey.
pub const EY: usize = 1;
/// Index of Ez.
pub const EZ: usize = 2;
/// Index of Hx.
pub const HX: usize = 3;
/// Index of Hy.
pub const HY: usize = 4;
/// Index of Hz.
pub const HZ: usize = 5;
/// Number of evolved quantities.
pub const VARS: usize = 6;
/// Parameters: permittivity ε, permeability μ.
pub const PARAMS: usize = 2;

/// The Maxwell system.
///
/// ```
/// use aderdg_pde::{maxwell, LinearPde, Maxwell};
///
/// let pde = Maxwell;
/// let mut q = vec![0.0; pde.num_quantities()];
/// q[maxwell::HZ] = 3.0;
/// Maxwell::set_params(&mut q, 4.0, 1.0); // ε = 4, μ = 1 → c = 1/2
/// assert_eq!(pde.max_wavespeed(0, &q), 0.5);
/// let mut f = vec![0.0; pde.num_quantities()];
/// pde.flux(0, &q, &mut f); // E_t = (∇×H)/ε: the Ey row reads −Hz/ε
/// assert_eq!(f[maxwell::EY], -0.75);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Maxwell;

impl Maxwell {
    /// Fills the parameter slots.
    pub fn set_params(q: &mut [f64], epsilon: f64, mu: f64) {
        q[VARS] = epsilon;
        q[VARS + 1] = mu;
    }

    /// Light speed `1/sqrt(εμ)` of a state's medium.
    pub fn light_speed(q: &[f64]) -> f64 {
        1.0 / (q[VARS] * q[VARS + 1]).sqrt()
    }
}

/// The vectorised flux (Fig. 8): the curl rows of direction `d`, scaled
/// by the per-lane `1/ε` (electric rows) and `1/μ` (magnetic rows).
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
        let ie = recip(q.get(VARS), valid);
        let im = recip(q.get(VARS + 1), valid);
        // (positive electric row ← H row, negative electric row ← H row),
        // and the same pair with E and H swapped and the signs flipped.
        let (a, b) = match self.d {
            0 => (1, 2),
            1 => (2, 0),
            _ => (0, 1),
        };
        let mut f = [S::zero(); VARS];
        f[EX + a] = q.get(HX + b).mul(ie).neg();
        f[EX + b] = q.get(HX + a).mul(ie);
        f[HX + a] = q.get(EX + b).mul(im);
        f[HX + b] = q.get(EX + a).mul(im).neg();
        f
    }
}

impl LinearPde for Maxwell {
    fn num_vars(&self) -> usize {
        VARS
    }

    fn num_params(&self) -> usize {
        PARAMS
    }

    fn flux(&self, d: usize, q: &[f64], f: &mut [f64]) {
        let ie = 1.0 / q[VARS];
        let im = 1.0 / q[VARS + 1];
        f.fill(0.0);
        // Q_t = ∇·F with E_t = (∇×H)/ε, H_t = −(∇×E)/μ.
        match d {
            0 => {
                f[EY] = -q[HZ] * ie;
                f[EZ] = q[HY] * ie;
                f[HY] = q[EZ] * im;
                f[HZ] = -q[EY] * im;
            }
            1 => {
                f[EX] = q[HZ] * ie;
                f[EZ] = -q[HX] * ie;
                f[HX] = -q[EZ] * im;
                f[HZ] = q[EX] * im;
            }
            _ => {
                f[EX] = -q[HY] * ie;
                f[EY] = q[HX] * ie;
                f[HX] = q[EY] * im;
                f[HY] = -q[EX] * im;
            }
        }
    }

    fn flux_lanes(&self, isa: Isa, d: usize, q: &[f64], f: &mut [f64], len: usize, stride: usize) {
        run_line(isa, &FluxLanes { d }, q, q, f, len, stride);
    }

    fn has_vectorized_user_functions(&self) -> bool {
        true
    }

    fn max_wavespeed(&self, _d: usize, q: &[f64]) -> f64 {
        Self::light_speed(q)
    }

    /// Perfect-electric-conductor wall: tangential E flips.
    fn reflective_ghost(&self, d: usize, _outward: f64, q: &[f64], ghost: &mut [f64]) {
        ghost.copy_from_slice(q);
        for e in [EX, EY, EZ] {
            if e != d {
                ghost[e] = -q[e];
            }
        }
    }

    fn flux_flops(&self) -> u64 {
        4 * 2 + 2
    }
}

/// Exact transverse electromagnetic plane wave in a homogeneous medium:
/// `E = p A sin(2πk(n·x − ct))`, `H = (n×p) A √(ε/μ) sin(·)`, `p ⟂ n`.
///
/// ```
/// use aderdg_pde::{maxwell, ExactSolution, MaxwellPlaneWave};
///
/// let wave = MaxwellPlaneWave {
///     direction: [0.0, 0.0, 1.0],
///     polarization: [1.0, 0.0, 0.0],
///     amplitude: 1.0,
///     wavenumber: 1.0,
///     epsilon: 1.0,
///     mu: 1.0,
/// };
/// let mut q = [0.0; 6];
/// wave.evaluate([0.0, 0.0, 0.25], 0.0, &mut q); // crest of sin(2πz)
/// assert!((q[maxwell::EX] - 1.0).abs() < 1e-12);
/// assert!((q[maxwell::HY] - 1.0).abs() < 1e-12); // H = n × p at unit impedance
/// ```
#[derive(Debug, Clone)]
pub struct MaxwellPlaneWave {
    /// Unit propagation direction.
    pub direction: [f64; 3],
    /// Unit polarization of E (must be ⟂ direction).
    pub polarization: [f64; 3],
    /// Amplitude.
    pub amplitude: f64,
    /// Spatial frequency.
    pub wavenumber: f64,
    /// Permittivity.
    pub epsilon: f64,
    /// Permeability.
    pub mu: f64,
}

impl ExactSolution for MaxwellPlaneWave {
    fn evaluate(&self, x: [f64; 3], t: f64, q: &mut [f64]) {
        let n = self.direction;
        let p = self.polarization;
        let c = 1.0 / (self.epsilon * self.mu).sqrt();
        let phase = 2.0
            * std::f64::consts::PI
            * self.wavenumber
            * (n[0] * x[0] + n[1] * x[1] + n[2] * x[2] - c * t);
        let a = self.amplitude * phase.sin();
        let z = (self.epsilon / self.mu).sqrt();
        let h = [
            (n[1] * p[2] - n[2] * p[1]) * z,
            (n[2] * p[0] - n[0] * p[2]) * z,
            (n[0] * p[1] - n[1] * p[0]) * z,
        ];
        q[EX] = p[0] * a;
        q[EY] = p[1] * a;
        q[EZ] = p[2] * a;
        q[HX] = h[0] * a;
        q[HY] = h[1] * a;
        q[HZ] = h[2] * a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(e: [f64; 3], h: [f64; 3], eps: f64, mu: f64) -> Vec<f64> {
        let mut q = vec![0.0; VARS + PARAMS];
        q[..3].copy_from_slice(&e);
        q[3..6].copy_from_slice(&h);
        Maxwell::set_params(&mut q, eps, mu);
        q
    }

    #[test]
    fn flux_is_curl_structured() {
        let pde = Maxwell;
        let q = state([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], 2.0, 0.5);
        let mut f = vec![0.0; VARS + PARAMS];
        pde.flux(0, &q, &mut f);
        assert_eq!(f[EX], 0.0);
        assert_eq!(f[EY], -6.0 / 2.0);
        assert_eq!(f[EZ], 5.0 / 2.0);
        assert_eq!(f[HX], 0.0);
        assert_eq!(f[HY], 3.0 / 0.5);
        assert_eq!(f[HZ], -2.0 / 0.5);
    }

    #[test]
    fn vectorized_matches_pointwise() {
        let pde = Maxwell;
        let stride = 8;
        let len = 5;
        let m = pde.num_quantities();
        let mut q = vec![0.0; m * stride];
        for i in 0..len {
            for s in 0..VARS {
                q[s * stride + i] = (s as f64 + 1.0) * (i as f64 - 2.0) * 0.1;
            }
            q[VARS * stride + i] = 1.0 + 0.1 * i as f64;
            q[(VARS + 1) * stride + i] = 2.0 - 0.1 * i as f64;
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
            for s in 0..m {
                for i in len..stride {
                    assert_eq!(fv[s * stride + i], 0.0);
                }
            }
        }
    }

    #[test]
    fn plane_wave_satisfies_maxwell() {
        // FD residual of Q_t = Σ_d ∂_d F_d(Q).
        let pde = Maxwell;
        let w = MaxwellPlaneWave {
            direction: [0.6, 0.8, 0.0],
            polarization: [0.0, 0.0, 1.0],
            amplitude: 1.0,
            wavenumber: 1.0,
            epsilon: 1.5,
            mu: 0.8,
        };
        let m = VARS + PARAMS;
        let eval = |x: [f64; 3], t: f64| -> Vec<f64> {
            let mut q = vec![0.0; m];
            w.evaluate(x, t, &mut q);
            Maxwell::set_params(&mut q, w.epsilon, w.mu);
            q
        };
        let h = 1e-6;
        let x = [0.2, 0.7, 0.4];
        let t = 0.3;
        let qp = eval(x, t + h);
        let qm = eval(x, t - h);
        let mut div = [0.0; VARS];
        for d in 0..3 {
            let mut xp = x;
            xp[d] += h;
            let mut xm = x;
            xm[d] -= h;
            let mut fp = vec![0.0; m];
            let mut fm = vec![0.0; m];
            pde.flux(d, &eval(xp, t), &mut fp);
            pde.flux(d, &eval(xm, t), &mut fm);
            for s in 0..VARS {
                div[s] += (fp[s] - fm[s]) / (2.0 * h);
            }
        }
        for s in 0..VARS {
            let qt = (qp[s] - qm[s]) / (2.0 * h);
            assert!(
                (qt - div[s]).abs() < 2e-3 * (1.0 + qt.abs()),
                "s={s}: {qt} vs {}",
                div[s]
            );
        }
    }

    #[test]
    fn light_speed_and_pec_ghost() {
        let pde = Maxwell;
        let q = state([1.0, 2.0, 3.0], [0.0; 3], 4.0, 1.0);
        assert!((pde.max_wavespeed(0, &q) - 0.5).abs() < 1e-14);
        let mut ghost = vec![0.0; VARS + PARAMS];
        pde.reflective_ghost(0, 1.0, &q, &mut ghost);
        assert_eq!(ghost[EX], 1.0); // normal E kept
        assert_eq!(ghost[EY], -2.0);
        assert_eq!(ghost[EZ], -3.0);
    }
}
