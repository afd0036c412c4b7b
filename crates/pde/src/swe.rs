//! Linearized shallow-water equations over variable bathymetry — a system
//! that genuinely *mixes* the conservative flux and the non-conservative
//! product, exercising the `computeF` and `computeNcp` kernel paths
//! simultaneously (the paper's eq. 1 has both terms).
//!
//! `η_t = −∇·(H(x) u)` (flux, parameter-dependent),
//! `u_t = −g ∇η` (non-conservative product).
//!
//! Four evolved quantities (η, u, v, w) and two parameters (depth `H`,
//! gravity `g`).

use crate::lanes::{run_line, LineFn, Rows};
use crate::traits::{ExactSolution, LinearPde};
use aderdg_tensor::simd::{Isa, SimdF64};

/// Surface elevation index.
pub const ETA: usize = 0;
/// First velocity component.
pub const U: usize = 1;
/// Number of evolved quantities.
pub const VARS: usize = 4;
/// Parameters: still-water depth `H`, gravity `g`.
pub const PARAMS: usize = 2;

/// The linearized shallow-water system.
///
/// ```
/// use aderdg_pde::{swe, LinearPde, LinearizedSwe};
///
/// let pde = LinearizedSwe;
/// assert!(pde.has_ncp()); // mixes flux (η) and ncp (u) terms
/// let mut q = vec![0.0; pde.num_quantities()];
/// q[swe::U] = 0.5;
/// LinearizedSwe::set_params(&mut q, 4.0, 9.0); // H = 4, g = 9 → c = 6
/// assert_eq!(pde.max_wavespeed(0, &q), 6.0);
/// let mut f = vec![0.0; pde.num_quantities()];
/// pde.flux(0, &q, &mut f); // η_t = ∂_x(−H u)
/// assert_eq!(f[swe::ETA], -2.0);
/// let grad = [3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
/// let mut out = vec![0.0; pde.num_quantities()];
/// pde.ncp(0, &q, &grad, &mut out); // u_t = −g ∂_x η
/// assert_eq!(out[swe::U], -27.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearizedSwe;

impl LinearizedSwe {
    /// Fills the parameter slots.
    pub fn set_params(q: &mut [f64], depth: f64, gravity: f64) {
        q[VARS] = depth;
        q[VARS + 1] = gravity;
    }

    /// Gravity-wave speed `sqrt(gH)`.
    pub fn wave_speed(q: &[f64]) -> f64 {
        (q[VARS] * q[VARS + 1]).sqrt()
    }
}

/// The vectorised flux (Fig. 8): `F_d[η] = −H u_d`.
struct FluxLanes {
    d: usize,
}

impl LineFn<{ VARS + PARAMS }, VARS> for FluxLanes {
    #[inline(always)]
    fn eval<S: SimdF64>(
        &self,
        q: &Rows<'_, S, { VARS + PARAMS }>,
        _grad: &Rows<'_, S, { VARS + PARAMS }>,
        _valid: usize,
    ) -> [S; VARS] {
        let mut f = [S::zero(); VARS];
        f[ETA] = q.get(VARS).mul(q.get(U + self.d.min(2))).neg();
        f
    }
}

/// The vectorised non-conservative product: `u_d` gets `−g ∂_d η`.
struct NcpLanes {
    d: usize,
}

impl LineFn<{ VARS + PARAMS }, VARS> for NcpLanes {
    #[inline(always)]
    fn eval<S: SimdF64>(
        &self,
        q: &Rows<'_, S, { VARS + PARAMS }>,
        grad: &Rows<'_, S, { VARS + PARAMS }>,
        _valid: usize,
    ) -> [S; VARS] {
        let mut out = [S::zero(); VARS];
        out[U + self.d.min(2)] = q.get(VARS + 1).mul(grad.get(ETA)).neg();
        out
    }
}

impl LinearPde for LinearizedSwe {
    fn num_vars(&self) -> usize {
        VARS
    }

    fn num_params(&self) -> usize {
        PARAMS
    }

    fn flux(&self, d: usize, q: &[f64], f: &mut [f64]) {
        f.fill(0.0);
        // η_t = ∂_d F_d[η] with F_d[η] = −H u_d.
        f[ETA] = -q[VARS] * q[U + d];
    }

    fn has_ncp(&self) -> bool {
        true
    }

    fn ncp(&self, d: usize, q: &[f64], grad: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        // u_t = −g ∂_d η on the d-th velocity component.
        out[U + d] = -q[VARS + 1] * grad[ETA];
    }

    fn flux_lanes(&self, isa: Isa, d: usize, q: &[f64], f: &mut [f64], len: usize, stride: usize) {
        run_line(isa, &FluxLanes { d }, q, q, f, len, stride);
    }

    fn ncp_lanes(
        &self,
        isa: Isa,
        d: usize,
        q: &[f64],
        grad: &[f64],
        out: &mut [f64],
        len: usize,
        stride: usize,
    ) {
        run_line(isa, &NcpLanes { d }, q, grad, out, len, stride);
    }

    fn has_vectorized_user_functions(&self) -> bool {
        true
    }

    fn max_wavespeed(&self, _d: usize, q: &[f64]) -> f64 {
        Self::wave_speed(q)
    }

    /// Wall: normal velocity flips.
    fn reflective_ghost(&self, d: usize, _outward: f64, q: &[f64], ghost: &mut [f64]) {
        ghost.copy_from_slice(q);
        ghost[U + d] = -q[U + d];
    }

    fn flux_flops(&self) -> u64 {
        2
    }

    fn ncp_flops(&self) -> u64 {
        2
    }
}

/// Exact gravity-wave plane wave over a *flat* bottom:
/// `η = A sin(2πk(n·x − ct))`, `u = n (c/H) η`, `c = sqrt(gH)`.
///
/// ```
/// use aderdg_pde::{swe, ExactSolution, SweGravityWave};
///
/// let wave = SweGravityWave {
///     direction: [1.0, 0.0, 0.0],
///     amplitude: 0.1,
///     wavenumber: 1.0,
///     depth: 4.0,
///     gravity: 9.0,
/// };
/// assert_eq!(wave.speed(), 6.0); // c = √(gH)
/// let mut q = [0.0; 4];
/// wave.evaluate([0.25, 0.0, 0.0], 0.0, &mut q);
/// assert!((q[swe::ETA] - 0.1).abs() < 1e-12);
/// assert!((q[swe::U] - 0.1 * 6.0 / 4.0).abs() < 1e-12); // u = (c/H) η
/// ```
#[derive(Debug, Clone)]
pub struct SweGravityWave {
    /// Unit propagation direction.
    pub direction: [f64; 3],
    /// Elevation amplitude.
    pub amplitude: f64,
    /// Spatial frequency.
    pub wavenumber: f64,
    /// Still-water depth.
    pub depth: f64,
    /// Gravity.
    pub gravity: f64,
}

impl SweGravityWave {
    /// Phase speed.
    pub fn speed(&self) -> f64 {
        (self.gravity * self.depth).sqrt()
    }
}

impl ExactSolution for SweGravityWave {
    fn evaluate(&self, x: [f64; 3], t: f64, q: &mut [f64]) {
        let n = self.direction;
        let c = self.speed();
        let phase = 2.0
            * std::f64::consts::PI
            * self.wavenumber
            * (n[0] * x[0] + n[1] * x[1] + n[2] * x[2] - c * t);
        let eta = self.amplitude * phase.sin();
        q[ETA] = eta;
        let s = c / self.depth;
        q[U] = n[0] * s * eta;
        q[U + 1] = n[1] * s * eta;
        q[U + 2] = n[2] * s * eta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flux_and_ncp_structure() {
        let pde = LinearizedSwe;
        let mut q = vec![0.0; VARS + PARAMS];
        q[ETA] = 2.0;
        q[U] = 0.5;
        q[U + 1] = -1.0;
        LinearizedSwe::set_params(&mut q, 4.0, 9.81);
        let mut f = vec![0.0; VARS + PARAMS];
        pde.flux(0, &q, &mut f);
        assert_eq!(f[ETA], -4.0 * 0.5);
        assert_eq!(f[U], 0.0);
        pde.flux(1, &q, &mut f);
        assert_eq!(f[ETA], 4.0);

        let grad = [3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut out = vec![0.0; VARS + PARAMS];
        pde.ncp(2, &q, &grad, &mut out);
        assert_eq!(out[U + 2], -9.81 * 3.0);
        assert_eq!(out[ETA], 0.0);
    }

    #[test]
    fn wave_speed() {
        let pde = LinearizedSwe;
        let mut q = vec![0.0; VARS + PARAMS];
        LinearizedSwe::set_params(&mut q, 2.0, 8.0);
        assert!((pde.max_wavespeed(1, &q) - 4.0).abs() < 1e-14);
    }

    #[test]
    fn vectorized_paths_match_pointwise() {
        let pde = LinearizedSwe;
        let stride = 8;
        let len = 6;
        let m = pde.num_quantities();
        let mut q = vec![0.0; m * stride];
        let mut grad = vec![0.0; m * stride];
        for i in 0..len {
            for s in 0..VARS {
                q[s * stride + i] = (s * 5 + i) as f64 * 0.1 - 1.0;
                grad[s * stride + i] = ((s + 2 * i) as f64).cos();
            }
            q[VARS * stride + i] = 1.0 + 0.2 * i as f64;
            q[(VARS + 1) * stride + i] = 9.81;
        }
        for d in 0..3 {
            let mut fv = vec![f64::NAN; m * stride];
            pde.flux_vect(d, &q, &mut fv, len, stride);
            let mut ov = vec![f64::NAN; m * stride];
            pde.ncp_vect(d, &q, &grad, &mut ov, len, stride);
            for i in 0..len {
                let qi: Vec<f64> = (0..m).map(|s| q[s * stride + i]).collect();
                let gi: Vec<f64> = (0..m).map(|s| grad[s * stride + i]).collect();
                let mut fi = vec![0.0; m];
                pde.flux(d, &qi, &mut fi);
                let mut oi = vec![0.0; m];
                pde.ncp(d, &qi, &gi, &mut oi);
                for s in 0..m {
                    assert!((fv[s * stride + i] - fi[s]).abs() < 1e-14);
                    assert!((ov[s * stride + i] - oi[s]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn gravity_wave_satisfies_pde() {
        let pde = LinearizedSwe;
        let w = SweGravityWave {
            direction: [0.8, 0.6, 0.0],
            amplitude: 0.1,
            wavenumber: 1.0,
            depth: 2.0,
            gravity: 9.81,
        };
        let m = VARS + PARAMS;
        let eval = |x: [f64; 3], t: f64| -> Vec<f64> {
            let mut q = vec![0.0; m];
            w.evaluate(x, t, &mut q);
            LinearizedSwe::set_params(&mut q, w.depth, w.gravity);
            q
        };
        let h = 1e-6;
        let x = [0.3, 0.6, 0.1];
        let t = 0.07;
        let qp = eval(x, t + h);
        let qm = eval(x, t - h);
        // RHS: Σ_d ∂_d F_d + Σ_d B_d ∂_d.
        let mut rhs = [0.0; VARS];
        let q0 = eval(x, t);
        for d in 0..3 {
            let mut xp = x;
            xp[d] += h;
            let mut xm = x;
            xm[d] -= h;
            let (qd_p, qd_m) = (eval(xp, t), eval(xm, t));
            let mut fp = vec![0.0; m];
            let mut fm = vec![0.0; m];
            pde.flux(d, &qd_p, &mut fp);
            pde.flux(d, &qd_m, &mut fm);
            let grad: Vec<f64> = (0..m).map(|s| (qd_p[s] - qd_m[s]) / (2.0 * h)).collect();
            let mut ncp = vec![0.0; m];
            pde.ncp(d, &q0, &grad, &mut ncp);
            for s in 0..VARS {
                rhs[s] += (fp[s] - fm[s]) / (2.0 * h) + ncp[s];
            }
        }
        for s in 0..VARS {
            let qt = (qp[s] - qm[s]) / (2.0 * h);
            assert!(
                (qt - rhs[s]).abs() < 2e-3 * (1.0 + qt.abs()),
                "s={s}: {qt} vs {}",
                rhs[s]
            );
        }
    }
}
