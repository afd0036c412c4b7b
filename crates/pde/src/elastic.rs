//! Linear elastodynamics in first-order velocity–stress form on (possibly)
//! curvilinear meshes — the paper's benchmark workload (Sec. VI).
//!
//! Evolved quantities (9): particle velocity `v = (vx, vy, vz)` and the
//! symmetric stress tensor `(σxx, σyy, σzz, σxy, σxz, σyz)`. Parameters
//! (12): the material triple `(ρ, cp, cs)` and the nine entries of the
//! curvilinear metric `J` stored at each node — `m = 21` stored quantities,
//! matching the paper's setup exactly.
//!
//! The flux in logical direction `d` is the metric-weighted combination of
//! the Cartesian fluxes, `F_d = Σ_j J[d][j] F̂_j`; on a Cartesian mesh
//! (`J = I`) this is the textbook elastic wave equation, which the
//! plane-wave convergence tests verify.

use crate::lanes::{recip, run_line, LineFn, Rows};
use crate::traits::{ExactSolution, LinearPde};
use aderdg_tensor::simd::{Isa, SimdF64};

/// Indices of the velocity components.
pub const VX: usize = 0;
/// y-velocity.
pub const VY: usize = 1;
/// z-velocity.
pub const VZ: usize = 2;
/// Normal stresses.
pub const SXX: usize = 3;
/// σyy.
pub const SYY: usize = 4;
/// σzz.
pub const SZZ: usize = 5;
/// Shear stresses.
pub const SXY: usize = 6;
/// σxz.
pub const SXZ: usize = 7;
/// σyz.
pub const SYZ: usize = 8;
/// Number of evolved quantities.
pub const VARS: usize = 9;
/// Parameters: ρ, cp, cs + 9 metric entries.
pub const PARAMS: usize = 12;
/// Offset of the density parameter.
pub const P_RHO: usize = VARS;
/// Offset of the P-wave speed parameter.
pub const P_CP: usize = VARS + 1;
/// Offset of the S-wave speed parameter.
pub const P_CS: usize = VARS + 2;
/// Offset of the 3×3 metric block (row-major).
pub const P_JAC: usize = VARS + 3;

/// Homogeneous isotropic material description.
///
/// ```
/// use aderdg_pde::Material;
///
/// let granite = Material { rho: 2.7, cp: 6.0, cs: 3.0 };
/// assert!((granite.mu() - 2.7 * 9.0).abs() < 1e-12);     // μ = ρ cs²
/// assert!((granite.lambda() - 2.7 * 18.0).abs() < 1e-12); // λ = ρ (cp² − 2 cs²)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Density.
    pub rho: f64,
    /// P-wave speed.
    pub cp: f64,
    /// S-wave speed.
    pub cs: f64,
}

impl Material {
    /// Lamé parameter `μ = ρ cs²`.
    pub fn mu(&self) -> f64 {
        self.rho * self.cs * self.cs
    }

    /// Lamé parameter `λ = ρ (cp² − 2 cs²)`.
    pub fn lambda(&self) -> f64 {
        self.rho * (self.cp * self.cp - 2.0 * self.cs * self.cs)
    }
}

/// The elastic wave equation (LOH1-style setups).
///
/// ```
/// use aderdg_pde::{elastic, Elastic, LinearPde, Material};
///
/// let pde = Elastic;
/// assert_eq!(pde.num_quantities(), 21); // 9 evolved + 3 material + 9 metric
/// let mat = Material { rho: 1.0, cp: 1.0, cs: 0.5 };
/// let mut q = vec![0.0; 21];
/// q[elastic::SXX] = 2.0;
/// Elastic::set_params(&mut q, mat, &Elastic::IDENTITY_JAC);
/// let mut f = vec![0.0; 21];
/// pde.flux(0, &q, &mut f); // F_x[vx] = σxx/ρ on a Cartesian mesh
/// assert_eq!(f[elastic::VX], 2.0);
/// assert_eq!(pde.max_wavespeed(0, &q), 1.0); // cp · |J row|
/// ```
#[derive(Debug, Clone, Default)]
pub struct Elastic;

impl Elastic {
    /// Writes the 12 parameter slots of a state vector: material plus the
    /// metric rows (identity for Cartesian meshes).
    pub fn set_params(q: &mut [f64], mat: Material, jac: &[f64; 9]) {
        q[P_RHO] = mat.rho;
        q[P_CP] = mat.cp;
        q[P_CS] = mat.cs;
        q[P_JAC..P_JAC + 9].copy_from_slice(jac);
    }

    /// Identity metric (Cartesian mesh).
    pub const IDENTITY_JAC: [f64; 9] = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];

    /// Cartesian flux `F̂_j(Q)` into `f[0..VARS]` given Lamé parameters.
    #[inline]
    fn cartesian_flux(j: usize, q: &[f64], inv_rho: f64, lam: f64, mu: f64, f: &mut [f64; VARS]) {
        let lam2mu = lam + 2.0 * mu;
        match j {
            0 => {
                f[VX] = q[SXX] * inv_rho;
                f[VY] = q[SXY] * inv_rho;
                f[VZ] = q[SXZ] * inv_rho;
                f[SXX] = lam2mu * q[VX];
                f[SYY] = lam * q[VX];
                f[SZZ] = lam * q[VX];
                f[SXY] = mu * q[VY];
                f[SXZ] = mu * q[VZ];
                f[SYZ] = 0.0;
            }
            1 => {
                f[VX] = q[SXY] * inv_rho;
                f[VY] = q[SYY] * inv_rho;
                f[VZ] = q[SYZ] * inv_rho;
                f[SXX] = lam * q[VY];
                f[SYY] = lam2mu * q[VY];
                f[SZZ] = lam * q[VY];
                f[SXY] = mu * q[VX];
                f[SXZ] = 0.0;
                f[SYZ] = mu * q[VZ];
            }
            _ => {
                f[VX] = q[SXZ] * inv_rho;
                f[VY] = q[SYZ] * inv_rho;
                f[VZ] = q[SZZ] * inv_rho;
                f[SXX] = lam * q[VZ];
                f[SYY] = lam * q[VZ];
                f[SZZ] = lam2mu * q[VZ];
                f[SXY] = 0.0;
                f[SXZ] = mu * q[VX];
                f[SYZ] = mu * q[VY];
            }
        }
    }
}

/// The vectorised flux in logical direction `d` (Fig. 8): per-lane
/// material and metric, every operand row loaded once, every result row
/// held in a register until its single store.
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
        let rho = q.get(P_RHO);
        let inv_rho = recip(rho, valid);
        let (cp, cs) = (q.get(P_CP), q.get(P_CS));
        let cs2 = cs.mul(cs);
        let mu = rho.mul(cs2);
        let lam = rho.mul(cp.mul(cp).sub(cs2.add(cs2)));
        // Metric row of direction `d` (`min` bounds the row index for the
        // optimizer; `d` is 0, 1 or 2 by the trait contract).
        let jac = P_JAC + 3 * self.d.min(2);
        let w = [q.get(jac), q.get(jac + 1), q.get(jac + 2)];

        // Velocity rows: (Σ_j w_j σ_aj) / ρ.
        let (sxx, syy, szz) = (q.get(SXX), q.get(SYY), q.get(SZZ));
        let (sxy, sxz, syz) = (q.get(SXY), q.get(SXZ), q.get(SYZ));
        let dot = |x: [S; 3]| w[0].mul(x[0]).fma(w[1], x[1]).fma(w[2], x[2]);

        // Stress rows from the metric-weighted velocities a_j = w_j v_j:
        // σ_aa gets λ Σ_j a_j + 2μ a_a, σ_ab gets μ (w_a v_b + w_b v_a).
        let v = [q.get(VX), q.get(VY), q.get(VZ)];
        let a = [w[0].mul(v[0]), w[1].mul(v[1]), w[2].mul(v[2])];
        let trace = lam.mul(a[0].add(a[1]).add(a[2]));
        let mu2 = mu.add(mu);
        let shear = |i: usize, j: usize| mu.mul(w[i].mul(v[j]).fma(w[j], v[i]));
        [
            dot([sxx, sxy, sxz]).mul(inv_rho),
            dot([sxy, syy, syz]).mul(inv_rho),
            dot([sxz, syz, szz]).mul(inv_rho),
            trace.fma(mu2, a[0]),
            trace.fma(mu2, a[1]),
            trace.fma(mu2, a[2]),
            shear(0, 1),
            shear(0, 2),
            shear(1, 2),
        ]
    }
}

impl LinearPde for Elastic {
    fn num_vars(&self) -> usize {
        VARS
    }

    fn num_params(&self) -> usize {
        PARAMS
    }

    fn flux(&self, d: usize, q: &[f64], f: &mut [f64]) {
        let rho = q[P_RHO];
        let inv_rho = 1.0 / rho;
        let mat = Material {
            rho,
            cp: q[P_CP],
            cs: q[P_CS],
        };
        let (lam, mu) = (mat.lambda(), mat.mu());
        f.fill(0.0);
        let mut fj = [0.0f64; VARS];
        for j in 0..3 {
            let w = q[P_JAC + 3 * d + j];
            if w == 0.0 {
                continue;
            }
            Elastic::cartesian_flux(j, q, inv_rho, lam, mu, &mut fj);
            for s in 0..VARS {
                f[s] += w * fj[s];
            }
        }
    }

    fn flux_lanes(&self, isa: Isa, d: usize, q: &[f64], f: &mut [f64], len: usize, stride: usize) {
        run_line(isa, &FluxLanes { d }, q, q, f, len, stride);
    }

    fn has_vectorized_user_functions(&self) -> bool {
        true
    }

    fn max_wavespeed(&self, d: usize, q: &[f64]) -> f64 {
        let g = &q[P_JAC + 3 * d..P_JAC + 3 * d + 3];
        let norm = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
        q[P_CP] * norm
    }

    /// Free-surface boundary: the traction components `σ·e_d` are negated
    /// in the ghost state (so the Riemann average enforces zero traction),
    /// velocities are copied — the standard mirror condition for LOH1.
    fn reflective_ghost(&self, d: usize, _outward: f64, q: &[f64], ghost: &mut [f64]) {
        ghost.copy_from_slice(q);
        let traction = match d {
            0 => [SXX, SXY, SXZ],
            1 => [SYY, SXY, SYZ],
            _ => [SZZ, SXZ, SYZ],
        };
        for s in traction {
            ghost[s] = -q[s];
        }
    }

    /// Per pointwise flux call in one direction: three Cartesian fluxes
    /// (≈ 16 mul/add each) combined with metric weights (9 × 2).
    fn flux_flops(&self) -> u64 {
        3 * 16 + 9 * 2 + 8
    }
}

/// Exact elastic plane wave in a homogeneous Cartesian medium.
///
/// P-wave: polarization = propagation direction, speed `cp`.
/// S-wave: polarization ⟂ direction, speed `cs`.
///
/// ```
/// use aderdg_pde::{ElasticPlaneWave, Material};
///
/// let mat = Material { rho: 1.0, cp: 2.0, cs: 1.0 };
/// let p_wave = ElasticPlaneWave {
///     direction: [1.0, 0.0, 0.0],
///     polarization: [1.0, 0.0, 0.0],
///     amplitude: 0.1,
///     wavenumber: 1.0,
///     material: mat,
/// };
/// assert!(p_wave.is_p_wave());
/// assert_eq!(p_wave.speed(), 2.0); // P-waves travel at cp
/// let s_wave = ElasticPlaneWave { polarization: [0.0, 1.0, 0.0], ..p_wave };
/// assert_eq!(s_wave.speed(), 1.0); // S-waves at cs
/// ```
#[derive(Debug, Clone)]
pub struct ElasticPlaneWave {
    /// Unit propagation direction `n`.
    pub direction: [f64; 3],
    /// Unit polarization `m` (set equal to `direction` for a P-wave).
    pub polarization: [f64; 3],
    /// Amplitude.
    pub amplitude: f64,
    /// Spatial frequency (integer for unit-cube periodicity).
    pub wavenumber: f64,
    /// Medium.
    pub material: Material,
}

impl ElasticPlaneWave {
    /// True if polarization ∥ direction (P-wave).
    pub fn is_p_wave(&self) -> bool {
        let n = self.direction;
        let m = self.polarization;
        let dot: f64 = n.iter().zip(&m).map(|(a, b)| a * b).sum();
        (dot.abs() - 1.0).abs() < 1e-12
    }

    /// Phase speed of this wave.
    pub fn speed(&self) -> f64 {
        if self.is_p_wave() {
            self.material.cp
        } else {
            self.material.cs
        }
    }
}

impl ExactSolution for ElasticPlaneWave {
    fn evaluate(&self, x: [f64; 3], t: f64, q: &mut [f64]) {
        let n = self.direction;
        let m = self.polarization;
        let c = self.speed();
        let (lam, mu) = (self.material.lambda(), self.material.mu());
        let phase = 2.0
            * std::f64::consts::PI
            * self.wavenumber
            * (n[0] * x[0] + n[1] * x[1] + n[2] * x[2] - c * t);
        let a = self.amplitude * phase.sin();
        q[VX] = m[0] * a;
        q[VY] = m[1] * a;
        q[VZ] = m[2] * a;
        let nm: f64 = n.iter().zip(&m).map(|(a, b)| a * b).sum();
        // σ_ij = -(λ δ_ij (n·m) + μ (n_i m_j + n_j m_i)) a / c.
        let sig = |i: usize, j: usize| -> f64 {
            let delta = if i == j { 1.0 } else { 0.0 };
            -(lam * delta * nm + mu * (n[i] * m[j] + n[j] * m[i])) * a / c
        };
        q[SXX] = sig(0, 0);
        q[SYY] = sig(1, 1);
        q[SZZ] = sig(2, 2);
        q[SXY] = sig(0, 1);
        q[SXZ] = sig(0, 2);
        q[SYZ] = sig(1, 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAT: Material = Material {
        rho: 2.7,
        cp: 6.0,
        cs: 3.343,
    };

    fn cart_state(v: [f64; 3], s: [f64; 6]) -> Vec<f64> {
        let mut q = vec![0.0; VARS + PARAMS];
        q[..3].copy_from_slice(&v);
        q[3..9].copy_from_slice(&s);
        Elastic::set_params(&mut q, MAT, &Elastic::IDENTITY_JAC);
        q
    }

    #[test]
    fn lame_parameters() {
        let m = Material {
            rho: 2.0,
            cp: 3.0,
            cs: 1.0,
        };
        assert!((m.mu() - 2.0).abs() < 1e-14);
        assert!((m.lambda() - 14.0).abs() < 1e-14);
    }

    #[test]
    fn cartesian_flux_x_structure() {
        let pde = Elastic;
        let q = cart_state([1.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        let mut f = vec![0.0; VARS + PARAMS];
        pde.flux(0, &q, &mut f);
        let (lam, mu) = (MAT.lambda(), MAT.mu());
        assert!((f[VX] - 10.0 / MAT.rho).abs() < 1e-12);
        assert!((f[VY] - 40.0 / MAT.rho).abs() < 1e-12);
        assert!((f[VZ] - 50.0 / MAT.rho).abs() < 1e-12);
        assert!((f[SXX] - (lam + 2.0 * mu)).abs() < 1e-12);
        assert!((f[SYY] - lam).abs() < 1e-12);
        assert!((f[SXY] - 2.0 * mu).abs() < 1e-12);
        assert!((f[SXZ] - 3.0 * mu).abs() < 1e-12);
        assert_eq!(f[SYZ], 0.0);
        // Parameter rows carry no flux.
        assert!(f[VARS..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn metric_combination_is_linear() {
        // With J row d = (0.3, 0.4, 0.5), the flux must equal the weighted
        // sum of the Cartesian fluxes.
        let pde = Elastic;
        let mut q = cart_state([0.2, -0.7, 1.1], [1.0, -2.0, 0.5, 0.3, -0.9, 2.0]);
        let mut fx = vec![0.0; VARS + PARAMS];
        let mut fy = vec![0.0; VARS + PARAMS];
        let mut fz = vec![0.0; VARS + PARAMS];
        pde.flux(0, &q, &mut fx);
        pde.flux(1, &q, &mut fy);
        pde.flux(2, &q, &mut fz);

        let jac = [0.3, 0.4, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        Elastic::set_params(&mut q, MAT, &jac);
        let mut f = vec![0.0; VARS + PARAMS];
        pde.flux(0, &q, &mut f);
        for s in 0..VARS {
            let want = 0.3 * fx[s] + 0.4 * fy[s] + 0.5 * fz[s];
            assert!((f[s] - want).abs() < 1e-12, "s={s}");
        }
    }

    #[test]
    fn vectorized_matches_pointwise_with_varying_material() {
        let pde = Elastic;
        let stride = 8;
        let len = 7;
        let m = pde.num_quantities();
        let mut q = vec![0.0; m * stride];
        for i in 0..len {
            for s in 0..VARS {
                q[s * stride + i] = ((s * 7 + i) as f64 * 0.37).sin();
            }
            q[P_RHO * stride + i] = 2.0 + 0.2 * i as f64;
            q[P_CP * stride + i] = 5.0 + 0.1 * i as f64;
            q[P_CS * stride + i] = 3.0 - 0.1 * i as f64;
            // A smoothly varying metric.
            for r in 0..9 {
                let base = if r % 4 == 0 { 1.0 } else { 0.0 };
                q[(P_JAC + r) * stride + i] = base + 0.05 * ((r + i) as f64).cos();
            }
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
                        (fv[s * stride + i] - fi[s]).abs() < 1e-12,
                        "d={d} s={s} i={i}: {} vs {}",
                        fv[s * stride + i],
                        fi[s]
                    );
                }
            }
            for s in 0..m {
                for i in len..stride {
                    assert_eq!(fv[s * stride + i], 0.0, "padding d={d} s={s} i={i}");
                }
            }
        }
    }

    #[test]
    fn p_wave_satisfies_pde_residual() {
        residual_check(ElasticPlaneWave {
            direction: [0.6, 0.0, 0.8],
            polarization: [0.6, 0.0, 0.8],
            amplitude: 1.0,
            wavenumber: 1.0,
            material: MAT,
        });
    }

    #[test]
    fn s_wave_satisfies_pde_residual() {
        residual_check(ElasticPlaneWave {
            direction: [0.6, 0.0, 0.8],
            polarization: [-0.8, 0.0, 0.6],
            amplitude: 0.7,
            wavenumber: 2.0,
            material: MAT,
        });
    }

    fn residual_check(w: ElasticPlaneWave) {
        // Verify Q_t = Σ_d ∂_d F_d(Q) by central differences on a Cartesian
        // identity metric.
        let pde = Elastic;
        let h = 1e-6;
        let x = [0.3, 0.45, 0.62];
        let t = 0.11;
        let m = VARS + PARAMS;
        let eval = |x: [f64; 3], t: f64| -> Vec<f64> {
            let mut q = vec![0.0; m];
            w.evaluate(x, t, &mut q);
            Elastic::set_params(&mut q, w.material, &Elastic::IDENTITY_JAC);
            q
        };
        let qt: Vec<f64> = {
            let qp = eval(x, t + h);
            let qm = eval(x, t - h);
            (0..VARS).map(|s| (qp[s] - qm[s]) / (2.0 * h)).collect()
        };
        let mut div_f = [0.0; VARS];
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
                div_f[s] += (fp[s] - fm[s]) / (2.0 * h);
            }
        }
        for s in 0..VARS {
            assert!(
                (qt[s] - div_f[s]).abs() < 2e-3 * (1.0 + qt[s].abs()),
                "s={s}: {} vs {}",
                qt[s],
                div_f[s]
            );
        }
    }

    #[test]
    fn wavespeed_scales_with_metric() {
        let pde = Elastic;
        let mut q = cart_state([0.0; 3], [0.0; 6]);
        assert!((pde.max_wavespeed(0, &q) - MAT.cp).abs() < 1e-13);
        let jac = [2.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        Elastic::set_params(&mut q, MAT, &jac);
        assert!((pde.max_wavespeed(0, &q) - 2.0 * MAT.cp).abs() < 1e-13);
    }
}
