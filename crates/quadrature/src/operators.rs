//! Precomputed per-order operator sets.
//!
//! The paper's Kernel Generator hard-codes all operator matrices (derivative
//! operator, quadrature weights and their inverses, face-evaluation vectors,
//! transposed/padded combinations) into the generated kernels (Sec. III-C).
//! [`Basis1d`] plays that role here: it is computed once per node count
//! and shared by every kernel plan.

use crate::lagrange::{barycentric_weights, basis_at, basis_deriv_at, diff_matrix};
use crate::legendre::nodes_weights_01;

/// All 1-D operators of the nodal DG basis on `n` Gauss-Legendre nodes.
///
/// Matrices are dense row-major `n × n`; everything lives on the reference
/// interval `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Basis1d {
    /// Number of nodes (= order `N` of the scheme).
    pub n: usize,
    /// Interpolation nodes on `[0, 1]`.
    pub nodes: Vec<f64>,
    /// Quadrature weights (diagonal of the 1-D mass matrix).
    pub weights: Vec<f64>,
    /// Reciprocal quadrature weights (the paper precomputes these to avoid
    /// divisions in the corrector).
    pub inv_weights: Vec<f64>,
    /// Barycentric interpolation weights.
    pub bary: Vec<f64>,
    /// Nodal differentiation matrix `D[k][l] = φ_l'(x_k)`.
    pub diff: Vec<f64>,
    /// Basis values at the left face, `φ_k(0)`.
    pub phi_left: Vec<f64>,
    /// Basis values at the right face, `φ_k(1)`.
    pub phi_right: Vec<f64>,
}

impl Basis1d {
    /// Builds the operator set with `n` nodes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "basis needs at least one node");
        let (nodes, weights) = nodes_weights_01(n);
        let bary = barycentric_weights(&nodes);
        let diff = diff_matrix(&nodes);
        let phi_left = basis_at(&nodes, &bary, 0.0);
        let phi_right = basis_at(&nodes, &bary, 1.0);
        let inv_weights = weights.iter().map(|&w| 1.0 / w).collect();
        Self {
            n,
            nodes,
            weights,
            inv_weights,
            bary,
            diff,
            phi_left,
            phi_right,
        }
    }

    /// Evaluates all basis functions at `x` ∈ `[0, 1]`.
    pub fn basis_at(&self, x: f64) -> Vec<f64> {
        basis_at(&self.nodes, &self.bary, x)
    }

    /// Evaluates all basis derivatives at `x` ∈ `[0, 1]`.
    pub fn basis_deriv_at(&self, x: f64) -> Vec<f64> {
        basis_deriv_at(&self.nodes, x)
    }

    /// Interpolates nodal values `f` at `x`.
    pub fn interpolate(&self, f: &[f64], x: f64) -> f64 {
        crate::lagrange::interpolate(&self.nodes, &self.bary, f, x)
    }

    /// The differentiation matrix transposed and zero-padded to `ld`
    /// columns per row (row-major `n × ld`), ready to serve as the `B`
    /// operand of the AoSoA x-derivative GEMM.
    pub fn diff_t_padded(&self, ld: usize) -> Vec<f64> {
        aderdg_tensor::transpose_matrix_padded(&self.diff, self.n, self.n, ld)
    }

    /// Source-projection coefficients `P_k(x0)` for a point source at
    /// `x0` ∈ `[0, 1]` (1-D factor): projecting `δ(x − x0)` onto the nodal
    /// basis and applying the inverse mass matrix gives `φ_k(x0) / w_k`.
    pub fn point_source_coeffs(&self, x0: f64) -> Vec<f64> {
        self.basis_at(x0)
            .iter()
            .zip(&self.inv_weights)
            .map(|(phi, iw)| phi * iw)
            .collect()
    }
}

/// Cauchy-Kowalewsky / Taylor time-integration coefficients
/// `c_o = Δtᵒ⁺¹ / (o + 1)!` for `o = 0..order` (paper eq. 4), computed with
/// the stable recurrence `c_{o+1} = c_o · Δt / (o + 2)`.
pub fn taylor_coefficients(dt: f64, order: usize) -> Vec<f64> {
    let mut c = Vec::with_capacity(order);
    let mut cur = dt;
    for o in 0..order {
        c.push(cur);
        cur *= dt / (o as f64 + 2.0);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stiffness_integration_by_parts_identity() {
        // ∫ φ_k' φ_l + ∫ φ_k φ_l' = [φ_k φ_l]_0^1, and Gauss-Legendre
        // quadrature is exact for the degree-(2n − 2) integrand:
        // K[k][l] = ∫ φ_k' φ_l = w_l D[l][k], so K + Kᵀ = φ(1)φ(1)ᵀ − φ(0)φ(0)ᵀ.
        for n in 2..=9 {
            let b = Basis1d::new(n);
            let stiff = |k: usize, l: usize| b.weights[l] * b.diff[l * n + k];
            for k in 0..n {
                for l in 0..n {
                    let lhs = stiff(k, l) + stiff(l, k);
                    let rhs = b.phi_right[k] * b.phi_right[l] - b.phi_left[k] * b.phi_left[l];
                    assert!(
                        (lhs - rhs).abs() < 1e-10,
                        "n={n} k={k} l={l}: {lhs} vs {rhs}"
                    );
                }
            }
        }
    }

    #[test]
    fn face_values_interpolate_boundary() {
        let b = Basis1d::new(6);
        let f: Vec<f64> = b.nodes.iter().map(|&x| 2.0 * x.powi(3) - x).collect();
        let left: f64 = b.phi_left.iter().zip(&f).map(|(p, v)| p * v).sum();
        let right: f64 = b.phi_right.iter().zip(&f).map(|(p, v)| p * v).sum();
        assert!(left.abs() < 1e-12, "left={left}");
        assert!((right - 1.0).abs() < 1e-12, "right={right}");
    }

    #[test]
    fn diff_t_is_transpose() {
        let b = Basis1d::new(7);
        let p = b.diff_t_padded(8);
        assert_eq!(p.len(), 7 * 8);
        for k in 0..7 {
            for l in 0..7 {
                assert_eq!(p[k * 8 + l], b.diff[l * 7 + k]);
            }
            assert_eq!(p[k * 8 + 7], 0.0);
        }
    }

    #[test]
    fn taylor_coefficients_match_factorials() {
        let dt = 0.3;
        let c = taylor_coefficients(dt, 6);
        let fact = |k: usize| (1..=k).product::<usize>() as f64;
        for (o, &co) in c.iter().enumerate() {
            let exact = dt.powi(o as i32 + 1) / fact(o + 1);
            assert!((co - exact).abs() < 1e-15 * (1.0 + exact.abs()), "o={o}");
        }
    }

    #[test]
    fn point_source_coeffs_reproduce_delta_moment() {
        // For any degree-<n polynomial p: Σ_k w_k p(x_k) P_k(x0) = p(x0),
        // i.e. the projection of δ tested against p returns p(x0).
        let b = Basis1d::new(6);
        let x0 = 0.37;
        let coeffs = b.point_source_coeffs(x0);
        let p = |x: f64| 4.0 * x.powi(5) - 2.0 * x.powi(2) + 1.0;
        let lhs: f64 = (0..6)
            .map(|k| b.weights[k] * p(b.nodes[k]) * coeffs[k])
            .sum();
        assert!((lhs - p(x0)).abs() < 1e-11);
    }

    #[test]
    fn interpolation_at_interior_point() {
        let b = Basis1d::new(4);
        let f: Vec<f64> = b.nodes.iter().map(|&x| x * x).collect();
        assert!((b.interpolate(&f, 0.5) - 0.25).abs() < 1e-13);
        let d = b.basis_deriv_at(0.5);
        let df: f64 = d.iter().zip(&f).map(|(a, b)| a * b).sum();
        assert!((df - 1.0).abs() < 1e-12);
    }
}
