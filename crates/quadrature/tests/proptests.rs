//! Property-style tests: quadrature exactness and differentiation-matrix
//! exactness on random polynomials, driven by deterministic seeded sweeps
//! (hermetic build — no external property-testing framework).

use aderdg_quadrature::{nodes_weights_01, Basis1d};
use aderdg_tensor::Lcg;

/// Evaluates a polynomial given by `coeffs` (ascending degree) at `x`.
fn poly(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// Derivative of the polynomial at `x`.
fn dpoly(coeffs: &[f64], x: f64) -> f64 {
    coeffs
        .iter()
        .enumerate()
        .skip(1)
        .rev()
        .fold(0.0, |acc, (k, &c)| acc * x + k as f64 * c)
}

/// Exact integral over [0, 1].
fn ipoly(coeffs: &[f64]) -> f64 {
    coeffs
        .iter()
        .enumerate()
        .map(|(k, &c)| c / (k as f64 + 1.0))
        .sum()
}

#[test]
fn gauss_legendre_integrates_random_polys_exactly() {
    for n in 1usize..10 {
        for seed in 0..8 {
            // Degree up to the exactness limit 2n - 1.
            let deg_max = 2 * n - 1;
            let mut rng = Lcg::new(n as u64 * 100 + seed);
            let coeffs = rng.vec(deg_max + 1, -3.0, 3.0);
            let (x, w) = nodes_weights_01(n);
            let q: f64 = x
                .iter()
                .zip(&w)
                .map(|(&xi, &wi)| wi * poly(&coeffs, xi))
                .sum();
            let exact = ipoly(&coeffs);
            assert!(
                (q - exact).abs() < 1e-10 * (1.0 + exact.abs()),
                "n={n} q={q} exact={exact}"
            );
        }
    }
}

#[test]
fn diff_matrix_differentiates_random_polys() {
    for n in 2usize..10 {
        for seed in 0..8 {
            let mut rng = Lcg::new(n as u64 * 37 + seed);
            let coeffs = rng.vec(n.min(9), -2.0, 2.0); // degree < n
            let b = Basis1d::new(n);
            let f: Vec<f64> = b.nodes.iter().map(|&x| poly(&coeffs, x)).collect();
            for k in 0..n {
                let dfk: f64 = (0..n).map(|l| b.diff[k * n + l] * f[l]).sum();
                let exact = dpoly(&coeffs, b.nodes[k]);
                assert!(
                    (dfk - exact).abs() < 1e-8 * (1.0 + exact.abs()),
                    "n={n} k={k}: {dfk} vs {exact}"
                );
            }
        }
    }
}

#[test]
fn interpolation_reproduces_random_polys() {
    for n in 1usize..10 {
        for seed in 0..8 {
            let mut rng = Lcg::new(n as u64 * 53 + seed);
            let coeffs = rng.vec(n.min(9), -2.0, 2.0);
            let x = rng.f64(0.0, 1.0);
            let b = Basis1d::new(n);
            let f: Vec<f64> = b.nodes.iter().map(|&t| poly(&coeffs, t)).collect();
            let p = b.interpolate(&f, x);
            let exact = poly(&coeffs, x);
            assert!((p - exact).abs() < 1e-9 * (1.0 + exact.abs()));
        }
    }
}

#[test]
fn face_projection_consistent_with_interpolation() {
    for n in 2usize..9 {
        for seed in 0..8 {
            let mut rng = Lcg::new(n as u64 * 71 + seed);
            let coeffs = rng.vec(n.min(8), -2.0, 2.0);
            let b = Basis1d::new(n);
            let f: Vec<f64> = b.nodes.iter().map(|&t| poly(&coeffs, t)).collect();
            let left: f64 = b.phi_left.iter().zip(&f).map(|(p, v)| p * v).sum();
            let right: f64 = b.phi_right.iter().zip(&f).map(|(p, v)| p * v).sum();
            assert!((left - poly(&coeffs, 0.0)).abs() < 1e-9);
            assert!((right - poly(&coeffs, 1.0)).abs() < 1e-9);
        }
    }
}
