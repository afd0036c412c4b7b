//! Legendre polynomials and Gauss-Legendre quadrature.
//!
//! The DG scheme uses a nodal Lagrange basis on the Gauss-Legendre
//! points, which double as its quadrature rule. Nodes and weights are
//! computed on the reference interval `[0, 1]` (the unit cube is the
//! reference element).

/// Evaluates the Legendre polynomial `P_n` and its derivative at `x`
/// (on `[-1, 1]`), via the three-term recurrence.
pub fn legendre(n: usize, x: f64) -> (f64, f64) {
    if n == 0 {
        return (1.0, 0.0);
    }
    let mut p_prev = 1.0; // P_0
    let mut p = x; // P_1
    for k in 2..=n {
        let kf = k as f64;
        let p_next = ((2.0 * kf - 1.0) * x * p - (kf - 1.0) * p_prev) / kf;
        p_prev = p;
        p = p_next;
    }
    // P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1); use the recurrence-safe form.
    let dp = if (x * x - 1.0).abs() < 1e-300 {
        // Endpoint derivative: P_n'(±1) = ±^{n+1} n(n+1)/2.
        let sign = if x > 0.0 {
            1.0
        } else {
            (-1.0f64).powi(n as i32 + 1)
        };
        sign * (n * (n + 1)) as f64 / 2.0
    } else {
        (n as f64) * (x * p - p_prev) / (x * x - 1.0)
    };
    (p, dp)
}

/// Gauss-Legendre nodes and weights on `[-1, 1]`, by Newton iteration from
/// the Chebyshev initial guess. `n >= 1`.
pub fn gauss_legendre_m11(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1, "need at least one quadrature point");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    for i in 0..n.div_ceil(2) {
        // Chebyshev-like initial guess for the i-th root (descending).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        for _ in 0..100 {
            let (p, dp) = legendre(n, x);
            let dx = p / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let (_, dp) = legendre(n, x);
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        nodes[n - 1 - i] = x;
        nodes[i] = -x;
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    if n % 2 == 1 {
        nodes[n / 2] = 0.0;
        let (_, dp) = legendre(n, 0.0);
        weights[n / 2] = 2.0 / (dp * dp);
    }
    (nodes, weights)
}

/// Gauss-Legendre nodes and weights with `n` points, mapped to `[0, 1]`.
pub fn nodes_weights_01(n: usize) -> (Vec<f64>, Vec<f64>) {
    let (x, w) = gauss_legendre_m11(n);
    (
        x.iter().map(|&t| 0.5 * (t + 1.0)).collect(),
        w.iter().map(|&t| 0.5 * t).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn integrate(nodes: &[f64], weights: &[f64], f: impl Fn(f64) -> f64) -> f64 {
        nodes.iter().zip(weights).map(|(&x, &w)| w * f(x)).sum()
    }

    #[test]
    fn legendre_values() {
        // P_2(x) = (3x^2 - 1)/2, P_2'(x) = 3x.
        let (p, dp) = legendre(2, 0.4);
        assert!((p - (3.0 * 0.16 - 1.0) / 2.0).abs() < 1e-15);
        assert!((dp - 1.2).abs() < 1e-12);
        // Endpoint derivative P_3'(1) = 3*4/2 = 6.
        let (_, dp1) = legendre(3, 1.0);
        assert!((dp1 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn gauss_legendre_known_values() {
        let (x, w) = gauss_legendre_m11(2);
        let r = 1.0 / 3.0f64.sqrt();
        assert!((x[0] + r).abs() < 1e-14 && (x[1] - r).abs() < 1e-14);
        assert!((w[0] - 1.0).abs() < 1e-14 && (w[1] - 1.0).abs() < 1e-14);

        let (x3, w3) = gauss_legendre_m11(3);
        assert!((x3[1]).abs() < 1e-14);
        assert!((x3[2] - (0.6f64).sqrt()).abs() < 1e-14);
        assert!((w3[1] - 8.0 / 9.0).abs() < 1e-14);
        assert!((w3[0] - 5.0 / 9.0).abs() < 1e-14);
    }

    #[test]
    fn gl_exact_for_degree_2n_minus_1() {
        for n in 1..=12 {
            let (x, w) = nodes_weights_01(n);
            for deg in 0..=(2 * n - 1) {
                let exact = 1.0 / (deg as f64 + 1.0);
                let q = integrate(&x, &w, |t| t.powi(deg as i32));
                assert!((q - exact).abs() < 1e-12, "n={n} deg={deg}: {q} vs {exact}");
            }
        }
    }

    #[test]
    fn weights_positive_and_sum_to_one_on_unit_interval() {
        for n in 2..=14 {
            let (x, w) = nodes_weights_01(n);
            assert!(w.iter().all(|&wi| wi > 0.0));
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-13, "n={n} sum={sum}");
            assert!(x.windows(2).all(|p| p[0] < p[1]), "nodes sorted");
            assert!(x.iter().all(|&xi| (-1e-14..=1.0 + 1e-14).contains(&xi)));
        }
    }
}
