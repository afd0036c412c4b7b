//! Lagrange interpolation on arbitrary node sets (barycentric form).
//!
//! The nodal DG basis is the set of Lagrange polynomials `φ_k` over the 1-D
//! quadrature nodes; 3-D basis functions are tensor products
//! `Φ_k = φ_{k1} φ_{k2} φ_{k3}` (paper Sec. II-A).

/// Barycentric weights `w_k = 1 / Π_{j≠k} (x_k − x_j)` for a node set.
pub fn barycentric_weights(nodes: &[f64]) -> Vec<f64> {
    let n = nodes.len();
    let mut w = vec![1.0; n];
    for k in 0..n {
        for j in 0..n {
            if j != k {
                w[k] /= nodes[k] - nodes[j];
            }
        }
    }
    w
}

/// Evaluates all `n` Lagrange basis polynomials at `x`.
///
/// Exact at the nodes (returns a Kronecker delta row) and stable elsewhere
/// via the barycentric second form.
pub fn basis_at(nodes: &[f64], bary: &[f64], x: f64) -> Vec<f64> {
    let n = nodes.len();
    let mut out = vec![0.0; n];
    // At (or numerically on top of) a node, the basis is a delta.
    for k in 0..n {
        if (x - nodes[k]).abs() < 1e-14 {
            out[k] = 1.0;
            return out;
        }
    }
    let mut denom = 0.0;
    for k in 0..n {
        let t = bary[k] / (x - nodes[k]);
        out[k] = t;
        denom += t;
    }
    for v in out.iter_mut() {
        *v /= denom;
    }
    out
}

/// Evaluates the derivatives `φ_k'(x)` of all basis polynomials at an
/// arbitrary `x` (product-rule form, `O(n^2)`).
pub fn basis_deriv_at(nodes: &[f64], x: f64) -> Vec<f64> {
    let n = nodes.len();
    let mut out = vec![0.0; n];
    for k in 0..n {
        // φ_k(x) = Π_{j≠k} (x − x_j)/(x_k − x_j)
        // φ_k'(x) = Σ_{i≠k} (1/(x_k − x_i)) Π_{j≠k,i} (x − x_j)/(x_k − x_j)
        let mut acc = 0.0;
        for i in 0..n {
            if i == k {
                continue;
            }
            let mut term = 1.0 / (nodes[k] - nodes[i]);
            for j in 0..n {
                if j != k && j != i {
                    term *= (x - nodes[j]) / (nodes[k] - nodes[j]);
                }
            }
            acc += term;
        }
        out[k] = acc;
    }
    out
}

/// Nodal differentiation matrix `D[k][l] = φ_l'(x_k)` (row-major `n × n`):
/// applying `D` to nodal values yields the derivative of the interpolant at
/// the nodes. This is the paper's discrete derivative operator `D`
/// (Sec. II-A), before scaling by the inverse element size.
pub fn diff_matrix(nodes: &[f64]) -> Vec<f64> {
    let n = nodes.len();
    let bary = barycentric_weights(nodes);
    let mut d = vec![0.0; n * n];
    for k in 0..n {
        let mut diag = 0.0;
        for l in 0..n {
            if l != k {
                let v = (bary[l] / bary[k]) / (nodes[k] - nodes[l]);
                d[k * n + l] = v;
                diag -= v;
            }
        }
        d[k * n + k] = diag;
    }
    d
}

/// Interpolates nodal values `f` at point `x`.
pub fn interpolate(nodes: &[f64], bary: &[f64], f: &[f64], x: f64) -> f64 {
    basis_at(nodes, bary, x)
        .iter()
        .zip(f)
        .map(|(phi, v)| phi * v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legendre::nodes_weights_01;

    #[test]
    fn basis_is_kronecker_at_nodes() {
        let (nodes, _) = nodes_weights_01(6);
        let bary = barycentric_weights(&nodes);
        for (k, &xk) in nodes.iter().enumerate() {
            let b = basis_at(&nodes, &bary, xk);
            for (l, &v) in b.iter().enumerate() {
                let expect = if l == k { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn partition_of_unity() {
        let (nodes, _) = nodes_weights_01(7);
        let bary = barycentric_weights(&nodes);
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let s: f64 = basis_at(&nodes, &bary, x).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "x={x} sum={s}");
        }
    }

    #[test]
    fn interpolation_exact_for_low_degree() {
        let (nodes, _) = nodes_weights_01(5);
        let bary = barycentric_weights(&nodes);
        let f: Vec<f64> = nodes.iter().map(|&x| 3.0 * x.powi(4) - x + 0.5).collect();
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            let p = interpolate(&nodes, &bary, &f, x);
            let exact = 3.0 * x.powi(4) - x + 0.5;
            assert!((p - exact).abs() < 1e-11, "x={x}");
        }
    }

    #[test]
    fn diff_matrix_exact_on_polynomials() {
        for n in 2..=10 {
            let (nodes, _) = nodes_weights_01(n);
            let d = diff_matrix(&nodes);
            for deg in 0..n {
                let f: Vec<f64> = nodes.iter().map(|&x| x.powi(deg as i32)).collect();
                for k in 0..n {
                    let dfk: f64 = (0..n).map(|l| d[k * n + l] * f[l]).sum();
                    let exact = if deg == 0 {
                        0.0
                    } else {
                        deg as f64 * nodes[k].powi(deg as i32 - 1)
                    };
                    assert!(
                        (dfk - exact).abs() < 1e-9 * (1.0 + exact.abs()),
                        "n={n} deg={deg} k={k}: {dfk} vs {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn diff_matrix_rows_sum_to_zero() {
        // Derivative of the constant function is zero.
        let (nodes, _) = nodes_weights_01(8);
        let d = diff_matrix(&nodes);
        for k in 0..8 {
            let s: f64 = d[k * 8..(k + 1) * 8].iter().sum();
            assert!(s.abs() < 1e-11);
        }
    }

    #[test]
    fn deriv_at_matches_diff_matrix_at_nodes() {
        let (nodes, _) = nodes_weights_01(6);
        let d = diff_matrix(&nodes);
        for (k, &xk) in nodes.iter().enumerate() {
            let row = basis_deriv_at(&nodes, xk);
            for l in 0..6 {
                assert!(
                    (row[l] - d[k * 6 + l]).abs() < 1e-9,
                    "k={k} l={l}: {} vs {}",
                    row[l],
                    d[k * 6 + l]
                );
            }
        }
    }
}
