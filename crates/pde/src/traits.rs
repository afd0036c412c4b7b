//! The user-function API of the engine.
//!
//! A [`LinearPde`] supplies the PDE-specific terms of
//! `Q_t = ∇·F(Q) + B·∇Q + δ_x0` (paper eq. 1; the material matrix `M` is
//! folded into `F` and `B`): the conservative flux per dimension, the
//! non-conservative product, and wave speeds for the Riemann solver and the
//! CFL condition.
//!
//! Two call styles mirror the paper's API split (Sec. III-A, V-C):
//!
//! * **pointwise** — one quadrature node at a time, AoS quantity vector
//!   (the default ExaHyPE user API; executes scalar),
//! * **vectorized** — a whole x-line of nodes in SoA chunks (`stride`-spaced
//!   runs per quantity, Fig. 8), used by the AoSoA SplitCK kernel:
//!   [`LinearPde::flux_lanes`] / [`LinearPde::ncp_lanes`], which run at the
//!   ISA level the caller names (a kernel passes its plan's GEMM backend
//!   level). Default implementations fall back to the pointwise functions
//!   lane by lane, so vectorization is opt-in per application exactly as
//!   in the paper.
//!
//! Convention: the state vector holds `num_vars()` *evolved* quantities
//! followed by `num_params()` material/geometry parameters, for a total of
//! `num_quantities()` stored entries per node. Fluxes of parameters are
//! zero; parameters never evolve.

use aderdg_tensor::simd::Isa;

/// A linear hyperbolic PDE system with cell-constant coefficients taken
/// from per-node material parameters.
///
/// Implementing the three required methods is enough for the full
/// engine; the vectorized SoA variants and the reflective ghost are
/// opt-in refinements:
///
/// ```
/// use aderdg_pde::LinearPde;
///
/// /// One quantity advected rightward at unit speed.
/// struct Upwind;
/// impl LinearPde for Upwind {
///     fn num_vars(&self) -> usize { 1 }
///     fn flux(&self, d: usize, q: &[f64], f: &mut [f64]) {
///         f[0] = if d == 0 { -q[0] } else { 0.0 };
///     }
///     fn max_wavespeed(&self, d: usize, _q: &[f64]) -> f64 {
///         if d == 0 { 1.0 } else { 0.0 }
///     }
///     fn flux_flops(&self) -> u64 { 1 }
/// }
///
/// let pde = Upwind;
/// assert_eq!(pde.num_quantities(), 1); // no parameters by default
/// // The SoA fallback gathers lane by lane into the pointwise flux.
/// let (q, mut f) = ([2.0, 3.0], [0.0, 0.0]);
/// pde.flux_vect(0, &q, &mut f, 2, 2);
/// assert_eq!(f, [-2.0, -3.0]);
/// ```
pub trait LinearPde: Send + Sync {
    /// Number of evolved quantities.
    fn num_vars(&self) -> usize;

    /// Number of stored (non-evolving) material / geometry parameters.
    fn num_params(&self) -> usize {
        0
    }

    /// Total stored quantities per node (`m` in the paper).
    fn num_quantities(&self) -> usize {
        self.num_vars() + self.num_params()
    }

    /// Pointwise conservative flux in direction `d` ∈ {0, 1, 2}:
    /// writes all `num_quantities()` entries of `f` (parameter rows zero).
    fn flux(&self, d: usize, q: &[f64], f: &mut [f64]);

    /// True if the PDE has a non-conservative product `B·∇Q`.
    fn has_ncp(&self) -> bool {
        false
    }

    /// Pointwise non-conservative product in direction `d`: given the state
    /// `q` (for its parameters) and the gradient `grad` of the state in
    /// direction `d`, writes `B_d · grad` into `out` (all entries,
    /// parameter rows zero). Only called when [`LinearPde::has_ncp`].
    fn ncp(&self, d: usize, q: &[f64], grad: &[f64], out: &mut [f64]) {
        let _ = (d, q, grad);
        out.fill(0.0);
    }

    /// Largest signal speed in direction `d` at state `q` (CFL and
    /// Rusanov dissipation).
    fn max_wavespeed(&self, d: usize, q: &[f64]) -> f64;

    /// Vectorized flux on an SoA chunk (paper Fig. 8): `q` holds
    /// `num_quantities()` runs ("rows") of `stride` doubles; lanes
    /// `0..len` are valid, lanes `len..stride` are zero padding. `f`
    /// holds the same rows or — parameter fluxes being zero, a caller
    /// that never reads them need not pay for their stores — only the
    /// leading `num_vars()` evolved ones. Every row `f` holds is written
    /// whole (parameter rows and padding lanes as zeros), so `f` needs no
    /// prior clearing. `isa` is the instruction-set level to run at — the
    /// kernels pass their plan's GEMM backend level, so one decision
    /// governs a whole predictor.
    ///
    /// This is the method a PDE overrides to vectorize; the default
    /// gathers lane by lane into the pointwise function and ignores
    /// `isa`.
    fn flux_lanes(&self, isa: Isa, d: usize, q: &[f64], f: &mut [f64], len: usize, stride: usize) {
        let _ = isa;
        let m = self.num_quantities();
        with_node_scratch(2 * m, |buf| {
            let (qi, fi) = buf.split_at_mut(m);
            for i in 0..len {
                for s in 0..m {
                    qi[s] = q[s * stride + i];
                }
                self.flux(d, qi, fi);
                for (s, row) in f.chunks_exact_mut(stride).take(m).enumerate() {
                    row[i] = fi[s];
                }
            }
        });
        // Keep padding lanes zero.
        for row in f.chunks_exact_mut(stride).take(m) {
            row[len..].fill(0.0);
        }
    }

    /// Vectorized non-conservative product on an SoA chunk; see
    /// [`LinearPde::flux_lanes`].
    #[allow(clippy::too_many_arguments)]
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
        let _ = isa;
        let m = self.num_quantities();
        with_node_scratch(3 * m, |buf| {
            let (qi, rest) = buf.split_at_mut(m);
            let (gi, oi) = rest.split_at_mut(m);
            for i in 0..len {
                for s in 0..m {
                    qi[s] = q[s * stride + i];
                    gi[s] = grad[s * stride + i];
                }
                self.ncp(d, qi, gi, oi);
                for (s, row) in out.chunks_exact_mut(stride).take(m).enumerate() {
                    row[i] = oi[s];
                }
            }
        });
        for row in out.chunks_exact_mut(stride).take(m) {
            row[len..].fill(0.0);
        }
    }

    /// [`LinearPde::flux_lanes`] at the widest ISA level the host supports.
    fn flux_vect(&self, d: usize, q: &[f64], f: &mut [f64], len: usize, stride: usize) {
        self.flux_lanes(Isa::detect(), d, q, f, len, stride);
    }

    /// [`LinearPde::ncp_lanes`] at the widest ISA level the host supports.
    fn ncp_vect(
        &self,
        d: usize,
        q: &[f64],
        grad: &[f64],
        out: &mut [f64],
        len: usize,
        stride: usize,
    ) {
        self.ncp_lanes(Isa::detect(), d, q, grad, out, len, stride);
    }

    /// True if this PDE provides genuinely vectorized overrides of
    /// [`LinearPde::flux_lanes`] / [`LinearPde::ncp_lanes`] (affects the
    /// instruction-mix classification of the AoSoA kernel, Fig. 9).
    fn has_vectorized_user_functions(&self) -> bool {
        false
    }

    /// Constructs the ghost state seen across a *reflective* boundary face
    /// with normal dimension `d` (`outward` = +1 on an upper face, −1 on a
    /// lower face). The default mirrors nothing (zero-gradient, i.e. the
    /// same as outflow); wave systems override to flip the normal velocity
    /// (rigid wall) or stress (free surface).
    fn reflective_ghost(&self, d: usize, outward: f64, q: &[f64], ghost: &mut [f64]) {
        let _ = (d, outward);
        ghost.copy_from_slice(q);
    }

    /// Estimated useful flops of one pointwise flux evaluation in one
    /// direction (for the analytic instruction-mix model).
    fn flux_flops(&self) -> u64;

    /// Estimated useful flops of one pointwise ncp evaluation in one
    /// direction.
    fn ncp_flops(&self) -> u64 {
        0
    }
}

/// Doubles of node scratch the default SoA fallbacks keep on the stack
/// (three node vectors of up to 32 quantities).
const NODE_STACK: usize = 96;

/// Hands `body` `len` zeroed doubles of node scratch: a fixed stack buffer
/// for every realistic quantity count (the fallbacks run once per x-line,
/// thousands of times per cell), a heap buffer beyond [`NODE_STACK`].
fn with_node_scratch(len: usize, body: impl FnOnce(&mut [f64])) {
    let mut stack = [0.0f64; NODE_STACK];
    match stack.get_mut(..len) {
        Some(buf) => body(buf),
        None => body(&mut vec![0.0; len]),
    }
}

/// An exact reference solution, used by convergence tests and examples.
///
/// ```
/// use aderdg_pde::ExactSolution;
///
/// struct Constant(f64);
/// impl ExactSolution for Constant {
///     fn evaluate(&self, _x: [f64; 3], _t: f64, q: &mut [f64]) {
///         q.fill(self.0);
///     }
/// }
/// let mut q = [0.0; 2];
/// Constant(3.0).evaluate([0.0; 3], 1.0, &mut q);
/// assert_eq!(q, [3.0, 3.0]);
/// ```
pub trait ExactSolution: Send + Sync {
    /// Evaluates the evolved quantities (not the parameters) at `(x, t)`.
    fn evaluate(&self, x: [f64; 3], t: f64, q: &mut [f64]);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal PDE for exercising the default SoA fallbacks: two evolved
    /// vars, flux_x = (q1, 2 q0), one parameter.
    struct Toy;

    impl LinearPde for Toy {
        fn num_vars(&self) -> usize {
            2
        }
        fn num_params(&self) -> usize {
            1
        }
        fn flux(&self, d: usize, q: &[f64], f: &mut [f64]) {
            f.fill(0.0);
            if d == 0 {
                f[0] = q[1];
                f[1] = 2.0 * q[0];
            }
        }
        fn has_ncp(&self) -> bool {
            true
        }
        fn ncp(&self, _d: usize, q: &[f64], grad: &[f64], out: &mut [f64]) {
            out.fill(0.0);
            out[0] = q[2] * grad[0]; // parameter-weighted gradient
        }
        fn max_wavespeed(&self, _d: usize, _q: &[f64]) -> f64 {
            2.0f64.sqrt()
        }
        fn flux_flops(&self) -> u64 {
            1
        }
    }

    #[test]
    fn soa_fallback_matches_pointwise() {
        let pde = Toy;
        let stride = 8;
        let len = 5;
        let m = pde.num_quantities();
        let mut q = vec![0.0; m * stride];
        for s in 0..m {
            for i in 0..len {
                q[s * stride + i] = (s * 10 + i) as f64 * 0.1;
            }
        }
        let mut f = vec![f64::NAN; m * stride];
        pde.flux_vect(0, &q, &mut f, len, stride);
        for i in 0..len {
            let qi: Vec<f64> = (0..m).map(|s| q[s * stride + i]).collect();
            let mut fi = vec![0.0; m];
            pde.flux(0, &qi, &mut fi);
            for s in 0..m {
                assert_eq!(f[s * stride + i], fi[s], "s={s} i={i}");
            }
        }
        // Padding lanes zeroed.
        for s in 0..m {
            for i in len..stride {
                assert_eq!(f[s * stride + i], 0.0);
            }
        }
        // An output that stops after the evolved rows gets just those.
        let mut evolved = vec![f64::NAN; pde.num_vars() * stride];
        pde.flux_vect(0, &q, &mut evolved, len, stride);
        assert_eq!(evolved, f[..pde.num_vars() * stride]);
    }

    #[test]
    fn ncp_fallback_matches_pointwise() {
        let pde = Toy;
        let stride = 4;
        let len = 3;
        let m = pde.num_quantities();
        let q: Vec<f64> = (0..m * stride).map(|x| x as f64 * 0.05).collect();
        let g: Vec<f64> = (0..m * stride).map(|x| (x as f64).sin()).collect();
        let mut out = vec![f64::NAN; m * stride];
        pde.ncp_vect(0, &q, &g, &mut out, len, stride);
        for i in 0..len {
            let qi: Vec<f64> = (0..m).map(|s| q[s * stride + i]).collect();
            let gi: Vec<f64> = (0..m).map(|s| g[s * stride + i]).collect();
            let mut oi = vec![0.0; m];
            pde.ncp(0, &qi, &gi, &mut oi);
            for s in 0..m {
                assert_eq!(out[s * stride + i], oi[s]);
            }
        }
    }

    #[test]
    fn quantity_counts() {
        let pde = Toy;
        assert_eq!(pde.num_quantities(), 3);
        assert!(!pde.has_vectorized_user_functions());
    }
}
