//! # aderdg-quadrature
//!
//! Nodal DG basis substrate: Gauss-Legendre quadrature, barycentric
//! Lagrange interpolation, and the precomputed per-order operator sets
//! (differentiation matrix, quadrature weights and their inverses,
//! face-evaluation vectors, point-source projection, Cauchy-Kowalewsky
//! time-integration coefficients) that the paper's Kernel Generator bakes
//! into its generated kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lagrange;
pub mod legendre;
pub mod operators;

pub use lagrange::{barycentric_weights, basis_at, basis_deriv_at, diff_matrix, interpolate};
pub use legendre::{gauss_legendre_m11, legendre, nodes_weights_01};
pub use operators::{taylor_coefficients, Basis1d};
