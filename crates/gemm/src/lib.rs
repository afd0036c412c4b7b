//! # aderdg-gemm
//!
//! The LIBXSMM substitute: planned small dense matrix multiplications
//! `C ← α·A·B + β·C`, row-major with explicit leading dimensions, so that
//! tensor matrix slices (offset + slice stride, paper Fig. 3) can be
//! multiplied in place without copies.
//!
//! One kernel family: a BLIS-style packed, register-tiled driver
//! ([`micro`]) written once over the workspace's portable SIMD layer
//! ([`simd`], shared with the lane kernels through `aderdg-tensor`) and
//! instantiated per ISA level (baseline / AVX2 / AVX-512) via
//! `#[target_feature]` ([`tiles`]), behind the one object-safe
//! [`GemmBackend`] trait. A [`Gemm`] plan picks its kernel once at
//! construction via runtime feature detection — the role LIBXSMM's
//! runtime code generation plays in the paper — and caches the packed
//! panels of operands it reuses. [`gemm_naive`] is the test oracle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
pub mod kernels;
pub mod micro;
pub mod spec;
pub mod tiles;

pub use aderdg_tensor::simd::{self, F64s, SimdF64};
pub use backend::{backend_for, GemmBackend};
pub use kernels::{gemm_naive, Gemm, Isa};
pub use micro::{pack_a_panels, pack_b_panels, PackedOperands, PackedPanels, PanelSide};
pub use spec::{GemmBatch, GemmSpec};
